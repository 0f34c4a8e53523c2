"""One predicate per property, pinned to the copies it replaced.

``spectra._sign_cones`` tests each leaf for closure under products and
sums; its two callers, ``spectra._orderings`` and
``ordering_spaces._enumerate_ars_cones``, test only the support, through the
one prime test ``spectra._is_prime``.  ``reference_searches`` keeps the
search that yielded its leaves untested (``_sign_cones``), the callers with
their own full leaf tests (``sign_cone_orderings``,
``sign_cone_ars_cones``), the prime test ``is_prime_mask`` and the
characters of a multifield with their ``_GroupView``, all as they were.
Here the orderings, with their exceptions, must agree on every candidate
multiring of order <= 3 and on seeded mutants, the leaves of the new search
must be the old leaves that are closed, the cones of sign spaces must come
in the same order, and the admissible characters must agree on the real
reduced multifields of the corpus and the sum-k multifields, k <= 5.  The
kernel closure test shared by AX2 and the characters must agree with the
old loop on arbitrary tables.

``check_sg_morphism`` and ``is_sg_morphism`` share one generator of broken
isometry quadruples; their reports and decisions must equal the old audits
of ``reference_audits`` on every map from each corpus special group of
order <= 4 into the sum-3 group, on every map from the sum-3 group to the
groups of order 2, on every map to those of order 4 that sends 1 and -1 to
1 and -1, and on seeded maps of the sum-3 group to itself.

The table-audit helpers of ``core`` (reversibility, identity and
commutativity) are pinned by the naive audits of ``reference_audits`` in
``test_audit_kernel``, ``test_row_kernel`` and ``test_rs_masks``.

``_sg6_witness`` is cached per group: ``check --level all`` on a special
group computes it once, and prints what it printed without the cache.
"""

import functools
import itertools
import random

import reference_audits
import reference_searches as reference
from multialg import core, spectra
from multialg import io as mio
from multialg import special_groups as spg
from multialg.cli import main
from multialg.constructions import product
from multialg.corpus import corpus_real_reduced_multifields, corpus_special_groups
from multialg.ordering_spaces import (
    _admissible_characters,
    _ax1_verdicts,
    _closed_under,
    _enumerate_ars_cones,
    aos_to_mfred,
    fan_aos,
)
from test_relabel_and_cones import mutant, sign_spaces


def outcome(fn, *args):
    """fn(*args), or the type and message of the InputError it raises."""
    try:
        return fn(*args)
    except core.InputError as exc:
        return type(exc), str(exc)


def closed(a, p):
    """P is closed under the products and sums of a."""
    return all(not a.add[x][y] & ~p and (p >> a.mul[x][y]) & 1
               for x in core.bits(p) for y in core.bits(p))


def once(values):
    """values in order, each taken once: the reference searches repeat a
    cone when ``neg`` is no involution."""
    return type(values)(dict.fromkeys(values))


def assert_cones_agree(a):
    """Returns the orderings of a, or the InputError's type and message,
    and whether the reference search repeated a cone."""
    old = [p for p in reference._sign_cones(a.neg, a.mul, a.add) if closed(a, p)]
    assert list(spectra._sign_cones(a.neg, a.mul, a.add)) == once(old)
    orderings = outcome(spectra._orderings, a)
    want = outcome(reference.sign_cone_orderings, a)
    assert orderings == (want if want[:1] == (core.InputError,) else once(want))
    return orderings, len(once(old)) < len(old)


def test_sign_cones_of_every_candidate_of_order_at_most_three():
    seen = 0
    for a in reference.candidate_multirings():
        assert_cones_agree(a)
        seen += 1
    assert seen == 616


def test_sign_cones_of_seeded_mutants():
    """Mutants of every table and constant, many of them failing the
    multiring audit, so that Ordering raises on some of them."""
    rng = random.Random(29)
    q2 = core.q2()
    raised = repeated = 0
    for base in (q2, product([q2, q2]), product([q2, core.krasner()]),
                 core.ring_multiring(6)):
        for _ in range(60):
            orderings, repeats = assert_cones_agree(mutant(base, rng))
            raised += orderings[:1] == (core.InputError,)
            repeated += repeats
    assert raised > 0 and repeated > 0


def test_ars_cones_against_the_old_leaf_test():
    checked = 0
    for s in sign_spaces():
        if not all(v.passed for v in _ax1_verdicts(s)[:2]):
            continue
        assert _enumerate_ars_cones(s) == reference.sign_cone_ars_cones(s)
        checked += 1
    assert checked > 100


def test_admissible_characters():
    fields = list(corpus_real_reduced_multifields().values())
    fields += [aos_to_mfred(fan_aos(k)) for k in range(1, 6)]
    for f in fields:
        assert _admissible_characters(f) == reference._admissible_characters(f)


def test_kernel_closure_on_arbitrary_tables():
    """On the value sets of a space and the sums of a multifield one row of
    a kernel stands for all, by translation; on tables without that
    structure every row counts.  The loop is the old one of AX2."""
    rng = random.Random(37)
    for n in (1, 2, 3, 5):
        for _ in range(40):
            cells = [[rng.randrange(1 << n) for _ in range(n)] for _ in range(n)]
            for ker in range(1 << n):
                closed = True
                for i in core.bits(ker):
                    for j in core.bits(ker):
                        if cells[i][j] & ~ker:
                            closed = False
                assert _closed_under(cells, ker) == closed


def assert_sg_reports_agree(maps):
    seen = 0
    for f in maps:
        report = spg.check_sg_morphism(f)
        assert report == reference_audits.check_sg_morphism(f)
        assert spg.is_sg_morphism(f) == report.overall
        seen += 1
    return seen


def test_sg_morphisms_to_and_from_the_sum_three_group():
    s3 = spg.mf_to_sg(aos_to_mfred(fan_aos(3)))
    seen = 0
    for g in corpus_special_groups().values():
        if g.size > 4:
            continue
        seen += assert_sg_reports_agree(
            core.StructureMap(g, s3, mp)
            for mp in itertools.product(range(s3.size), repeat=g.size))
        seen += assert_sg_reports_agree(
            core.StructureMap(s3, g, mp)
            for mp in itertools.product(range(g.size), repeat=s3.size)
            if g.size == 2 or (mp[s3.one], mp[s3.minus_one]) == (g.one, g.minus_one))
    rng = random.Random(31)
    seen += assert_sg_reports_agree(
        core.StructureMap(s3, s3, tuple(rng.randrange(8) for _ in range(8)))
        for _ in range(500))
    seen += assert_sg_reports_agree(spg.enumerate_sg_morphisms(s3, s3))
    assert seen > 10000


def test_sg6_runs_once_per_group(tmp_path, capsys, monkeypatch):
    """SG6 is read by check_sg and check_sg789 and built once: the witness
    kept on the group serves both."""
    path = tmp_path / "sum3.mrs"
    mio.write_structure(str(path), spg.mf_to_sg(aos_to_mfred(fan_aos(3))))
    built, read = [], []
    build = spg._sg6_witness.__wrapped__
    kept = core._kept(functools.wraps(build)(lambda g: built.append(g) or build(g)))
    with monkeypatch.context() as patch:
        patch.setattr(spg, "_sg6_witness", lambda g: read.append(g) or kept(g))
        assert main(["check", str(path), "--level", "all"]) == 0
    cached = capsys.readouterr().out
    assert len(built) == 1 and len(read) >= 2
    monkeypatch.setattr(spg, "_sg6_witness", build)
    assert main(["check", str(path), "--level", "all"]) == 0
    assert capsys.readouterr().out == cached
