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
reduced multifields of the corpus and the sum-k multifields, k <= 5.

``ordering_spaces._admissible`` lists the characters for AX2 and for the
points of a real reduced multifield.  On a seeded sweep of two-valued
spaces ``check_aos`` must give the reports of ``reference_audits``, whose
character enumeration is the old one, witnesses included, and the
multifields of those spaces the characters of ``reference_searches``.  The
generator's kernel test reads one row, which is exact only on groups whose
cells are translates of that row: on the sweep, for every character, it
must agree with a test of every row.

``check_sg_morphism`` and ``enumerate_sg_morphisms`` share one generator of
broken isometry quadruples; the reports, and their overall decisions, must
equal the old audits of ``reference_audits`` on every map from each corpus special group of
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
from multialg.corpus import (
    corpus_real_reduced_multifields,
    corpus_sign_spaces,
    corpus_special_groups,
)
from multialg.ordering_spaces import (
    AOS,
    _admissible,
    _admissible_characters,
    _ax1_verdicts,
    _echelon_basis,
    _enumerate_ars_cones,
    _product_table,
    aos_to_mfred,
    check_aos,
    fan_aos,
    make_sign_space,
    value_table,
)
from test_audit_kernel import true_fan
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


def subgroup(rng, k):
    """The span of -1 (four times in five) and of one to k seeded sign
    vectors, as the functions of a space on k points, less one seeded
    function three times in ten."""
    generators = [tuple(rng.choice((-1, 1)) for _ in range(k))
                  for _ in range(rng.randint(1, k))]
    if rng.random() < 0.8:
        generators.append((-1,) * k)
    group = {(1,) * k}
    for g in generators:
        group |= {tuple(a * b for a, b in zip(g, h)) for h in group}
    functions = sorted(group)
    if rng.random() < 0.3 and len(functions) > 1:
        functions.remove(rng.choice(functions))
    return make_sign_space(AOS, [f"x{i}" for i in range(k)], functions)


@functools.cache
def sweep():
    """The sums fan_aos(1..4) and the corpus's two-valued spaces; 300 seeded
    subgroups of {-1, 1}^k, k <= 4; the true fans of rank 3 and 4 less one
    point, those of rank 4 also in two seeded point orders each; and true
    fans of rank 5 less 2 and 4 points, which have that many characters of
    closed kernel that are no points, so that AX2's witness depends on the
    order of the characters.  Returns the spaces and the real reduced
    multifields ``aos_to_mfred`` makes of them."""
    rng = random.Random(46)
    spaces = [fan_aos(k) for k in range(1, 5)]
    spaces += [s for s in corpus_sign_spaces().values() if s.mode == AOS]
    spaces += [subgroup(rng, rng.randint(1, 4)) for _ in range(300)]
    spaces += [true_fan(k, (p,)) for k in (3, 4) for p in range(2 ** (k - 1))]
    spaces += [true_fan(4, (p,), rng) for p in range(8) for _ in range(2)]
    spaces += [true_fan(5, rng.sample(range(16), d)) for d in (2, 4)]
    fields = []
    for s in spaces:
        f = outcome(aos_to_mfred, s)
        if isinstance(f, core.FiniteMultiring) and spectra.is_real_reduced_mf(f).overall:
            fields.append(f)
    return spaces, fields


def test_characters_on_the_seeded_sweep():
    spaces, fields = sweep()
    witnesses = 0
    for s in spaces:
        report = check_aos(s)
        assert report == reference_audits.check_aos(s)
        witnesses += report.verdict("AX2-characters-are-points").witness is not None
    for f in fields:
        assert _admissible_characters(f) == reference._admissible_characters(f)
    assert witnesses >= 20 and len(fields) > 100


def test_one_row_kernel_test_on_every_character():
    """Each group of the sweep, and of twelve seeded true fans of rank 5
    less one to four points in seeded point orders, with its cells,
    generators and every character in the old enumeration's order.  For each
    element m other than 1, the generator must list the characters with
    chi(m) = -1 whose kernel K has every cell (x, y), x and y in K, inside K;
    every character but the trivial one sends some m to -1."""
    spaces, fields = sweep()
    rng = random.Random(47)
    spaces = [s for s in spaces if all(v.passed for v in _ax1_verdicts(s)[:2])]
    spaces += [true_fan(5, rng.sample(range(16), rng.randint(1, 4)), rng)
               for _ in range(12)]
    groups = [(_product_table(s), s.constant(1), _echelon_basis(s), value_table(s),
               range(s.nfunctions), reference_audits._characters(s)) for s in spaces]
    for f in fields:
        nz = [x for x in range(f.size) if x != f.zero]
        groups.append((f.mul, f.one, nz, f.add, nz,
                       reference._GroupView(f, nz).characters()))
    checked = 0
    for mul, one, generators, cells, elements, characters in groups:
        kernels = [core.mask_of(x for x, v in zip(elements, chi) if v == 1)
                   for chi in characters]
        closed = [all(not cells[x][y] & ~ker
                      for x in core.bits(ker) for y in core.bits(ker))
                  for ker in kernels]
        for i, m in enumerate(elements):
            if m != one:
                assert list(_admissible(mul, one, m, generators, cells)) == [
                    chi for chi, ok in zip(characters, closed) if ok and chi[i] == -1]
        checked += len(characters)
    assert len(groups) > 400 and checked > 2500


def assert_sg_reports_agree(maps):
    seen = 0
    for f in maps:
        report = spg.check_sg_morphism(f)
        assert report == reference_audits.check_sg_morphism(f)
        assert report.overall == reference_audits.is_sg_morphism(f)
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
