import dataclasses
import os
import random

import pytest

import reference_audits as reference
import reference_searches
from multialg import spectra
from multialg.core import (
    Carrier,
    FiniteMultiring,
    InputError,
    bits,
    check_multiring,
    check_morphism,
    check_multigroup,
    is_isomorphic,
    krasner,
    mask_of,
    q2,
    ring_multiring,
)
from multialg.corpus import (
    corpus_multirings,
    corpus_real_reduced_multifields,
    fan2_multifield,
    q2cube,
    q2xq2,
    trivial_sg_multifield,
)
from multialg.enumeration import enumerate_structures
from multialg.ordering_spaces import aos_to_mfred, fan_aos
from multialg.spectra import (
    Ordering,
    Preordering,
    check_quotient_characterizations,
    enumerate_ideals,
    enumerate_maximals,
    enumerate_orderings,
    enumerate_preorderings,
    enumerate_primes,
    hom_to_q2,
    is_real,
    is_real_reduced_mf,
    is_real_reduced_mr,
    ordering_hom_bijection_check,
    preordering_intersection_check,
    q_t,
    reduced_characterizations_check,
    spec_topology,
    sper_embedding_check,
    sums_of_squares_set,
    _evaluation_defects,
)


class TestIdealEnumeration:
    def test_z6_has_the_four_classical_ideals(self):
        z6 = ring_multiring(6)
        ideals = {i.labels for i in enumerate_ideals(z6)}
        assert ideals == {("0",), ("0", "3"), ("0", "2", "4"),
                          ("0", "1", "2", "3", "4", "5")}
        assert {i.labels for i in enumerate_primes(z6)} \
            == {("0", "3"), ("0", "2", "4")}
        assert {i.labels for i in enumerate_maximals(z6)} \
            == {("0", "3"), ("0", "2", "4")}

    def test_q2_has_only_the_zero_prime(self):
        primes = enumerate_primes(q2())
        assert [p.labels for p in primes] == [("0",)]
        assert [p.labels for p in enumerate_maximals(q2())] == [("0",)]

    def test_q2xq2_has_the_two_axis_primes(self):
        primes = {p.labels for p in enumerate_primes(q2xq2())}
        assert primes == {("(0,-1)", "(0,0)", "(0,1)"),
                          ("(-1,0)", "(0,0)", "(1,0)")}

    def test_quotient_characterizations_corpus_wide(self, multirings):
        for name, r in multirings.items():
            if r.size > 9:
                continue
            assert check_quotient_characterizations(r).overall, name


class TestSpecTopology:
    def test_z6_basic_opens(self):
        report = spec_topology(ring_multiring(6))
        primes = [p.labels for p in report.primes]
        d2 = [primes[i] for i in report.basic_opens["2"]]
        d3 = [primes[i] for i in report.basic_opens["3"]]
        assert d2 == [("0", "3")]
        assert d3 == [("0", "2", "4")]
        assert report.report.overall

    def test_field_case_is_a_point(self):
        report = spec_topology(ring_multiring(5))
        assert len(report.primes) == 1
        for name in "1234":
            assert report.basic_opens[name] == (0,)
        assert report.basic_opens["0"] == ()
        assert report.report.overall

    def test_relations_hold_corpus_wide(self, multirings):
        for name, r in multirings.items():
            assert spec_topology(r).report.overall, name

    def test_relation_vectors_require_absorption(self):
        # on the sign multifield the vector vanishing on {-1, 0} satisfies
        # the sum rule and multiplicativity on the positives, but its zero
        # set is not an ideal; the audit must not admit it
        report = spec_topology(q2())
        assert len(report.primes) == 1
        assert report.report.verdict("relation-vectors-are-primes").passed


class TestHomsToSign:
    def test_q2_has_only_the_identity(self):
        homs = hom_to_q2(q2())
        assert len(homs) == 1 and homs[0].mapping == (0, 1, 2)

    def test_q2xq2_has_the_two_projections(self):
        homs = hom_to_q2(q2xq2())
        assert len(homs) == 2
        qq = q2xq2()
        sign = q2()
        for f in homs:
            assert check_morphism(f).overall
        maps = {f.mapping for f in homs}
        proj1 = tuple(sign.carrier.index(n[1:n.index(",")]) for n in qq.names)
        proj2 = tuple(sign.carrier.index(n[n.index(",") + 1:-1]) for n in qq.names)
        assert maps == {proj1, proj2}

    def test_krasner_and_z6_have_none(self):
        assert hom_to_q2(krasner()) == []
        assert hom_to_q2(ring_multiring(6)) == []


class TestOrderings:
    def test_q2_has_exactly_the_nonnegative_cone(self):
        orderings = enumerate_orderings(q2())
        assert [o.labels for o in orderings] == [("0", "1")]

    def test_krasner_has_none(self):
        assert enumerate_orderings(krasner()) == []

    def test_q2xq2_has_two(self):
        assert len(enumerate_orderings(q2xq2())) == 2

    def test_q2cube_has_three(self):
        assert len(enumerate_orderings(q2cube())) == 3

    def test_bijection_with_homs_corpus_wide(self, multirings):
        structures = dict(multirings)
        structures["q2cube"] = q2cube()
        for name, r in structures.items():
            assert ordering_hom_bijection_check(r).overall, name

    def test_invalid_cone_rejected(self):
        with pytest.raises(InputError):
            Ordering(q2(), 0b111)  # everything: support is not prime

    def test_computed_once_per_structure(self, monkeypatch):
        """Each call gets its own list of the one tuple kept on the
        structure, found by one cone search; an equal copy searches anew."""
        a = dataclasses.replace(q2cube())
        searched = []
        search = spectra._sign_cones
        monkeypatch.setattr(spectra, "_sign_cones",
                            lambda *tables: searched.append(tables) or search(*tables))
        first = enumerate_orderings(a)
        first.clear()
        again = enumerate_orderings(a)
        assert len(again) == 3 and again is not enumerate_orderings(a)
        assert len(searched) == 1
        assert enumerate_orderings(dataclasses.replace(a)) == again
        assert len(searched) == 2


class TestPreorderings:
    def test_q2_proper_preordering_is_its_ordering(self):
        pre = [t for t in enumerate_preorderings(q2()) if t.proper]
        assert [t.labels for t in pre] == [("0", "1")]
        report = preordering_intersection_check(q2(), pre[0])
        assert report.overall

    def test_every_proper_preordering_is_an_ordering_intersection(
            self, multifields):
        checked = 0
        for name, f in multifields.items():
            for t in enumerate_preorderings(f):
                if not t.proper:
                    continue
                assert preordering_intersection_check(f, t).overall, \
                    (name, t.labels)
                checked += 1
        assert checked >= 3

    def test_improper_cone_is_skipped_with_note(self):
        t = Preordering(q2(), 0b111)
        report = preordering_intersection_check(q2(), t)
        assert report.overall
        assert "skipped" in report.verdicts[0].note

    def test_preordering_of_another_multiring_is_refused(self):
        """Each proper preordering of q2 x q2 is refused on q2 by the
        intersection check and by q_t, as a multiplicative set or an ideal
        of another multiring is by the quotients."""
        cones = [t for t in enumerate_preorderings(q2xq2()) if t.proper]
        assert len(cones) == 3
        for t in cones:
            for call in (preordering_intersection_check, q_t):
                with pytest.raises(InputError,
                                   match="^preordering does not belong to "
                                         "this multiring$"):
                    call(q2(), t)


class TestRealness:
    def test_reality_flags(self):
        assert is_real(q2())
        assert not is_real(krasner())
        assert not is_real(ring_multiring(5))
        assert is_real(q2xq2())

    def test_real_reduced_multifield(self):
        assert is_real_reduced_mf(q2()).overall
        report = is_real_reduced_mf(krasner())
        # 0 lies in 1+1 but is not 1
        assert not report.verdict("one-plus-one-rigid").passed
        assert not is_real_reduced_mf(trivial_sg_multifield()).overall

    def test_real_reduced_multiring(self):
        assert is_real_reduced_mr(q2xq2()).overall
        assert not is_real_reduced_mr(ring_multiring(6)).overall
        assert not is_real_reduced_mr(ring_multiring(4)).overall

    def test_multifield_required(self):
        with pytest.raises(InputError):
            is_real_reduced_mf(ring_multiring(6))


def _shuffled(r, rng):
    """Copy of multiring r with element x moved to a seeded index perm[x]."""
    n = r.size
    perm = rng.sample(range(n), n)
    old = sorted(range(n), key=perm.__getitem__)
    return FiniteMultiring(
        Carrier(tuple(r.names[x] for x in old)),
        tuple(tuple(mask_of(perm[c] for c in bits(r.add[x][y])) for y in old)
              for x in old),
        tuple(tuple(perm[r.mul[x][y]] for y in old) for x in old),
        tuple(perm[r.neg[x]] for x in old), perm[r.zero], perm[r.one])


def _cell_mutants(base, rng, count):
    """Seeded copies of base with one add or one mul cell changed."""
    n = base.size
    for _ in range(count):
        i, j = rng.randrange(n), rng.randrange(n)
        field = "add" if rng.random() < 0.5 else "mul"
        value = rng.randrange(1, 1 << n) if field == "add" else rng.randrange(n)
        table = [list(row) for row in getattr(base, field)]
        table[i][j] = value
        yield dataclasses.replace(base, **{field: tuple(map(tuple, table))})


def _moved_audit_inputs():
    """The corpus, every labelled multiring of order <= 3 and every
    candidate table the enumeration audits there, shuffled prime fields and
    seeded one-cell mutants, most of which fail ``check_multiring``."""
    rng = random.Random(42)
    bases = [*corpus_multirings().values(), *corpus_real_reduced_multifields().values()]
    inputs = bases + enumerate_structures("multiring", 3, up_to_iso=False)
    inputs += reference_searches.candidate_multirings()
    inputs += [_shuffled(ring_multiring(p), rng) for p in (5, 7, 11, 13) for _ in range(4)]
    for base in bases:
        inputs += _cell_mutants(base, rng, 30)
    return inputs


def _outcome(audit, a):
    try:
        return audit(a)
    except InputError as error:
        return str(error)


class TestMovedAudits:
    """``is_real_reduced_mr`` and ``is_real_reduced_mf`` read core's
    ``_cube_defect``, and ``spec_topology`` tests each prime vector for
    membership among the relation vectors of ``_enumerate_relation_vectors``.
    Each must return the report of its moved loop in ``reference_audits``."""

    def test_real_reduced_audits(self):
        cubes, mf_cubes = set(), set()
        for a in _moved_audit_inputs():
            report = is_real_reduced_mr(a)
            assert report == reference.is_real_reduced_mr(a)
            mf = _outcome(is_real_reduced_mf, a)
            assert mf == _outcome(reference.is_real_reduced_mf, a)
            cubes.add(report.verdict("cube-identity").witness)
            if not isinstance(mf, str):
                mf_cubes.add(mf.verdict("cube-identity").witness)
        assert len(cubes) > 8 and len(mf_cubes) > 4

    def test_spec_topology(self):
        failing = forward = 0
        for a in _moved_audit_inputs():
            found = spec_topology(a)
            assert found == reference.spec_topology(a)
            failing += not check_multiring(a).overall
            forward += not found.report.verdict("prime-vectors-satisfy-relations").passed
        assert failing > 500 and forward > 10


class TestReducedCharacterizations:
    def test_q2_all_three_true(self):
        report = reduced_characterizations_check(q2())
        assert report.overall
        for axiom in ("projection-is-isomorphism", "sums-of-squares-are-0-1",
                      "elementwise-conditions"):
            assert report.verdict(axiom).passed

    def test_trivial_sg_multifield_all_three_false_agreeing(self):
        report = reduced_characterizations_check(trivial_sg_multifield())
        for axiom in ("projection-is-isomorphism", "sums-of-squares-are-0-1",
                      "elementwise-conditions"):
            assert not report.verdict(axiom).passed
        assert "observed agreement: True" in report.verdict("three-way-agreement").note

    def test_agreement_asserted_on_real_corpus_multifields(
            self, multifields, real_reduced_mfs):
        for name, f in {**multifields, **real_reduced_mfs}.items():
            report = reduced_characterizations_check(f)
            assert report.verdict("three-way-agreement").passed, name
            if is_real(f):
                assert report.verdict("three-way-agreement").note == "asserted"

    def test_sums_of_squares_of_q2(self):
        assert q2().carrier.labels(sums_of_squares_set(q2())) == ("0", "1")


class TestSperEmbedding:
    def test_q2_embeds_identically(self):
        report = sper_embedding_check(q2())
        assert report.overall
        assert report.verdict("materialized-embedding").passed

    def test_q2xq2_strongly_embeds_in_the_square(self):
        assert sper_embedding_check(q2xq2()).overall

    def test_every_real_reduced_corpus_structure_embeds(
            self, real_reduced_mfs, real_reduced_mrs):
        for name, r in {**real_reduced_mfs, **real_reduced_mrs}.items():
            report = sper_embedding_check(r)
            assert report.verdict("injective").passed, name
            assert report.verdict("morphism").passed, name
            assert report.verdict("strong").passed, name

    def test_non_reduced_input_is_a_precondition_error(self):
        with pytest.raises(InputError):
            sper_embedding_check(ring_multiring(6))

    def test_defect_masks_match_the_moved_loops(self):
        """The morphism and strong witnesses of the meet over the sign maps
        equal those of the per-(x, y, c, sigma) loops, on random sign vectors
        and on the real sign maps of real reduced structures and of their
        one-cell addition mutants."""
        rng = random.Random(19)
        bases = [q2(), q2xq2(), fan2_multifield(), aos_to_mfred(fan_aos(3)),
                 krasner(), ring_multiring(5), q2cube()]
        failing = 0
        for base in bases:
            n = base.size
            real = [o.sign_map().mapping for o in enumerate_orderings(base)]
            for trial in range(20 if n > 9 else 100):
                a = base
                if trial % 2:
                    i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                    if a.add[i][j] ^ (1 << v):
                        add = [list(row) for row in a.add]
                        add[i][j] ^= 1 << v
                        a = dataclasses.replace(
                            a, add=tuple(tuple(row) for row in add))
                if trial % 3 == 2 and real:
                    sigmas = rng.sample(real, rng.randint(1, len(real)))
                else:
                    sigmas = [tuple(rng.randrange(3) for _ in range(n))
                              for _ in range(rng.randrange(4))]
                got = tuple(w and tuple(a.names[i] for i in w)
                            for w in _evaluation_defects(a, sigmas))
                assert got == reference.evaluation_witnesses(a, sigmas)
                failing += got != (None, None)
        assert failing > 300


class TestQT:
    def test_qt_of_q2_at_its_ordering_is_q2(self):
        t = Preordering(q2(), 0b010 | (1 << q2().carrier.index("1")))
        reduced, proj = q_t(q2(), t)
        assert is_isomorphic(reduced, q2())

    def test_qt_of_fan2_multifield_at_a_big_cone(self):
        f = fan2_multifield()
        # positive cone of one ordering, as a preordering
        orderings = enumerate_orderings(f)
        t = Preordering(f, orderings[0].positive)
        reduced, proj = q_t(f, t)
        assert is_isomorphic(reduced, q2())
        assert check_morphism(proj).overall


class TestOrderingEnumerationOracle:
    def test_dfs_matches_naive_subset_scan_on_all_small_multirings(self):
        """The pruned pair-orbit search agrees with the raw 2^n scan on every
        multiring with up to three elements."""
        from multialg.enumeration import enumerate_structures
        for r in enumerate_structures("multiring", 3, up_to_iso=True):
            naive = []
            for pmask in range(1, 1 << r.size):
                try:
                    naive.append(Ordering(r, pmask).positive)
                except InputError:
                    continue
            got = [o.positive for o in enumerate_orderings(r)]
            assert got == sorted(naive)

    def test_dfs_matches_naive_scan_on_corpus(self, multirings):
        for name, r in multirings.items():
            if r.size > 6:
                continue
            naive = []
            for pmask in range(1, 1 << r.size):
                try:
                    naive.append(Ordering(r, pmask).positive)
                except InputError:
                    continue
            got = [o.positive for o in enumerate_orderings(r)]
            assert got == sorted(naive), name


class TestProductPreordering:
    def test_sums_of_squares_cone_of_the_product_is_an_ordering_intersection(self):
        """On the product of two sign multifields the sums-of-squares cone is
        the componentwise nonnegative set, and it equals the intersection of
        the two orderings (computed independently above the check)."""
        from multialg.corpus import q2xq2
        from multialg.spectra import sums_of_squares_set
        qq = q2xq2()
        t_mask = sums_of_squares_set(qq)
        assert set(qq.carrier.labels(t_mask)) \
            == {"(0,0)", "(0,1)", "(1,0)", "(1,1)"}
        t = Preordering(qq, t_mask)
        assert t.proper
        orderings = enumerate_orderings(qq)
        meet = (1 << qq.size) - 1
        for o in orderings:
            meet &= o.positive
        assert meet == t_mask
        assert preordering_intersection_check(qq, t).overall


def test_quotient_and_multigroup_verdicts_are_documented():
    """docs/axioms.md has a table row for every verdict that
    check_quotient_characterizations and check_multigroup report."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "axioms.md")
    with open(path, encoding="utf-8") as fh:
        rows = {line.split("|")[1].strip() for line in fh if line.startswith("| `")}
    reports = [check_quotient_characterizations(ring_multiring(6)),
               check_multigroup(krasner().additive_multigroup())]
    names = {f"`{v.axiom}`" for report in reports for v in report.verdicts}
    assert len(names) == 7
    assert names <= rows
