import itertools

import pytest

from multialg.core import InputError, StructureMap, is_isomorphic, q2, same_tables
from multialg.corpus import q2xq2, rs_3x3, rs_q2
from multialg.real_semigroups import (
    RealSemigroup,
    canonical_3,
    check_rs,
    check_rs_derived,
    check_rs_morphism,
    check_ts,
    dt_table,
    enumerate_rs_morphisms,
    hom_to_3,
    mr_rs_roundtrip,
    mrred_to_rs,
    rs_mr_roundtrip,
    rs_to_mrred,
    separation_audit,
    unique_rs_search_on_3,
)


def labels(s, mask):
    return set(s.carrier.labels(mask))


class TestCanonicalThree:
    def test_displayed_representation_table(self):
        s = canonical_3()
        c = s.carrier
        m, z, p = c.index("-1"), c.index("0"), c.index("1")
        assert labels(s, s.d[z][z]) == {"0"}
        for b, cc in ((z, p), (p, z), (p, p)):
            assert labels(s, s.d[b][cc]) == {"0", "1"}
        for b, cc in ((z, m), (m, z), (m, m)):
            assert labels(s, s.d[b][cc]) == {"0", "-1"}
        assert labels(s, s.d[p][m]) == {"-1", "0", "1"}
        assert labels(s, s.d[m][p]) == {"-1", "0", "1"}

    def test_displayed_transversal_table(self):
        s = canonical_3()
        c = s.carrier
        m, z, p = c.index("-1"), c.index("0"), c.index("1")
        dt = dt_table(s)
        assert labels(s, dt[z][z]) == {"0"}
        for b, cc in ((z, p), (p, z), (p, p)):
            assert labels(s, dt[b][cc]) == {"1"}
        for b, cc in ((z, m), (m, z), (m, m)):
            assert labels(s, dt[b][cc]) == {"-1"}
        assert labels(s, dt[p][m]) == {"-1", "0", "1"}

    def test_axioms_and_consequences(self):
        s = canonical_3()
        assert check_ts(s).overall
        assert check_rs(s).overall
        report = check_rs_derived(s)
        assert report.overall
        assert len(report.verdicts) == 18  # 17 items, one split in two

    def test_uniqueness_search_finds_exactly_one(self):
        count, survivor = unique_rs_search_on_3()
        assert count == 1
        assert survivor is not None
        assert survivor.d == canonical_3().d
        assert dt_table(survivor) == dt_table(canonical_3())


class TestMutations:
    def test_enlarged_d11_fails(self):
        s = canonical_3()
        c = s.carrier
        p, m = c.index("1"), c.index("-1")
        d = [list(r) for r in s.d]
        d[p][p] |= 1 << m
        bad = RealSemigroup(s.carrier, s.mul, s.one, s.zero, s.minus_one,
                            tuple(tuple(r) for r in d))
        report = check_rs(bad)
        assert not report.overall
        assert any(v.witness for v in report.failures())

    def test_every_single_triple_mutation_is_caught(self):
        s = canonical_3()
        flips = 0
        for b, c, a in itertools.product(range(3), repeat=3):
            d = [list(r) for r in s.d]
            d[b][c] ^= 1 << a
            bad = RealSemigroup(s.carrier, s.mul, s.one, s.zero, s.minus_one,
                                tuple(tuple(r) for r in d))
            assert not check_rs(bad).overall, (a, b, c)
            flips += 1
        assert flips == 27


class TestProductsAndDerived:
    def test_product_passes_everything(self):
        s = rs_3x3()
        assert check_rs(s).overall
        assert check_rs_derived(s).overall

    def test_derived_holds_corpus_wide(self, real_semigroups):
        for name, s in real_semigroups.items():
            assert check_rs(s).overall, name
            assert check_rs_derived(s).overall, name

    def test_transversal_is_contained_in_representation(self, real_semigroups):
        for name, s in real_semigroups.items():
            dt = dt_table(s)
            for a, b in itertools.product(range(s.size), repeat=2):
                assert not (dt[a][b] & ~s.d[a][b]), name
            # membership lifts to scaled transversal membership
            for b, c in itertools.product(range(s.size), repeat=2):
                for a in range(s.size):
                    if not (s.d[b][c] >> a) & 1:
                        continue
                    a2 = s.mul[a][a]
                    assert (dt[s.mul[a2][b]][s.mul[a2][c]] >> a) & 1, name


class TestHomsAndSeparation:
    def test_three_has_only_the_identity(self):
        homs = hom_to_3(canonical_3())
        assert len(homs) == 1
        assert homs[0].mapping == (0, 1, 2)

    def test_product_has_the_two_projections(self):
        assert len(hom_to_3(rs_3x3())) == 2

    def test_q2_as_semigroup_has_one(self):
        assert len(hom_to_3(rs_q2())) == 1

    def test_separation_corpus_wide(self, real_semigroups):
        for name, s in real_semigroups.items():
            report = separation_audit(s)
            assert report.overall, name
            assert [v.axiom for v in report.verdicts] == [
                "i-representation-pointwise", "ii-transversal-pointwise",
                "iii-points-separated"]


class TestToMultiringsAndBack:
    def test_three_becomes_the_sign_multifield(self):
        a = rs_to_mrred(canonical_3())
        assert is_isomorphic(a, q2())

    def test_product_becomes_the_product(self):
        assert is_isomorphic(rs_to_mrred(rs_3x3()), q2xq2())

    def test_q2_back_and_forth(self):
        s = mrred_to_rs(q2())
        assert check_rs(s).overall
        c = s.carrier
        p = c.index("1")
        assert labels(s, s.d[p][p]) == {"0", "1"}

    def test_roundtrips_table_exact(self, real_semigroups):
        for name, s in real_semigroups.items():
            assert rs_mr_roundtrip(s).overall, name

    def test_multiring_roundtrips_table_exact(self, real_reduced_mrs):
        for name, a in real_reduced_mrs.items():
            assert mr_rs_roundtrip(a).overall, name

    def test_three_roundtrip_is_the_identity(self):
        s = canonical_3()
        assert same_tables(mrred_to_rs(rs_to_mrred(s)), s)

    def test_non_reduced_multiring_rejected(self):
        from multialg.core import ring_multiring
        from multialg.core import StructuralAnomaly
        with pytest.raises((InputError, StructuralAnomaly)):
            mrred_to_rs(ring_multiring(6))


class TestFunctorOnMorphisms:
    def test_hom_sets_are_preserved(self, real_semigroups):
        names = list(real_semigroups)
        from multialg.core import enumerate_multiring_morphisms
        for na, nb in itertools.product(names, repeat=2):
            sa, sb = real_semigroups[na], real_semigroups[nb]
            rs_homs = {f.mapping for f in enumerate_rs_morphisms(sa, sb)}
            mr_homs = {f.mapping for f in enumerate_multiring_morphisms(
                rs_to_mrred(sa), rs_to_mrred(sb))}
            assert rs_homs == mr_homs, (na, nb)

    def test_identity_and_composition(self):
        s, t = canonical_3(), rs_3x3()
        ident = StructureMap(s, s, (0, 1, 2))
        assert check_rs_morphism(ident).overall
        homs = enumerate_rs_morphisms(t, s)
        ident_t = StructureMap(t, t, tuple(range(t.size)))
        for f in homs:
            comp = StructureMap(t, s, tuple(f.mapping[v]
                                            for v in ident_t.mapping))
            assert check_rs_morphism(comp).overall
