import dataclasses
import itertools
import operator

import pytest

from multialg import core
from multialg import io as mio
from multialg import ordering_spaces as osp
from multialg import real_semigroups as rsg
from multialg import special_groups as spg
from multialg import spectra
from multialg.constructions import product
from multialg.core import (
    Carrier,
    FiniteMultigroup,
    FiniteMultiring,
    InputError,
    StructureMap,
    check_morphism,
    check_multigroup,
    check_multiring,
    check_relational_axioms,
    check_relational_lemmas,
    classify,
    embedding_kind,
    find_isomorphism,
    from_relational,
    group_as_multigroup,
    kernel_mask,
    krasner,
    q2,
    ring_multiring,
    to_relational,
)


def q2_additive():
    return q2().additive_multigroup()


class TestMultigroupAxioms:
    def test_q2_additive_passes(self):
        report = check_multigroup(q2_additive())
        assert report.overall
        assert [v.axiom for v in report.verdicts] == [
            "i-reversibility", "ii-identity", "iii-associativity",
            "iv-commutativity"]

    def test_group_wrapped_as_singletons_passes(self):
        z4 = group_as_multigroup(("0", "1", "2", "3"),
                                 lambda a, b: (a + b) % 4,
                                 lambda a: (-a) % 4, 0)
        assert check_multigroup(z4).overall

    def test_altered_identity_cell_fails_with_witness(self):
        m = q2_additive()
        # replace the cell 0 + 1 by {0}
        zero, one = m.identity, m.carrier.index("1")
        op = [list(r) for r in m.op]
        op[zero][one] = 1 << zero
        bad = FiniteMultigroup(m.carrier, tuple(tuple(r) for r in op),
                               m.inv, m.identity)
        verdict = check_multigroup(bad).verdict("ii-identity")
        assert not verdict.passed
        assert verdict.witness is not None
        # the witness re-verifies: membership and equality disagree there
        x, y = (bad.carrier.index(l) for l in verdict.witness)
        assert ((bad.op[bad.identity][x] >> y) & 1) != (x == y)

    def test_empty_cell_is_input_error_not_axiom_failure(self):
        with pytest.raises(InputError, match="empty"):
            FiniteMultigroup(Carrier(("a", "b")),
                             ((1, 0), (2, 1)), (0, 1), 0)

    def test_out_of_range_cell_is_input_error(self):
        with pytest.raises(InputError):
            FiniteMultigroup(Carrier(("a", "b")),
                             ((1, 4), (2, 1)), (0, 1), 0)


class TestRelationalPresentation:
    def test_q2_has_13_triples_and_roundtrips(self):
        m = q2_additive()
        rel = to_relational(m)
        assert len(rel.pi) == sum(cell.bit_count()
                                  for row in m.op for cell in row) == 13
        assert from_relational(rel) == m

    def test_singleton_group_gives_group_graph(self):
        z2 = group_as_multigroup(("0", "1"), lambda a, b: (a + b) % 2,
                                 lambda a: a, 0)
        rel = to_relational(z2)
        assert rel.pi == frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)})
        assert from_relational(rel) == z2

    def test_missing_triples_raise_non_total(self):
        rel = to_relational(q2_additive())
        pruned = frozenset(t for t in rel.pi if t[:2] != (2, 2))
        bad = core.RelationalMultigroup(rel.carrier, pruned, rel.inv,
                                        rel.identity)
        with pytest.raises(InputError, match="non-total"):
            from_relational(bad)

    @pytest.mark.parametrize("bad, error, message", [
        ((0, 1), InputError, "triple (0, 1) outside carrier"),
        ((0, 1, 3), InputError, "triple (0, 1, 3) outside carrier"),
        ((0, 1, -1), InputError, "triple (0, 1, -1) outside carrier"),
        ((0, 1, "a"), TypeError,
         "'<=' not supported between instances of 'int' and 'str'"),
        (1, TypeError, "object of type 'int' has no len()"),
    ])
    def test_bad_triples_raise_as_one_at_a_time(self, bad, error, message):
        """The bulk check falls back to the per-triple loop, whose errors
        these are."""
        rel = to_relational(q2_additive())
        with pytest.raises(error) as raised:
            core.RelationalMultigroup(rel.carrier, rel.pi | {bad}, rel.inv,
                                      rel.identity)
        assert str(raised.value) == message

    def test_roundtrip_identity_corpus_wide(self, multigroups):
        for name, m in multigroups.items():
            assert from_relational(to_relational(m)) == m, name

    def test_lemmas_pass_on_q2_group_and_krasner(self):
        for m in (q2_additive(),
                  group_as_multigroup(("0", "1", "2"),
                                      lambda a, b: (a + b) % 3,
                                      lambda a: (-a) % 3, 0),
                  krasner().additive_multigroup()):
            report = check_relational_lemmas(to_relational(m))
            assert report.overall
            assert len(report.verdicts) == 6

    def test_lemmas_pass_corpus_wide(self, multigroups):
        for name, m in multigroups.items():
            assert check_relational_lemmas(to_relational(m)).overall, name

    def test_axiom_failure_reports_and_skips_lemmas(self):
        rel = to_relational(q2_additive())
        # claim that the identity plus itself reaches another element
        extra = (rel.identity, rel.identity, rel.carrier.index("-1"))
        bad = core.RelationalMultigroup(rel.carrier, rel.pi | {extra},
                                        rel.inv, rel.identity)
        assert not check_relational_axioms(bad).verdict("II-identity").passed
        report = check_relational_lemmas(bad)
        assert not report.overall
        axioms = {v.axiom for v in report.verdicts}
        assert "a-inverse-fixes-identity" not in axioms


class TestMultiringAxioms:
    def test_q2_passes_with_full_distributivity(self):
        report = check_multiring(q2())
        assert report.overall
        assert report.verdict("distributivity-full").passed

    def test_z6_passes(self):
        assert check_multiring(ring_multiring(6)).overall

    def test_broken_distributivity_detected_with_witness(self):
        m = q2()
        one = m.one
        add = [list(r) for r in m.add]
        add[one][one] = 1 << m.carrier.index("-1")
        bad = FiniteMultiring(m.carrier, tuple(tuple(r) for r in add),
                              m.mul, m.neg, m.zero, m.one)
        verdict = check_multiring(bad).verdict("distributivity-weak")
        assert not verdict.passed
        a, b, d = (bad.carrier.index(l) for l in verdict.witness)
        assert bad.mul_masks(bad.add[a][b], 1 << d) \
            & ~bad.add[bad.mul[a][d]][bad.mul[b][d]]

    def test_rings_up_to_order_8_pass_with_full_distributivity(self):
        rings = [ring_multiring(n) for n in range(1, 9)]
        rings.append(product([ring_multiring(2), ring_multiring(2)]))
        rings.append(product([ring_multiring(2), ring_multiring(4)]))
        for r in rings:
            report = check_multiring(r)
            assert report.overall
            assert report.verdict("distributivity-full").passed

    def test_full_distributivity_on_corpus_multifields(self, multifields):
        for name, f in multifields.items():
            assert check_multiring(f).verdict("distributivity-full").passed, name


class TestClassify:
    def test_q2_and_krasner_are_multifields(self):
        assert classify(q2()).multifield
        assert classify(krasner()).multifield

    def test_z6_is_multiring_only(self):
        flags = classify(ring_multiring(6))
        assert flags.multiring and not flags.multidomain and not flags.multifield

    def test_product_of_multifields_is_not_one(self):
        # (1,0) has no inverse and (1,0)(0,1) = 0
        flags = classify(product([q2(), ring_multiring(2)]))
        assert not flags.multidomain and not flags.multifield

    def test_classify_rejects_invalid_structures(self):
        m = q2()
        add = [list(r) for r in m.add]
        add[m.one][m.one] = 1 << m.carrier.index("-1")
        bad = FiniteMultiring(m.carrier, tuple(tuple(r) for r in add),
                              m.mul, m.neg, m.zero, m.one)
        for _ in range(2):  # the second answer comes from the cached guard
            with pytest.raises(InputError,
                               match="^classify: structure fails the multiring audit$"):
                classify(bad)


class TestMorphisms:
    def test_identity_passes_corpus_wide(self, multirings):
        for name, r in multirings.items():
            assert check_morphism(core.identity_map(r)).overall, name

    def test_swap_map_fails_unit_condition(self):
        m = q2()
        swap = StructureMap(m, m, (2, 1, 0))
        report = check_morphism(swap)
        assert not report.verdict("v-one").passed

    def test_projection_from_product_passes(self):
        qq = product([q2(), q2()])
        proj = StructureMap(qq, q2(), tuple(
            q2().carrier.index(name[1:name.index(",")])
            for name in qq.names))
        assert check_morphism(proj).overall

    def test_composition_of_morphisms_passes(self):
        qq = product([q2(), q2()])
        diag = StructureMap(q2(), qq, tuple(
            qq.carrier.index(f"({n},{n})") for n in q2().names))
        proj = StructureMap(qq, q2(), tuple(
            q2().carrier.index(name[1:name.index(",")])
            for name in qq.names))
        comp = core.compose_maps(diag, proj)
        assert check_morphism(comp).overall
        assert comp.mapping == tuple(range(3))


class TestEmbeddingKinds:
    def test_identity_is_submultiring(self):
        assert embedding_kind(core.identity_map(q2())) == "submultiring"

    def test_diagonal_is_strongly_embedded(self):
        qq = product([q2(), q2()])
        diag = StructureMap(q2(), qq, tuple(
            qq.carrier.index(f"({n},{n})") for n in q2().names))
        assert embedding_kind(diag) == "strongly_embedded"

    def test_trivial_kernel_does_not_imply_injective(self):
        # a five-element real reduced multifield has morphisms onto the sign
        # multifield with kernel {0} that collapse elements
        from multialg.corpus import fan2_multifield
        from multialg.spectra import hom_to_q2
        f = fan2_multifield()
        homs = hom_to_q2(f)
        assert homs
        sign = homs[0]
        assert embedding_kind(sign) == "not_injective"
        assert kernel_mask(sign) == 1 << f.zero

    def test_non_morphism_rejected(self):
        m = q2()
        with pytest.raises(InputError):
            embedding_kind(StructureMap(m, m, (2, 1, 0)))


class TestIsomorphism:
    def test_relabeled_q2_found(self):
        m = q2()
        relabeled = FiniteMultiring(
            Carrier(("x", "y", "z")), m.add, m.mul, m.neg, m.zero, m.one)
        iso = find_isomorphism(m, relabeled)
        assert iso is not None and iso.mapping == (0, 1, 2)

    def test_permuted_q2_found_and_correct(self):
        m = q2()
        perm = (2, 0, 1)
        inv = [0] * 3
        for old, new in enumerate(perm):
            inv[new] = old
        permuted = FiniteMultiring(
            Carrier(("a", "b", "c")),
            tuple(tuple(core.mask_of(perm[c] for c in core.bits(m.add[inv[i]][inv[j]]))
                        for j in range(3)) for i in range(3)),
            tuple(tuple(perm[m.mul[inv[i]][inv[j]]] for j in range(3))
                  for i in range(3)),
            tuple(perm[m.neg[inv[i]]] for i in range(3)),
            perm[m.zero], perm[m.one])
        iso = find_isomorphism(m, permuted)
        assert iso is not None
        assert check_morphism(iso).overall

    def test_q2_krasner_z3_pairwise_distinct(self):
        assert find_isomorphism(q2(), krasner()) is None
        assert find_isomorphism(q2(), ring_multiring(3)) is None
        assert find_isomorphism(q2(), product([q2(), q2()])) is None

    def test_symmetric(self, multirings):
        names = list(multirings)
        for a, b in itertools.combinations(names, 2):
            fwd = find_isomorphism(multirings[a], multirings[b]) is not None
            bwd = find_isomorphism(multirings[b], multirings[a]) is not None
            assert fwd == bwd, (a, b)


class TestCarrierValidation:
    def test_duplicate_labels(self):
        with pytest.raises(InputError, match="duplicate"):
            Carrier(("a", "a"))

    def test_size_cap(self):
        with pytest.raises(InputError, match="64"):
            Carrier(tuple(f"e{i}" for i in range(65)))

    def test_index_of_each_label(self):
        names = tuple(f"e{i}" for i in range(64))
        carrier = Carrier(names)
        assert [carrier.index(x) for x in names] == list(range(64))
        assert Carrier(("1", "0")).index("0") == 1

    @pytest.mark.parametrize("label", ["zz", ["0"], 0, None, ("0",)])
    def test_unknown_or_unhashable_label(self, label):
        with pytest.raises(InputError) as raised:
            Carrier(("0", "1")).index(label)
        assert str(raised.value) == f"unknown element label {label!r}"

    def test_carriers_compare_and_hash_by_names_only(self):
        used, fresh = Carrier(("a", "b")), Carrier(("a", "b"))
        assert used.index("b") == 1
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "Carrier(names=('a', 'b'))"
        assert used != Carrier(("b", "a"))


class TestEnumeratedStructureProperties:
    def test_all_small_multigroups_satisfy_the_relational_consequences(self):
        from multialg.enumeration import enumerate_structures
        small = enumerate_structures("multigroup", 3, up_to_iso=True)
        assert len(small) == 13
        for m in small:
            assert check_relational_lemmas(to_relational(m)).overall

    def test_order_two_multifields_are_exactly_the_known_pair(self):
        from multialg.enumeration import enumerate_structures
        found = [r for r in enumerate_structures("multifield", 2)
                 if r.size == 2]
        assert len(found) == 2
        assert any(core.is_isomorphic(r, ring_multiring(2)) for r in found)
        assert any(core.is_isomorphic(r, krasner()) for r in found)


class TestPresentationEquivalence:
    def test_axiom_sets_agree_across_presentations_under_mutation(self):
        """The table presentation satisfies i-iv exactly when its triple
        presentation satisfies I-IV, including on randomly damaged inputs."""
        import random
        rng = random.Random(99)
        base = [q2_additive(), krasner().additive_multigroup(),
                group_as_multigroup(("0", "1", "2"),
                                    lambda a, b: (a + b) % 3,
                                    lambda a: (-a) % 3, 0)]
        checked = 0
        for _ in range(80):
            m = rng.choice(base)
            op = [list(r) for r in m.op]
            x, y, z = (rng.randrange(m.size) for _ in range(3))
            cell = op[x][y] ^ (1 << z)
            if not cell:
                continue
            op[x][y] = cell
            mutant = FiniteMultigroup(m.carrier, tuple(tuple(r) for r in op),
                                      m.inv, m.identity)
            table_ok = check_multigroup(mutant).overall
            rel_ok = check_relational_axioms(to_relational(mutant)).overall
            assert table_ok == rel_ok
            checked += 1
        assert checked >= 40


class TestKeptValues:
    """Derived tables, constructions and audit reports are kept on the
    structure object they come from (``core._kept``), never on an equal
    copy, and the public audits run on every call."""

    def test_values_are_kept_per_object(self):
        f = osp.aos_to_mfred(osp.fan_aos(3))
        copy = dataclasses.replace(f)
        before = (hash(f), repr(f), mio.serialize(f))
        g, (space, _), s = spg.mf_to_sg(f), osp.mfred_to_aos(f), rsg.mrred_to_rs(f)
        ars, _ = osp.mrred_to_ars(f)
        positions = operator.attrgetter("_positions")  # a cached_property
        readers = (
            (f, (check_multiring, classify, spectra._ideals, spectra._orderings,
                 spg.mf_to_sg, osp.mfred_to_aos, rsg.mrred_to_rs,
                 spectra.is_real_reduced_mr, spectra.is_real_reduced_mf)),
            (g, (spg.check_sg, spg._pair_classes, spg._triple_relation, spg._sg6_witness)),
            (space, (osp.value_table, osp._product_table, positions)),
            (ars, (osp.value_table, osp.transversal_table, osp._product_table,
                   positions)),
            (s, (rsg.dt_table,)))
        keys = []
        for obj, reads in readers:
            values = [read(obj) for read in reads]
            names = {field.name for field in dataclasses.fields(obj)}
            kept = [key for key in vars(obj) if key not in names]
            assert len(kept) == len(reads), (type(obj).__name__, kept)
            keys += kept
            # a second read returns the kept value itself; an audit runs again
            for read, value in zip(reads, values):
                if read not in (check_multiring, spg.check_sg):
                    assert read(obj) is value, read.__name__
        # the fifteen kept values, the two kept audit reports and the
        # spaces' function positions: 18 keys
        assert len(set(keys)) == 18 and len(keys) == 21
        assert (hash(f), repr(f), mio.serialize(f)) == before
        assert f == copy and hash(f) == hash(copy)
        assert set(vars(copy)) == {field.name for field in dataclasses.fields(copy)}
        g2 = spg.mf_to_sg(copy)
        assert g2 == g and g2 is not g

    def test_public_audits_run_on_every_call(self, monkeypatch):
        audited = []
        report = core._multiring_report
        monkeypatch.setattr(core, "_multiring_report",
                            lambda r, *scans: audited.append(r) or report(r, *scans))
        r = ring_multiring(6)
        assert check_multiring(r) == check_multiring(r) and len(audited) == 2
        classify(r)  # reads the kept report
        assert len(audited) == 2
        fresh = ring_multiring(6)
        classify(fresh)
        classify(fresh)
        assert len(audited) == 3
        bad = FiniteMultiring(fresh.carrier, fresh.add, tuple(
            row if x != 2 else (row[0] ^ 1,) + row[1:] for x, row in enumerate(fresh.mul)),
            fresh.neg, fresh.zero, fresh.one)
        for _ in range(2):
            with pytest.raises(InputError):
                classify(bad)
        assert len(audited) == 4

        checked = []
        psg = spg.check_psg
        monkeypatch.setattr(spg, "check_psg", lambda g: checked.append(g) or psg(g))
        g = spg.mf_to_sg(osp.aos_to_mfred(osp.fan_aos(2)))
        assert spg.check_sg(g) == spg.check_sg(g) and len(checked) == 2
        spg.check_reduced(g)
        assert len(checked) == 2
