import dataclasses
import itertools
import os
import random

import pytest

import reference_audits as reference
from multialg import io as mio
from multialg import special_groups as spg
from multialg.cli import main
from multialg.core import (
    InputError,
    StructureMap,
    check_morphism,
    classify,
    check_multiring,
    is_isomorphic,
    krasner,
    q2,
    ring_multiring,
    same_tables,
)
from multialg import corpus
from multialg.corpus import (
    corpus_special_groups,
    fan2_multifield,
    sg_z2_reduced,
    sg_z2_trivial,
    sg_z22_trivial,
    sg_z23_trivial,
    trivial_sg_multifield,
)
from multialg.ordering_spaces import aos_to_mfred, fan_aos
from multialg.special_groups import (
    SpecialGroup,
    check_psg,
    check_reduced,
    check_sg,
    check_sg789,
    check_sg_morphism,
    check_smf,
    enumerate_sg_morphisms,
    make_special_group,
    mf_map_to_sg_map,
    mf_to_sg,
    represented,
    sg_map_to_mf_map,
    sg_of_finite_field,
    sg_smf_roundtrip,
    sg_to_mf,
    smf_sg_roundtrip,
    trivial_special_group,
)


class TestAxioms:
    def test_trivial_sg_on_z2_passes_but_is_not_reduced(self):
        g = sg_z2_trivial()
        assert check_sg(g).overall
        report = check_reduced(g)
        # (-1,-1) is isometric to (1,1) because the products agree
        assert not report.verdict("reduced-diagonal-rigid").passed
        assert represented(g, 0, 0) == 0b11  # D(1,1) = {1,-1}

    def test_smallest_closure_on_z2_is_reduced(self):
        g = sg_z2_reduced()
        assert check_sg(g).overall
        assert check_reduced(g).overall
        assert g.carrier.labels(represented(g, g.one, g.one)) == ("1",)

    def test_injected_sg3_violation_is_caught(self):
        g = trivial_special_group(("1", "-1"), [["1", "-1"], ["-1", "1"]], "-1")
        quads = [(g.names[a], g.names[b], g.names[c], g.names[d])
                 for (a, b, c, d) in g.iso]
        quads.append(("1", "1", "1", "-1"))  # products 1 and -1 differ
        bad = make_special_group(("1", "-1"), [["1", "-1"], ["-1", "1"]],
                                 "-1", quads)
        verdict = check_psg(bad).verdict("SG3-discriminant")
        assert not verdict.passed
        a, b, c, d = (bad.carrier.index(l) for l in verdict.witness)
        assert bad.mul[a][b] != bad.mul[c][d]

    def test_non_exponent_2_group_is_an_input_error(self):
        with pytest.raises(InputError, match="exponent 2"):
            make_special_group(("0", "1", "2"),
                               [["0", "1", "2"], ["1", "2", "0"],
                                ["2", "0", "1"]], "1", [])

    def test_closure_reports_added_quadruples(self):
        g = make_special_group(("1", "-1"), [["1", "-1"], ["-1", "1"]],
                               "-1", [("1", "-1", "-1", "1")])
        assert g.closure_added > 0
        assert check_psg(g).verdict("SG0-equivalence").passed


class TestSG789:
    def test_agreement_on_corpus(self, special_groups):
        for name, g in special_groups.items():
            report = check_sg789(g)
            assert report.verdict("SG6-iff-SG7-and-SG8").passed, name
            assert report.verdict("SG6-iff-SG9").passed, name

    def test_exhaustive_order_4_relations_agree(self):
        """Every SG0-SG5 relation on the Klein group (either choice of -1)
        satisfies the three-way agreement; the exhaustive scan doubles as a
        search for pre-special groups that fail 3-transitivity, and finds
        that none exist at this order."""
        names = ("1", "a", "b", "ab")
        mul = [["1", "a", "b", "ab"], ["a", "1", "ab", "b"],
               ["b", "ab", "1", "a"], ["ab", "b", "a", "1"]]
        idx = {n: i for i, n in enumerate(names)}
        mul_i = [[idx[v] for v in row] for row in mul]
        pairs = [(x, y) for x in range(4) for y in range(4)]
        fibers: dict[int, list] = {}
        for (x, y) in pairs:
            fibers.setdefault(mul_i[x][y], []).append((x, y))

        def set_partitions(items):
            if not items:
                yield []
                return
            first, rest = items[0], items[1:]
            for part in set_partitions(rest):
                for i in range(len(part)):
                    yield part[:i] + [[first] + part[i]] + part[i + 1:]
                yield [[first]] + part

        def swap_closed(parts):
            for block in parts:
                s = set(block)
                if any((y, x) not in s for (x, y) in s):
                    return False
            return True

        found_psg = 0
        for minus_one in ("a",):
            options = []
            for fiber in fibers.values():
                options.append([p for p in set_partitions(fiber)
                                if swap_closed(p)])
            for combo in itertools.product(*options):
                quads = []
                for parts in combo:
                    for block in parts:
                        for p, q in itertools.product(block, repeat=2):
                            quads.append((names[p[0]], names[p[1]],
                                          names[q[0]], names[q[1]]))
                g = make_special_group(names, mul, minus_one, quads)
                if g.closure_added:
                    continue
                if not check_psg(g).overall:
                    continue
                found_psg += 1
                report = check_sg789(g)
                assert report.verdict("SG6-iff-SG7-and-SG8").passed
                assert report.verdict("SG6-iff-SG9").passed
                # none of the order-4 pre-special groups fails SG9
                assert report.verdict("SG9").passed
        assert found_psg == 5


class TestFunctorToMultifields:
    def test_reduced_z2_gives_the_sign_multifield(self):
        f = sg_to_mf(sg_z2_reduced())
        assert is_isomorphic(f, q2())
        assert check_smf(f).overall

    def test_trivial_z2_gives_the_three_element_multifield(self):
        f = sg_to_mf(sg_z2_trivial())
        assert f.size == 3
        one = f.one
        assert set(f.carrier.labels(f.add[one][one])) == {"1", "-1"}
        assert classify(f).multifield and check_smf(f).overall

    def test_trivial_z22_gives_a_five_element_multifield(self):
        f = sg_to_mf(sg_z22_trivial())
        assert f.size == 5
        assert check_multiring(f).overall and classify(f).multifield
        assert check_smf(f).overall

    def test_images_pass_everything_corpus_wide(self, special_groups):
        for name, g in special_groups.items():
            f = sg_to_mf(g)
            assert check_multiring(f).overall, name
            assert classify(f).multifield, name
            assert check_smf(f).overall, name

    def test_zero_label_collision_is_an_input_error(self):
        g = trivial_special_group(("0", "x"), [["0", "x"], ["x", "0"]], "x")
        with pytest.raises(InputError, match="collides"):
            sg_to_mf(g)


class TestSpecialMultifields:
    def test_q2_passes(self):
        assert check_smf(q2()).overall

    def test_krasner_passes_with_a_one_element_group(self):
        # 1+1 = {0,1} is all of the carrier, so the opposite-sum condition
        # holds; the associated special group is the one-element group with
        # -1 = 1
        assert check_smf(krasner()).overall
        g = mf_to_sg(krasner())
        assert g.size == 1 and g.minus_one == g.one
        assert check_sg(g).overall

    def test_z5_fails_unit_squares(self):
        report = check_smf(ring_multiring(5))
        assert not report.verdict("i-unit-squares").passed

    def test_z3_fails_opposite_sums(self):
        report = check_smf(ring_multiring(3))
        assert not report.verdict("ii-full-opposite-sums").passed


class TestBackAndForth:
    def test_sg_of_q2_is_the_reduced_z2(self):
        assert same_tables(mf_to_sg(q2()), sg_z2_reduced())

    def test_sg_of_trivial_multifield_is_the_trivial_z2(self):
        assert same_tables(mf_to_sg(trivial_sg_multifield()), sg_z2_trivial())

    def test_roundtrips_table_exact_corpus_wide(self, special_groups):
        for name, g in special_groups.items():
            assert sg_smf_roundtrip(g).overall, name

    def test_smf_roundtrips_table_exact(self, multifields):
        for name, f in multifields.items():
            if not check_smf(f).overall:
                continue
            assert smf_sg_roundtrip(f).overall, name

    def test_reduced_iff_image_real_reduced(self, special_groups):
        from multialg.spectra import is_real_reduced_mf
        for name, g in special_groups.items():
            assert check_reduced(g).overall \
                == is_real_reduced_mf(sg_to_mf(g)).overall, name


class TestFunctorLaws:
    PAIR_NAMES = ("sg_z2_reduced", "sg_z2_trivial", "sg_z22_trivial",
                  "sg_z22_reduced")

    def test_identities_map_to_identities(self, special_groups):
        for name in self.PAIR_NAMES:
            g = special_groups[name]
            ident = StructureMap(g, g, tuple(range(g.size)))
            mf = sg_to_mf(g)
            lifted = sg_map_to_mf_map(ident, mf, mf)
            assert lifted.mapping == tuple(range(mf.size))

    def test_morphisms_lift_compose_and_stay_faithful(self, special_groups):
        groups = {n: special_groups[n] for n in self.PAIR_NAMES}
        mfs = {n: sg_to_mf(g) for n, g in groups.items()}
        for (na, ga), (nb, gb) in itertools.product(groups.items(), repeat=2):
            homs = enumerate_sg_morphisms(ga, gb)
            lifted = [sg_map_to_mf_map(f, mfs[na], mfs[nb]) for f in homs]
            for f, mf in zip(homs, lifted):
                assert check_morphism(mf).overall, (na, nb)
                # S(M(f)) = f
                back = mf_map_to_sg_map(mf, ga, gb)
                assert back.mapping == f.mapping
            # faithfulness: distinct morphisms lift to distinct morphisms
            assert len({m.mapping for m in lifted}) == len(homs), (na, nb)
            for (nc, gc) in groups.items():
                for f in homs:
                    for g2 in enumerate_sg_morphisms(gb, gc):
                        comp = StructureMap(ga, gc, tuple(
                            g2.mapping[v] for v in f.mapping))
                        lift_comp = sg_map_to_mf_map(comp, mfs[na], mfs[nc])
                        step = sg_map_to_mf_map(f, mfs[na], mfs[nb])
                        step2 = sg_map_to_mf_map(g2, mfs[nb], mfs[nc])
                        composed = tuple(step2.mapping[v] for v in step.mapping)
                        assert lift_comp.mapping == composed

    def test_every_multifield_morphism_restricts(self, multifields):
        from multialg.core import enumerate_multiring_morphisms
        smfs = {n: f for n, f in multifields.items() if check_smf(f).overall}
        sgs = {n: mf_to_sg(f) for n, f in smfs.items()}
        for (na, fa), (nb, fb) in itertools.product(smfs.items(), repeat=2):
            for sigma in enumerate_multiring_morphisms(fa, fb):
                restricted = mf_map_to_sg_map(sigma, sgs[na], sgs[nb])
                assert check_sg_morphism(restricted).overall, (na, nb)

    def test_restricting_a_map_that_kills_a_nonzero_element_is_refused(self):
        f = fan2_multifield()
        g = mf_to_sg(f)
        constant_zero = StructureMap(f, f, (f.zero,) * f.size)
        with pytest.raises(InputError, match="nonzero element maps to zero"):
            mf_map_to_sg_map(constant_zero, g, g)

    def test_sg_morphism_counts_between_z2_groups(self):
        assert len(enumerate_sg_morphisms(sg_z2_reduced(), sg_z2_trivial())) == 1
        assert len(enumerate_sg_morphisms(sg_z2_trivial(), sg_z2_reduced())) == 0

    def test_reverse_preservation_is_reported_separately(self):
        f = enumerate_sg_morphisms(sg_z2_reduced(), sg_z2_trivial())[0]
        report = check_sg_morphism(f)
        assert report.overall
        assert not report.verdict("reflects-isometry").passed
        assert report.verdict("reflects-isometry").informational


class TestFiniteFieldSpecialGroups:
    def test_f3_has_minus_one_in_d11(self):
        g = sg_of_finite_field(3)
        assert g.names[g.minus_one] == "n"
        assert set(g.carrier.labels(represented(g, g.one, g.one))) == {"1", "n"}
        assert check_sg(g).overall

    def test_f5_has_square_minus_one(self):
        g = sg_of_finite_field(5)
        assert g.minus_one == g.one
        assert check_sg(g).overall

    def test_f7_passes(self):
        assert check_sg(sg_of_finite_field(7)).overall

    def test_more_primes_pass(self):
        for p in (11, 13, 61):
            assert check_sg(sg_of_finite_field(p)).overall, p

    def test_rejects_non_primes_and_large_inputs(self):
        for bad in (2, 4, 9, 15, 63, 67):
            with pytest.raises(InputError):
                sg_of_finite_field(bad)


class TestClosureAgainstReference:
    """``_close_iso`` reads core's ``_closure``; the union-find it replaced
    is ``reference_audits._close_iso``.  Both must give the same closed
    relation and the same count of added quadruples."""

    @staticmethod
    def closed_by(call, *args) -> list:
        """The (size, raw relation) pairs that ``call(*args)`` closes."""
        raws = []
        close = spg._close_iso

        def capture(n, raw):
            raws.append((n, list(raw)))
            return close(*raws[-1])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spg, "_close_iso", capture)
            call(*args)
        assert raws
        return raws

    @staticmethod
    def assert_agrees(n, raw, label):
        assert spg._close_iso(n, raw) == reference._close_iso(n, raw), label

    def test_corpus_relations(self, special_groups):
        for name, g in special_groups.items():
            self.assert_agrees(g.size, g.iso, name)

    def test_raw_relations_of_finite_fields(self):
        for p in (3, 5, 7, 11, 13):
            for n, raw in self.closed_by(sg_of_finite_field, p):
                self.assert_agrees(n, raw, p)

    def test_triple_relation_mutants(self):
        from test_triple_relation import GROUPS, _mutants
        for name, g in GROUPS.items():
            count = 30 if g.size <= 4 else 10
            for n, raw in self.closed_by(_mutants, g, name, count):
                self.assert_agrees(n, raw, name)

    def test_seeded_raw_relations_on_f2k(self):
        """Relations on 1 to 16 elements: empty, sparse and dense, with
        repeated quadruples and pairs related to themselves."""
        for k in range(5):
            n = 1 << k
            rng = random.Random(k)
            for size in (0, 1, 2, n, 2 * n, n * n):
                raw = [tuple(rng.randrange(n) for _ in range(4)) for _ in range(size)]
                raw += [(a, b, a, b) for a, b, _, _ in raw[:2]] + raw[:3]
                self.assert_agrees(n, raw, (k, size))


class TestTrivialBuilderAgainstReference:
    """``trivial_special_group`` builds the relation of equal products at
    index level; ``reference_audits.trivial_special_group`` named every
    quadruple and closed them again."""

    @staticmethod
    def assert_agrees(names, mul, minus_one, expected=None):
        g = trivial_special_group(names, mul, minus_one)
        if expected is None:
            expected = reference.trivial_special_group(names, mul, minus_one)
        assert (g, g.closure_added) == (expected, expected.closure_added)

    def test_f2k_for_every_minus_one(self):
        """F_2^k, k <= 5, with the elements in a seeded order.  At order 32
        the reference (0.2 s a call) runs once: -1 is only looked up, so
        each choice is compared with it with -1 replaced."""
        for k in range(6):
            n = 1 << k
            perm = list(range(n))
            random.Random(k).shuffle(perm)
            names = [f"e{x}" for x in perm]
            index = {x: i for i, x in enumerate(perm)}
            mul = [[names[index[x ^ y]] for y in perm] for x in perm]
            once = reference.trivial_special_group(names, mul, names[0]) if k == 5 else None
            for i, minus_one in enumerate(names):
                self.assert_agrees(names, mul, minus_one,
                                   once and dataclasses.replace(once, minus_one=i))

    def test_corpus_trivial_groups(self):
        for names, mul, minus_one in ((corpus._Z2_NAMES, corpus._Z2_MUL, "-1"),
                                      (corpus._Z22_NAMES, corpus._Z22_MUL, "a"),
                                      (corpus._Z23_NAMES, corpus._z23_mul(), "a")):
            self.assert_agrees(names, mul, minus_one)

    def test_invalid_tables_raise_as_before(self):
        for names, mul in ((("1", "x"), [["1", "x"], ["x", "x"]]),
                           (("1", "x"), [["1", "x"]]),
                           (("1", "x"), [["1", "x"], ["x", "y"]])):
            with pytest.raises(InputError) as new:
                trivial_special_group(names, mul, "x")
            with pytest.raises(InputError) as old:
                reference.trivial_special_group(names, mul, "x")
            assert str(new.value) == str(old.value)


_K, _Q2 = krasner(), q2()
_NOT_A_MULTIFIELD = "special group construction requires a multifield: "
DEGENERATE = {
    # nothing but zero: the group would have no element
    "one_element_ring": (ring_multiring(1), "carrier size 0 outside 1..64"),
    "krasner_minus_one_zero": (dataclasses.replace(_K, neg=(_K.zero, _K.zero)),
                               f"{_NOT_A_MULTIFIELD}-1 is the zero"),
    "q2_minus_one_zero": (dataclasses.replace(_Q2, neg=tuple(
        _Q2.zero if x == _Q2.one else _Q2.neg[x] for x in range(_Q2.size))),
        f"{_NOT_A_MULTIFIELD}-1 is the zero"),
    "q2_one_zero": (dataclasses.replace(_Q2, one=_Q2.zero),
                    f"{_NOT_A_MULTIFIELD}1 is the zero"),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_multifields_are_input_errors(name, tmp_path, capsys):
    """A multiring whose 1 or -1 is its zero has no special group: mf_to_sg
    raises an input error naming the constant, and the two commands that
    run it exit 2 with that error and no traceback."""
    f, message = DEGENERATE[name]
    with pytest.raises(InputError) as raised:
        mf_to_sg(f)
    assert str(raised.value) == message
    path = tmp_path / f"{name}.mrs"
    path.write_text(mio.serialize(f), encoding="utf-8")
    for argv in (["functor", "mf-sg", str(path)],
                 ["roundtrip", "--pair", "sg-smf", str(path)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"input error: {message}\n"), argv


class TestOrder8:
    def test_trivial_z23_roundtrip_and_agreement(self):
        g = sg_z23_trivial()
        assert check_sg(g).overall
        assert sg_smf_roundtrip(g).overall
        report = check_sg789(g)
        assert report.verdict("SG6-iff-SG9").passed


def test_multiring_equality_helper():
    assert same_tables(q2(), q2())
    assert not same_tables(q2(), krasner())


def test_sg0_names_the_least_unmirrored_quadruple():
    """With quadruples dropped from a closed relation, SG0's witness is the
    least quadruple whose mirror is missing, as SG3-SG5 scan the relation in
    sorted order too."""
    groups = dict(corpus_special_groups())
    groups["fan3"] = mf_to_sg(aos_to_mfred(fan_aos(3)))
    failing = 0
    for name, g in sorted(groups.items()):
        rng = random.Random(name)
        quads = sorted(g.iso)
        for _ in range(40):
            h = SpecialGroup(g.carrier, g.mul, g.one, g.minus_one,
                             g.iso - set(rng.sample(quads, 3)))
            least = min(((a, b, c, d) for a, b, c, d in h.iso
                         if (c, d, a, b) not in h.iso), default=None)
            verdict = check_psg(h).verdict("SG0-equivalence")
            assert verdict.witness == (least and tuple(h.names[x] for x in least))
            failing += least is not None
    assert failing > 100


def test_every_special_group_verdict_is_documented():
    """docs/axioms.md has a table row for every verdict that check_sg,
    check_sg789, check_reduced and check_smf report on the corpus."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "axioms.md")
    with open(path, encoding="utf-8") as fh:
        rows = {line.split("|")[1].strip() for line in fh if line.startswith("| `")}
    names = set()
    for _, g in corpus_special_groups().items():
        for report in (check_sg(g), check_sg789(g), check_reduced(g),
                       check_smf(sg_to_mf(g))):
            names |= {f"`{v.axiom}`" for v in report.verdicts}
    assert len(names) == 20
    assert names <= rows
