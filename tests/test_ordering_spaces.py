import contextlib
import io
import itertools
import os

import pytest

from multialg import ordering_spaces as osp
from multialg.cli import main
from multialg.core import InputError, check_morphism, is_isomorphic, q2
from multialg.corpus import ars_q2xq2, q2xq2
from multialg.ordering_spaces import (
    SignSpace,
    SpaceMap,
    aos_mf_roundtrip,
    aos_to_mfred,
    ars_bridge_check,
    ars_mr_roundtrip,
    ars_to_mrred,
    check_aos,
    check_ars,
    fan_aos,
    find_space_isomorphism,
    induced_function_map,
    make_sign_space,
    mf_aos_roundtrip,
    mfred_to_aos,
    mr_ars_roundtrip,
    mrred_to_ars,
    one_point_ars,
    space_map_to_mf_map,
    space_morphism_check,
    transversal_value_set,
    value_set,
    value_set_reassociation_check,
)
from multialg.spectra import enumerate_orderings, is_real_reduced_mf


class TestValueSets:
    def test_one_point_value_set_is_forced(self):
        s = fan_aos(1)
        assert value_set(s, (1,), (1,)) == ((1,),)

    def test_two_point_opposite_pair_gives_everything(self):
        s = fan_aos(2)
        assert set(value_set(s, (1, 1), (-1, -1))) == set(s.functions)

    def test_two_point_generic_pair(self):
        s = fan_aos(2)
        assert set(value_set(s, (1, 1), (1, -1))) == {(1, 1), (1, -1)}

    def test_one_point_ars_transversal_of_opposites(self):
        s = one_point_ars()
        assert set(transversal_value_set(s, (1,), (-1,))) == set(s.functions)
        assert transversal_value_set(s, (1,), (1,)) == ((1,),)

    def test_arguments_must_belong(self):
        with pytest.raises(InputError):
            value_set(fan_aos(1), (1,), (0,))


class TestFunctionIndex:
    def _index(self, s, f):
        """The linear search ``SignSpace.index`` was."""
        try:
            return s.functions.index(f)
        except ValueError:
            return None

    def test_index_and_constant_match_the_linear_search(self):
        for s in (fan_aos(3), ars_q2xq2(), one_point_ars(),
                  make_sign_space("aos", ["x", "y"], [[1, 1], [-1, 1]])):
            args = [*s.functions, *map(list, s.functions), (2,) * s.npoints,
                    (1.0,) * s.npoints, (True,) * s.npoints, ([1],) * s.npoints,
                    (), 1, "+", None]
            for f in args:
                assert s.index(f) == self._index(s, f), f
            for v in (1, 0, -1, 2):
                assert s.constant(v) == self._index(s, (v,) * s.npoints)

    def test_negations_are_one_kept_table(self):
        for s in (fan_aos(3), ars_q2xq2(),
                  make_sign_space("aos", ["x", "y"], [[1, 1], [-1, 1]])):
            table = s._negations
            assert table == tuple(self._index(s, tuple(-v for v in f))
                                  for f in s.functions)
            assert s._negations is table


class TestWronglyTypedInput:
    @pytest.mark.parametrize("points, functions, message", [
        (["a"], [[1.5], [True]], "function value 1.5 is not an integer"),
        (["a"], [["1"]], "function value '1' is not an integer"),
        (["a"], [[True]], "function value True is not an integer"),
        ("ab", [[1, 1]], "points must be a sequence of labels"),
    ])
    def test_make_sign_space_rejects(self, points, functions, message):
        with pytest.raises(InputError, match=message):
            make_sign_space("aos", points, functions)

    @pytest.mark.parametrize("points, functions", [
        (("a",), ((True,),)),
        (("a",), ((1.0,),)),
        ("a", ((1,),)),
    ])
    def test_sign_space_rejects(self, points, functions):
        with pytest.raises(InputError):
            SignSpace("aos", points, functions)

    def test_sign_space_keeps_lists_as_tuples_in_the_given_order(self):
        listed = SignSpace("aos", ["x", "y"], [[1, 1], [-1, -1], [1, -1]])
        given = SignSpace("aos", ("x", "y"), ((1, 1), (-1, -1), (1, -1)))
        assert listed == given and hash(listed) == hash(given)
        assert listed.functions == ((1, 1), (-1, -1), (1, -1))
        assert listed.index((1, -1)) == 2

    def test_sign_space_rejects_duplicate_list_functions(self):
        with pytest.raises(InputError, match=r"duplicate function \(1,\)"):
            SignSpace("aos", ("x",), [[1], [-1], [1]])


class TestAxioms:
    def test_fans_pass(self):
        for k in (1, 2, 3):
            assert check_aos(fan_aos(k)).overall, k

    def test_separation_failure_detected(self):
        bad = make_sign_space("aos", ("x", "y"), [(1, 1), (-1, -1)])
        report = check_aos(bad)
        assert not report.verdict("AX1-separates-points").passed
        assert not report.overall

    def test_missing_constant_detected(self):
        bad = make_sign_space("aos", ("x",), [(1,)])
        assert not check_aos(bad).verdict("AX1-constants").passed

    def test_one_point_ars_passes(self):
        assert check_ars(one_point_ars()).overall

    def test_full_two_point_ars_passes(self):
        full = make_sign_space("ars", ("x", "y"),
                               list(itertools.product((-1, 0, 1), repeat=2)))
        assert check_ars(full).overall

    def test_mode_mismatch_rejected(self):
        with pytest.raises(InputError):
            check_ars(fan_aos(1))
        with pytest.raises(InputError):
            check_aos(one_point_ars())

    def test_reassociation_invariant(self, sign_spaces):
        for name, s in sign_spaces.items():
            assert value_set_reassociation_check(s).overall, name

    def test_ars_bridges(self, sign_spaces):
        for name, s in sign_spaces.items():
            if s.mode == "ars":
                assert ars_bridge_check(s).overall, name


class TestSpaceToMultifield:
    def test_one_point_gives_the_sign_multifield(self):
        assert is_isomorphic(aos_to_mfred(fan_aos(1)), q2())

    def test_two_point_fan_gives_five_elements(self):
        f = aos_to_mfred(fan_aos(2))
        assert f.size == 5
        assert is_real_reduced_mf(f).overall

    def test_images_always_real_reduced(self, sign_spaces):
        for name, s in sign_spaces.items():
            if s.mode != "aos":
                continue
            f = aos_to_mfred(s)
            assert is_real_reduced_mf(f).overall, name


class TestMultifieldToSpace:
    def test_q2_gives_one_point(self):
        space, report = mfred_to_aos(q2())
        assert space.npoints == 1 and space.nfunctions == 2
        assert report.overall
        assert check_aos(space).overall

    def test_bijection_counts(self, real_reduced_mfs):
        for name, f in real_reduced_mfs.items():
            space, report = mfred_to_aos(f)
            assert report.overall, name
            assert space.npoints == len(enumerate_orderings(f)), name
            assert space.nfunctions == f.size - 1, name

    def test_non_reduced_input_rejected(self):
        from multialg.core import krasner
        with pytest.raises(InputError):
            mfred_to_aos(krasner())


class TestSpaceToMultiring:
    def test_one_point_ars_gives_the_sign_multifield(self):
        assert is_isomorphic(ars_to_mrred(one_point_ars()), q2())

    def test_product_style_space_gives_the_product(self):
        assert is_isomorphic(ars_to_mrred(ars_q2xq2()), q2xq2())


class TestMultiringToSpace:
    def test_q2_gives_one_point_three_functions(self):
        space, report = mrred_to_ars(q2())
        assert space.npoints == 1 and space.nfunctions == 3
        assert report.overall
        assert check_ars(space).overall

    def test_q2xq2_gives_two_points_nine_functions(self):
        space, report = mrred_to_ars(q2xq2())
        assert space.npoints == 2 and space.nfunctions == 9
        assert report.overall

    def test_transversal_matches_addition(self, real_reduced_mrs):
        for name, a in real_reduced_mrs.items():
            space, report = mrred_to_ars(a)
            assert report.verdict("transversal-matches-addition").passed, name


class TestRoundTrips:
    def test_aos_side(self, sign_spaces):
        for name, s in sign_spaces.items():
            if s.mode == "aos":
                assert aos_mf_roundtrip(s).overall, name

    def test_mf_side(self, real_reduced_mfs):
        for name, f in real_reduced_mfs.items():
            assert mf_aos_roundtrip(f).overall, name

    def test_ars_side(self, sign_spaces):
        for name, s in sign_spaces.items():
            if s.mode == "ars":
                assert ars_mr_roundtrip(s).overall, name

    def test_mr_side(self, real_reduced_mrs):
        for name, a in real_reduced_mrs.items():
            assert mr_ars_roundtrip(a).overall, name


class TestSpaceMorphisms:
    def test_identity_is_a_morphism(self, sign_spaces):
        for name, s in sign_spaces.items():
            ident = SpaceMap(s, s, tuple(range(s.npoints)))
            assert space_morphism_check(ident).overall, name
            induced = induced_function_map(ident)
            assert induced == {i: i for i in range(s.nfunctions)}

    def test_fan_collapse_is_a_morphism(self):
        collapse = SpaceMap(fan_aos(2), fan_aos(1), (0, 0))
        assert space_morphism_check(collapse).overall

    def test_point_inclusion_is_a_morphism_but_not_surjective(self):
        inclusion = SpaceMap(fan_aos(1), fan_aos(2), (0,))
        report = space_morphism_check(inclusion)
        assert report.overall
        assert not report.verdict("surjective-on-points").passed

    def test_induced_multifield_map_is_contravariant(self):
        # chain fan3 -> fan2 -> fan1 of point maps
        beta = SpaceMap(fan_aos(3), fan_aos(2), (0, 1, 1))
        alpha = SpaceMap(fan_aos(2), fan_aos(1), (0, 0))
        assert space_morphism_check(beta).overall
        assert space_morphism_check(alpha).overall
        comp = SpaceMap(fan_aos(3), fan_aos(1),
                        tuple(alpha.point_map[v] for v in beta.point_map))
        mf3, mf2, mf1 = (aos_to_mfred(fan_aos(k)) for k in (3, 2, 1))
        m_alpha = space_map_to_mf_map(alpha, mf1, mf2)
        m_beta = space_map_to_mf_map(beta, mf2, mf3)
        m_comp = space_map_to_mf_map(comp, mf1, mf3)
        assert check_morphism(m_alpha).overall
        assert check_morphism(m_beta).overall
        # contravariance: M(alpha o beta) = M(beta) o M(alpha)
        composed = tuple(m_beta.mapping[v] for v in m_alpha.mapping)
        assert m_comp.mapping == composed


class TestSpaceIsomorphism:
    def test_relabeled_fan_found(self):
        s = fan_aos(2)
        t = make_sign_space("aos", ("a", "b"), s.functions)
        assert find_space_isomorphism(s, t) is not None

    def test_distinct_spaces_not_identified(self):
        assert find_space_isomorphism(fan_aos(1), fan_aos(2)) is None
        sub = make_sign_space("aos", ("x", "y"),
                              [(1, 1), (-1, -1), (1, -1), (-1, 1)])
        assert find_space_isomorphism(fan_aos(2), sub) is not None


class TestInducedPointMaps:
    def test_structure_morphisms_induce_space_morphisms(self, real_reduced_mfs,
                                                        real_reduced_mrs):
        from multialg.core import enumerate_multiring_morphisms
        from multialg.ordering_spaces import (enumerate_space_morphisms,
                                              mf_map_to_aos_map,
                                              mr_map_to_ars_map)
        for collection, induce, build in (
                (real_reduced_mfs, mf_map_to_aos_map,
                 lambda f: mfred_to_aos(f)[0]),
                (real_reduced_mrs, mr_map_to_ars_map,
                 lambda a: mrred_to_ars(a)[0])):
            for (na, fa), (nb, fb) in itertools.product(
                    collection.items(), repeat=2):
                homs = enumerate_multiring_morphisms(fa, fb)
                induced = [induce(s) for s in homs]
                for m in induced:
                    assert space_morphism_check(m).overall, (na, nb)
                # the functor is a bijection on these hom-sets
                space_homs = enumerate_space_morphisms(build(fb), build(fa))
                assert {m.point_map for m in induced} \
                    == {m.point_map for m in space_homs}, (na, nb)

    def test_identity_induces_identity(self, real_reduced_mrs):
        from multialg.core import StructureMap
        from multialg.ordering_spaces import mr_map_to_ars_map
        for name, a in real_reduced_mrs.items():
            ident = StructureMap(a, a, tuple(range(a.size)))
            induced = mr_map_to_ars_map(ident)
            assert induced.point_map == tuple(range(induced.source.npoints))

    def test_composition_is_contravariant(self, real_reduced_mfs):
        from multialg.core import compose_maps, enumerate_multiring_morphisms
        from multialg.ordering_spaces import mf_map_to_aos_map
        f, k = real_reduced_mfs["q2"], real_reduced_mfs["fan2mf"]
        for sigma in enumerate_multiring_morphisms(f, k):
            for tau in enumerate_multiring_morphisms(k, f):
                comp = compose_maps(sigma, tau)  # f -> f
                left = mf_map_to_aos_map(comp)
                s1 = mf_map_to_aos_map(tau)   # space(f) -> space(k)
                s2 = mf_map_to_aos_map(sigma)  # space(k) -> space(f)
                composed = tuple(s2.point_map[v] for v in s1.point_map)
                assert left.point_map == composed


def test_diagram_builds_the_space_once(monkeypatch):
    # The round-trip builds the space; the point count then reads the one
    # kept on the multifield.  A build finds the characters once.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "fan2mf.mrs")
    built, read = [], []
    characters = osp._admissible_characters
    monkeypatch.setattr(osp, "_admissible_characters",
                        lambda f: built.append(f) or characters(f))
    monkeypatch.setattr(osp, "mfred_to_aos", lambda f: read.append(f) or mfred_to_aos(f))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["diagram", path]) == 0
    assert (len(built), len(read)) == (1, 2)
