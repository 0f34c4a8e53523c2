"""The morphism audits on the one defect scan agree with the old ones.

``reference_audits`` keeps ``check_morphism``, ``check_rs_morphism``,
``check_sg_morphism`` and ``is_sg_morphism`` as they were before they read
``core._map_defects``: each walked its own loops.  Here the library's
reports must equal theirs, verdict, witness and note alike: on every map
between each candidate multiring table of order <= 3 and q2, on seeded
maps between corpus multirings and their single-cell mutants, on every map
from each corpus real semigroup into rs3, and on seeded maps between
corpus real semigroups and their mutants.  The special-group audits are
pinned on the maps of
``test_search_kernel.test_sg_leaf_check_matches_the_report``.
"""

import dataclasses
import itertools
import random

import reference_audits as reference
import reference_searches
from multialg import core
from multialg.constructions import product
from multialg.corpus import (
    corpus_multirings,
    corpus_real_reduced_multifields,
    corpus_real_semigroups,
)
from multialg.real_semigroups import check_rs_morphism
from test_search_kernel import _multiring_mutants, _replace_cell


def seeded_maps(s, t, rng, count):
    for _ in range(count):
        yield core.StructureMap(s, t, tuple(rng.randrange(t.size) for _ in range(s.size)))


def assert_multiring_reports_agree(maps):
    seen = 0
    for f in maps:
        assert core.check_morphism(f) == reference.check_morphism(f)
        seen += 1
    return seen


def assert_rs_reports_agree(maps):
    seen = 0
    for f in maps:
        assert check_rs_morphism(f) == reference.check_rs_morphism(f)
        seen += 1
    return seen


def test_every_map_between_candidates_and_q2():
    q2 = core.q2()
    seen = 0
    for a in reference_searches.candidate_multirings():
        seen += assert_multiring_reports_agree(reference_searches.every_map(a, q2))
        seen += assert_multiring_reports_agree(reference_searches.every_map(q2, a))
    assert seen == 33116


def test_seeded_maps_between_corpus_multirings():
    rng = random.Random(11)
    rings = dict(corpus_multirings())
    rings.update(corpus_real_reduced_multifields())
    for a, b in itertools.product(rings.values(), repeat=2):
        assert_multiring_reports_agree(seeded_maps(a, b, rng, 20))
    # Identities and the morphisms themselves pass every condition.
    for a in rings.values():
        assert_multiring_reports_agree([core.identity_map(a)])
        assert_multiring_reports_agree(core.enumerate_multiring_morphisms(a, core.q2()))


def test_seeded_maps_on_single_cell_mutants():
    rng = random.Random(13)
    q2, k = core.q2(), core.krasner()
    for base in (core.ring_multiring(8), product([q2, q2]), product([q2, k, k])):
        ident = tuple(range(base.size))
        for mutant in _multiring_mutants(base, rng, 20):
            for s, t in ((mutant, base), (base, mutant), (mutant, q2), (mutant, mutant)):
                assert_multiring_reports_agree(seeded_maps(s, t, rng, 10))
            assert_multiring_reports_agree([core.StructureMap(mutant, base, ident),
                                            core.StructureMap(base, mutant, ident)])


def test_every_map_from_corpus_real_semigroups_into_rs3():
    semigroups = corpus_real_semigroups()
    rs3 = semigroups["rs3"]
    seen = 0
    for s in semigroups.values():
        assert s.size <= 9
        seen += assert_rs_reports_agree(reference_searches.every_map(s, rs3))
    assert seen == 2 * 3 ** 3 + 2 * 3 ** 9


def test_seeded_maps_between_real_semigroups_and_mutants():
    rng = random.Random(17)
    semigroups = corpus_real_semigroups()
    for s, t in itertools.product(semigroups.values(), repeat=2):
        assert_rs_reports_agree(seeded_maps(s, t, rng, 20))
    for name in ("rs3x3", "rs_q2xq2"):
        base = semigroups[name]
        n = base.size
        for _ in range(20):
            i, j, value = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.5:
                mutant = dataclasses.replace(
                    base, d=_replace_cell(base.d, i, j, base.d[i][j] ^ (1 << value)))
            else:
                mutant = dataclasses.replace(
                    base, mul=_replace_cell(base.mul, i, j, value))
            for s, t in ((mutant, semigroups["rs3"]), (base, mutant), (mutant, mutant)):
                assert_rs_reports_agree(seeded_maps(s, t, rng, 10))
            assert_rs_reports_agree([core.StructureMap(mutant, base, tuple(range(n)))])

