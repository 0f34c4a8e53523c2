"""The sign-space map layer agrees with the old searches and induced maps.

``reference_searches`` keeps ``enumerate_space_morphisms`` (every point map,
each audited), ``find_space_isomorphism`` (its own signature-pruned
backtracking) and the two induced point maps as they were before
``ordering_spaces._point_maps`` and the shared cone pullback.  Here the
library must list the same maps in the same order wherever the old walk
over all t^s point maps is small, find the same first isomorphism on every
ordered pair of spaces, and induce the same point maps, or raise the same
``InputError``, for morphisms and seeded non-morphisms of real reduced
multifields and multirings.
"""

import itertools
import random

import pytest

import reference_searches as reference
from multialg.core import (
    InputError,
    StructureMap,
    enumerate_multiring_morphisms,
    krasner,
    q2,
)
from multialg.corpus import (
    corpus_real_reduced_multifields,
    corpus_real_reduced_multirings,
    corpus_sign_spaces,
    q2xq2,
)
from multialg.ordering_spaces import (
    AOS,
    ARS,
    enumerate_space_morphisms,
    fan_aos,
    find_space_isomorphism,
    make_sign_space,
    mf_map_to_aos_map,
    mfred_to_aos,
    mr_map_to_ars_map,
    mrred_to_ars,
    space_morphism_check,
)


def shuffled(s, seed):
    """Copy of s with its points, and every function's values, in a seeded
    order."""
    perm = list(range(s.npoints))
    random.Random(seed).shuffle(perm)
    return make_sign_space(s.mode, [s.points[i] for i in perm],
                           [[f[i] for i in perm] for f in s.functions])


def seeded_space(seed):
    """A seeded set of sign functions on at most four points, aos for even
    seeds and ars for odd ones; it need not be a space of orderings."""
    rng = random.Random(seed)
    mode, values = (AOS, (-1, 1)) if seed % 2 == 0 else (ARS, (-1, 0, 1))
    k = rng.randint(1, 4)
    every = list(itertools.product(values, repeat=k))
    funcs = rng.sample(every, rng.randint(1, min(len(every), 10)))
    return make_sign_space(mode, [f"p{i}" for i in range(k)], funcs)


def spaces():
    out = list(corpus_sign_spaces().values())
    out += [fan_aos(k) for k in range(1, 5)]
    out += [mrred_to_ars(a)[0] for a in (q2(), q2xq2())]
    out += [mfred_to_aos(f)[0]
            for f in corpus_real_reduced_multifields().values()]
    for seed in range(40):
        s = seeded_space(seed)
        out += [s, shuffled(s, seed)]
    return out


SPACES = spaces()


def test_morphism_lists_match_the_old_walk():
    compared = 0
    for s, t in itertools.product(SPACES, repeat=2):
        if s.mode != t.mode:
            continue
        maps = enumerate_space_morphisms(s, t)
        assert all(space_morphism_check(m).overall for m in maps)
        if t.npoints ** s.npoints <= 256:
            assert maps == reference.enumerate_space_morphisms(s, t), (s, t)
            compared += 1
    assert compared > 4000


def test_first_isomorphism_matches_the_old_search():
    found = 0
    for s, t in itertools.product(SPACES, repeat=2):
        iso = find_space_isomorphism(s, t)
        assert iso == reference.find_space_isomorphism(s, t), (s, t)
        found += iso is not None
    assert found > 300


def outcome(induce, sigma):
    try:
        return induce(sigma)
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("structures, induce, old", [
    ({**corpus_real_reduced_multifields(), "krasner": krasner(),
      "q2xq2": q2xq2()}, mf_map_to_aos_map, reference.mf_map_to_aos_map),
    ({**corpus_real_reduced_multirings(), "krasner": krasner()},
     mr_map_to_ars_map, reference.mr_map_to_ars_map),
])
def test_induced_point_maps_match_the_old_pullbacks(structures, induce, old):
    rng = random.Random(14)
    errors = 0
    for a, b in itertools.product(structures.values(), repeat=2):
        maps = [m.mapping for m in enumerate_multiring_morphisms(a, b)]
        maps += [(v,) * a.size for v in range(b.size)]
        maps += [tuple(rng.randrange(b.size) for _ in range(a.size))
                 for _ in range(4)]
        for mapping in maps:
            sigma = StructureMap(a, b, mapping)
            got = outcome(induce, sigma)
            assert got == outcome(old, sigma), (a.names, b.names, mapping)
            errors += isinstance(got, str)
    assert errors > 0
