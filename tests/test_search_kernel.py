"""The searches built on the propagating kernel agree with the old ones.

``reference_searches`` holds the five searches as they were before
``core._table_maps``: each its own backtracking loop that checks assigned
pairs, narrows nothing and checks its leaves with the old morphism audits
of ``reference_audits``.  Here the library's
``enumerate_multiring_morphisms``, ``enumerate_sg_morphisms``,
``enumerate_rs_morphisms`` and ``_enumerate_relation_vectors`` must return
the same lists in the same order, and ``find_isomorphism`` the same first
map, on the corpus, on every candidate table of order <= 3, on seeded
shuffles and on degenerate inputs that no audit has passed.

The library's searches take the kernel's maps as final, with no leaf
check except isometry for special groups.  ``test_kernel_results_are_final``
pins that without any backtracking search: on small inputs they must
return exactly the maps of ``itertools.product`` order that pass the old
audits.

``reference_searches._table_maps`` is the kernel as it was before it cut
after the forward narrowing and gathered the bijective reverse pass into
one transpose.  The last tests pin the kernel to it where that pass runs
on wide transposes: the same maps, the same number of search nodes and
the same number of values tried (most of them cut) on shuffles, searched
from and to the base, and non-isomorphic pairs of 24 to 64 elements, on
addition mutants whose cells xy and yx differ, on bijective searches
between unequal sizes and on three hom sets of 16 to 27 elements.  The
moved kernel also narrowed unary pairs backward, which prunes nothing more
where both negations are involutions; on negation mutants, where they need
not be, the maps and their order stay its own.
"""

import dataclasses
import functools
import itertools
import random
import sys

import pytest

import reference_audits
import reference_searches as reference
from multialg import core
from multialg.constructions import product
from multialg.corpus import (
    corpus_multirings,
    corpus_real_reduced_multifields,
    corpus_real_semigroups,
    corpus_special_groups,
    q2cube,
)
from multialg.enumeration import _involutions_fixing, _labels, _monoid_tables
from multialg.real_semigroups import canonical_3, enumerate_rs_morphisms, rs_product
from multialg.special_groups import check_sg_morphism, enumerate_sg_morphisms
from multialg.spectra import _enumerate_relation_vectors


def mappings(maps):
    return [f.mapping for f in maps]


def assert_isomorphisms_agree(a, b):
    new, old = core.find_isomorphism(a, b), reference.find_isomorphism(a, b)
    assert (new and new.mapping) == (old and old.mapping)


def assert_multiring_searches_agree(a, b):
    assert mappings(core.enumerate_multiring_morphisms(a, b)) == \
        mappings(reference.enumerate_multiring_morphisms(a, b))
    assert_isomorphisms_agree(a, b)


def assert_vectors_agree(a):
    assert _enumerate_relation_vectors(a) == reference._enumerate_relation_vectors(a)


def shuffled(r, seed):
    """Copy of multiring r with element x moved to a seeded index perm[x]."""
    n = r.size
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    old = [0] * n
    for x, new in enumerate(perm):
        old[new] = x
    return core.FiniteMultiring(
        core.Carrier(tuple(r.names[old[i]] for i in range(n))),
        tuple(tuple(core.mask_of(perm[c] for c in core.bits(r.add[old[i]][old[j]]))
                    for j in range(n)) for i in range(n)),
        tuple(tuple(perm[r.mul[old[i]][old[j]]] for j in range(n)) for i in range(n)),
        tuple(perm[r.neg[old[i]]] for i in range(n)),
        perm[r.zero], perm[r.one])


@functools.cache
def corpus_rings():
    out = dict(corpus_multirings())
    out.update(corpus_real_reduced_multifields())
    return out


def test_corpus_multiring_pairs():
    rings = corpus_rings()
    for a, b in itertools.product(rings.values(), repeat=2):
        assert_multiring_searches_agree(a, b)


def test_corpus_special_group_pairs():
    groups = corpus_special_groups()
    for g, h in itertools.product(groups.values(), repeat=2):
        assert mappings(enumerate_sg_morphisms(g, h)) == \
            mappings(reference.enumerate_sg_morphisms(g, h))


def test_sg_leaf_check_matches_the_report():
    """The reference search keeps a map when reference_audits'
    is_sg_morphism passes it, so that decision is pinned to
    check_sg_morphism's report here: on every kernel leaf of the corpus
    pairs, and on every map between groups of at most four elements.  The
    report also equals its old version in reference_audits, and a kernel
    leaf is among enumerate_sg_morphisms' maps exactly when its report
    passes."""
    groups = corpus_special_groups()
    seen = 0
    for g, h in itertools.product(groups.values(), repeat=2):
        leaves = list(core._table_maps(g.size, h.size,
                                       ((g.one, h.one), (g.minus_one, h.minus_one)),
                                       ops=((g.mul, h.mul),)))
        kept = set(mappings(enumerate_sg_morphisms(g, h)))
        maps = list(leaves)
        if g.size <= 4 and h.size <= 4:
            maps += itertools.product(range(h.size), repeat=g.size)
        for i, mp in enumerate(maps):
            f = core.StructureMap(g, h, tuple(mp))
            report = check_sg_morphism(f)
            assert report == reference_audits.check_sg_morphism(f)
            assert report.overall == reference_audits.is_sg_morphism(f)
            if i < len(leaves):
                assert (f.mapping in kept) == report.overall
            seen += 1
    assert seen == 1646


def test_corpus_real_semigroup_pairs():
    semigroups = corpus_real_semigroups()
    for s, t in itertools.product(semigroups.values(), repeat=2):
        assert mappings(enumerate_rs_morphisms(s, t)) == \
            mappings(reference.enumerate_rs_morphisms(s, t))


def test_corpus_relation_vectors():
    for a in list(corpus_rings().values()) + [q2cube()]:
        assert_vectors_agree(a)


def test_every_candidate_of_order_at_most_three():
    """All candidate multiring tables of the reference addition-table
    generator, failing ones included: relation vectors, morphisms to and
    from q2, and a relabelled copy."""
    q2 = core.q2()
    seen = 0
    for n in (1, 2, 3):
        carrier = core.Carrier(_labels(n))
        for zero, one in itertools.permutations(range(n), 2):
            for neg in _involutions_fixing(n, zero):
                for mul in _monoid_tables(n, zero, one):
                    for add in reference._addition_tables(n, zero, neg):
                        a = core.FiniteMultiring(carrier, add, mul, neg, zero, one)
                        assert_vectors_agree(a)
                        assert_multiring_searches_agree(a, q2)
                        assert_multiring_searches_agree(q2, a)
                        assert_multiring_searches_agree(a, shuffled(a, seen))
                        seen += 1
    assert seen == 616


@pytest.mark.parametrize("name", ["q2cube", "q2xk2", "z12"])
def test_first_isomorphism_of_shuffles(name):
    q2, k = core.q2(), core.krasner()
    r = {"q2cube": q2cube, "q2xk2": lambda: product([q2, k, k]),
         "z12": lambda: core.ring_multiring(12)}[name]()
    for seed in range(3):
        s = shuffled(r, seed)
        assert_isomorphisms_agree(r, s)
        assert_isomorphisms_agree(s, r)


def test_size_mismatch():
    q2, k = core.q2(), core.krasner()
    assert_multiring_searches_agree(q2, k)
    assert_multiring_searches_agree(k, q2)
    assert core.find_isomorphism(q2, k) is None


def test_zero_equal_to_one_on_one_side():
    q2, k, z3 = core.q2(), core.krasner(), core.ring_multiring(3)
    for r in (q2, k, z3):
        for collapsed in (dataclasses.replace(r, one=r.zero),
                          dataclasses.replace(r, zero=r.one)):
            for other in (q2, k, z3, collapsed):
                assert_multiring_searches_agree(collapsed, other)
                assert_multiring_searches_agree(other, collapsed)
            assert_vectors_agree(collapsed)


def _replace_cell(table, i, j, value):
    rows = [list(row) for row in table]
    rows[i][j] = value
    return tuple(tuple(row) for row in rows)


def _multiring_mutants(base, rng, count):
    """Seeded single-cell mutants of add, mul or neg, audited by nothing."""
    n = base.size
    for _ in range(count):
        i, j, value = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        table = rng.choice(("add", "mul", "neg"))
        if table == "add":
            flipped = base.add[i][j] ^ (1 << value)
            if flipped:
                yield dataclasses.replace(base, add=_replace_cell(base.add, i, j, flipped))
        elif table == "mul":
            yield dataclasses.replace(base, mul=_replace_cell(base.mul, i, j, value))
        else:
            neg = list(base.neg)
            neg[i] = value
            yield dataclasses.replace(base, neg=tuple(neg))


def test_single_cell_multiring_mutants():
    rng = random.Random(3)
    q2, k = core.q2(), core.krasner()
    for base in (core.ring_multiring(8), product([q2, q2]), product([q2, k, k])):
        for mutant in _multiring_mutants(base, rng, 20):
            assert_vectors_agree(mutant)
            for other in (q2, base):
                assert_multiring_searches_agree(mutant, other)
                assert_multiring_searches_agree(other, mutant)


def test_single_cell_real_semigroup_mutants():
    rng = random.Random(5)
    semigroups = corpus_real_semigroups()
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
                assert mappings(enumerate_rs_morphisms(s, t)) == \
                    mappings(reference.enumerate_rs_morphisms(s, t))


def inverse(f):
    back = [0] * len(f.mapping)
    for x, v in enumerate(f.mapping):
        back[v] = x
    return core.StructureMap(f.target, f.source, tuple(back))


def assert_final_by_brute_force(s, t):
    """The morphisms s -> t are the maps, in product order, that pass the
    old audit, and the first isomorphism is the first of them that is a
    bijection whose inverse passes too."""
    passing = [f for f in reference.every_map(s, t)
               if reference_audits.check_morphism(f).overall]
    assert mappings(core.enumerate_multiring_morphisms(s, t)) == mappings(passing)
    first = next((f for f in passing if s.size == t.size and f.is_injective()
                  and reference_audits.check_morphism(inverse(f)).overall), None)
    found = core.find_isomorphism(s, t)
    assert (found and found.mapping) == (first and first.mapping)


def test_kernel_results_are_final():
    q2 = core.q2()
    pairs = 0
    for a in reference.candidate_multirings():
        for s, t in ((a, q2), (q2, a), (a, a)):
            assert_final_by_brute_force(s, t)
            pairs += 1
        assert _enumerate_relation_vectors(a) == \
            [v for v in itertools.product((0, 1), repeat=a.size)
             if reference._satisfies_spec_relations(a, v)]
    assert pairs == 1848
    semigroups = corpus_real_semigroups()
    for s in semigroups.values():
        assert s.size <= 9
        passing = [f for f in reference.every_map(s, semigroups["rs3"])
                   if reference_audits.check_rs_morphism(f).overall]
        assert mappings(enumerate_rs_morphisms(s, semigroups["rs3"])) == mappings(passing)


# ---------------------------------------------------------------------------
# the kernel against the moved kernel: same maps, same search tree

def searched(kernel, a, b, bijective, limit=None):
    """The first ``limit`` maps (all by default) of ``kernel`` from a to b,
    the number of calls of its recursive ``extend``, one per node of the
    search tree, and the number of values it tried, one ``dom.copy()``
    each, counted through ``sys.setprofile``.  A generator's resumes are
    profiled as calls too, so each frame counts once."""
    frames, tried = {}, [0]

    def profile(frame, event, arg):
        if frame.f_code.co_name == "extend":
            if event == "call":
                frames[id(frame)] = frame  # held, so that no id is reused
            elif event == "c_call" and arg.__name__ == "copy":
                tried[0] += 1

    args = (a.size, b.size, *core._table_pairs(a, b))
    sys.setprofile(profile)
    try:
        maps = list(itertools.islice(kernel(*args, bijective=bijective), limit))
    finally:
        sys.setprofile(None)
    return maps, len(frames), tried[0]


def assert_same_search(a, b, bijective, limit=None):
    new = searched(core._table_maps, a, b, bijective, limit)
    assert new == searched(reference._table_maps, a, b, bijective, limit)
    return new


def _add_mutants(base, rng, count):
    """Seeded mutants that flip one element of one cell (x, y), x != y, of
    the addition, so that the cells xy and yx differ."""
    n = base.size
    while count:
        x, y = rng.sample(range(n), 2)
        flipped = base.add[x][y] ^ (1 << rng.randrange(n))
        if flipped:
            count -= 1
            yield dataclasses.replace(base, add=_replace_cell(base.add, x, y, flipped))


@functools.cache
def cap_rings():
    q2, k = core.q2(), core.krasner()
    z = core.ring_multiring
    return {"z64": z(64), "k6": product([k] * 6), "q2q2kk": product([q2, q2, k, k]),
            "z24": z(24), "z2z32": product([z(2), z(32)]), "z4z16": product([z(4), z(16)])}


@pytest.mark.parametrize("name, limit", [("z64", None), ("k6", 1), ("q2q2kk", None),
                                         ("z24", None)])
def test_isomorphisms_of_shuffles_above_16_elements(name, limit):
    """The reverse pass transposes 32 and 64 rows.  K^6 has 720
    automorphisms, so its search is pinned up to the first.  From the base
    the pass prunes nothing here; from the shuffled copy it cuts most of the
    tree (Z/64 at seed 0: 146 nodes and 4,956 values tried, against 298 and
    14,312 without it).  Seed 1 of Z/64 is left out of that direction: its
    search takes seconds under the profiler."""
    r = cap_rings()[name]
    for seed in range(2):
        maps, nodes, tried = assert_same_search(r, shuffled(r, seed), True, limit)
        assert maps and nodes > r.size and tried >= r.size
    for seed in (0, 2, 3) if name == "z64" else range(2):
        maps, nodes, tried = assert_same_search(shuffled(r, seed), r, True, limit)
        assert maps and nodes > r.size and tried >= r.size


@pytest.mark.parametrize("first, second", [("z64", "z2z32"), ("k6", "z64"),
                                           ("z2z32", "z4z16")])
def test_no_isomorphism_between_equal_sizes(first, second):
    rings = cap_rings()
    a, b = rings[first], rings[second]
    for s, t in ((a, b), (b, a)):
        assert assert_same_search(s, t, True)[0] == []


def test_add_mutants_with_asymmetric_cells():
    """Single-cell addition mutants of 24 to 64 elements, whose cells xy and
    yx differ, to and from their base and a shuffled copy of themselves.
    K^6's mutants are left out: their searches take up to 3 s here and 14 s
    in the moved kernel."""
    rng = random.Random(28)
    searches = 0
    for name, base in cap_rings().items():
        if name == "k6":
            continue
        for mutant in _add_mutants(base, rng, 3):
            for s, t in ((mutant, base), (base, mutant), (mutant, shuffled(mutant, 1))):
                assert_same_search(s, t, True, 1)
                searches += 1
    assert searches == 45


@pytest.mark.parametrize("name", ["k4", "q2k3", "rs3cube"])
def test_hom_sets_to_themselves(name):
    q2, k = core.q2(), core.krasner()
    r = {"k4": lambda: product([k] * 4), "q2k3": lambda: product([q2, k, k, k]),
         "rs3cube": lambda: rs_product([canonical_3()] * 3)}[name]()
    maps, _, _ = assert_same_search(r, r, False)
    assert len(maps) == {"k4": 256, "q2k3": 64, "rs3cube": 27}[name]


def test_bijective_between_unequal_sizes():
    """``_table_maps`` is shared, and find_isomorphism alone checks sizes:
    with n != m the reverse pass transposes max(n, m) rows, as wide as the
    source's masks, and the maps and the tree stay the moved kernel's."""
    rings = cap_rings()
    z = core.ring_multiring
    pairs = [(rings["z64"], rings["z24"]), (rings["z24"], rings["q2q2kk"]),
             (rings["q2q2kk"], rings["z24"]), (z(12), z(8)), (z(8), z(12)),
             (product([core.q2()] * 2), rings["z24"])]
    for a, b in pairs:
        assert_same_search(a, b, True)


def _neg_mutants(base, rng, count):
    """Seeded mutants that send one element x to another value under neg;
    most leave neg no involution."""
    n = base.size
    while count:
        x, value = rng.randrange(n), rng.randrange(n)
        if value != base.neg[x]:
            count -= 1
            neg = list(base.neg)
            neg[x] = value
            yield dataclasses.replace(base, neg=tuple(neg))


def test_neg_mutants_on_both_sides():
    """The kernel applies a unary pair f(u(x)) = u'(f(x)) forward only, when
    x is assigned; the moved kernel also narrowed each x with u(x) = i to
    the preimage under u' of f(i).  Where both negations are involutions
    that is the same narrowing, so the trees above are pinned equal.  On
    negation mutants, from and to their base, q2 and a shuffled copy of
    themselves, with and without bijectivity, the maps and their order must
    stay the moved kernel's, while the nodes and the values tried may only
    grow."""
    rng = random.Random(51)
    q2, k = core.q2(), core.krasner()
    searches = involutive = found = grown = 0
    for base in (core.ring_multiring(8), product([q2, q2]), product([q2, k, k])):
        for mutant in _neg_mutants(base, rng, 6):
            involutive += all(mutant.neg[y] == x for x, y in enumerate(mutant.neg))
            for s, t in ((mutant, base), (base, mutant), (mutant, q2), (q2, mutant),
                         (mutant, shuffled(mutant, searches))):
                for bijective in (False, True):
                    maps, nodes, tried = searched(core._table_maps, s, t, bijective)
                    old_maps, old_nodes, old_tried = searched(
                        reference._table_maps, s, t, bijective)
                    assert maps == old_maps
                    assert nodes >= old_nodes and tried >= old_tried
                    found += bool(maps)
                    grown += tried > old_tried
                    searches += 1
    assert searches == 180 and involutive < 6 and found > 30 and grown > 30
