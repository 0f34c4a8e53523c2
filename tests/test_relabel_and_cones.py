"""The shared relabel-and-compare and sign-cone search agree with the old code.

``reference_searches`` keeps the per-kind equalities, the canonical keys and
the two sign-cone searches as they were before ``core._relabel`` and
``spectra._sign_cones``.  Here ``core.same_tables`` must agree with
``multiring_equal``, ``sg_equal`` and ``rs_equal`` on ordered pairs of corpus
structures, seeded shuffles and seeded single-cell mutants; the canonical
keys must give the same representatives through ``*_from_key``; and
``enumerate_orderings`` and ``_enumerate_ars_cones`` must return the same
cones in the same order.  Past order 4 the keys of K^3, q2^2 and the sum-3
multifield must equal ``reference._rowwise_canonical_key``, the key as it was
when it narrowed its relabelings one row at a time, and be the same for
seeded shuffles of each.
"""

import dataclasses
import functools
import itertools
import random

import pytest

import reference_searches as reference
from multialg import core, spectra
from multialg.constructions import product
from multialg.corpus import (
    corpus_multirings,
    corpus_real_reduced_multifields,
    corpus_real_reduced_multirings,
    corpus_real_semigroups,
    corpus_sign_spaces,
    corpus_special_groups,
    q2cube,
)
from multialg.enumeration import (
    _involutions_fixing,
    _labels,
    _monoid_tables,
    generate_multigroups,
    generate_multirings,
    multigroup_canonical_key,
    multigroup_from_key,
    multiring_canonical_key,
    multiring_from_key,
)
from multialg.ordering_spaces import (
    ARS,
    _ax1_verdicts,
    _enumerate_ars_cones,
    aos_to_mfred,
    fan_aos,
    make_sign_space,
    mfred_to_aos,
    mrred_to_ars,
)
from multialg.special_groups import SpecialGroup
from multialg.spectra import enumerate_orderings


def shuffled(s, seed, rename=True):
    """Copy of s with element x moved to a seeded index perm[x].  With
    rename the labels move along, so only the storage order changes;
    without it the labels stay put and the tables describe other elements."""
    n = s.size
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    old = [0] * n
    for x, new in enumerate(perm):
        old[new] = x

    def unary(t):
        return tuple(perm[t[old[i]]] for i in range(n))

    def values(t):
        return tuple(tuple(perm[t[old[i]][old[j]]] for j in range(n)) for i in range(n))

    def cells(t):
        return tuple(tuple(core.mask_of(perm[c] for c in core.bits(t[old[i]][old[j]]))
                           for j in range(n)) for i in range(n))

    names = s.carrier.names
    carrier = core.Carrier(tuple(names[old[i]] for i in range(n))) if rename \
        else s.carrier
    if isinstance(s, core.FiniteMultiring):
        return dataclasses.replace(s, carrier=carrier, add=cells(s.add),
                                   mul=values(s.mul), neg=unary(s.neg),
                                   zero=perm[s.zero], one=perm[s.one])
    if isinstance(s, SpecialGroup):
        return dataclasses.replace(
            s, carrier=carrier, mul=values(s.mul), one=perm[s.one],
            minus_one=perm[s.minus_one],
            iso=frozenset(tuple(perm[v] for v in q) for q in s.iso))
    return dataclasses.replace(s, carrier=carrier, mul=values(s.mul), d=cells(s.d),
                               one=perm[s.one], zero=perm[s.zero],
                               minus_one=perm[s.minus_one])


def _replace_cell(table, i, j, value):
    rows = [list(row) for row in table]
    rows[i][j] = value
    return tuple(tuple(row) for row in rows)


def mutant(s, rng):
    """A seeded single-entry change to one table or constant of s, audited by
    nothing; a flip that would empty an addition cell leaves it as it was."""
    n = s.size
    i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    if isinstance(s, SpecialGroup):
        field = rng.choice(("iso", "minus_one"))
        if field == "iso":
            quad = (i, j, v, rng.randrange(n))
            return dataclasses.replace(s, iso=s.iso ^ {quad})
        return dataclasses.replace(s, minus_one=v)
    if isinstance(s, core.FiniteMultiring):
        field = rng.choice(("add", "mul", "neg", "zero", "one"))
        if field == "add":
            flipped = s.add[i][j] ^ (1 << v) or s.add[i][j]
            return dataclasses.replace(s, add=_replace_cell(s.add, i, j, flipped))
        if field == "neg":
            return dataclasses.replace(s, neg=s.neg[:i] + (v,) + s.neg[i + 1:])
    else:
        field = rng.choice(("d", "mul", "one", "zero", "minus_one"))
        if field == "d":
            flipped = s.d[i][j] ^ (1 << v)
            return dataclasses.replace(s, d=_replace_cell(s.d, i, j, flipped))
    if field == "mul":
        return dataclasses.replace(s, mul=_replace_cell(s.mul, i, j, v))
    return dataclasses.replace(s, **{field: v})


OLD_EQUALITY = {
    "multiring": reference.multiring_equal,
    "special_group": reference.sg_equal,
    "real_semigroup": reference.rs_equal,
}


@functools.cache
def family(kind):
    """Corpus structures of a kind, with three renamed and one label-fixed
    shuffle and three single-cell mutants of each."""
    base = {"multiring": corpus_multirings,
            "special_group": corpus_special_groups,
            "real_semigroup": corpus_real_semigroups}[kind]()
    rng = random.Random(11)
    out = []
    for s in base.values():
        out.append(s)
        out.extend(shuffled(s, seed) for seed in range(3))
        out.append(shuffled(s, 3, rename=False))
        out.extend(mutant(s, rng) for _ in range(3))
    return out


@pytest.mark.parametrize("kind", sorted(OLD_EQUALITY))
def test_same_tables_matches_the_old_equalities(kind):
    old = OLD_EQUALITY[kind]
    structures = family(kind)
    pairs = list(itertools.product(structures, repeat=2))
    verdicts = [core.same_tables(a, b) for a, b in pairs]
    assert verdicts == [old(a, b) for a, b in pairs]
    # both answers occur, and more often than on the diagonal alone
    assert len(structures) < sum(verdicts) < len(verdicts)


def test_same_tables_on_labels_that_differ():
    q2, k = core.q2(), core.krasner()
    assert not core.same_tables(q2, k)
    renamed = dataclasses.replace(q2, carrier=core.Carrier(("a", "b", "c")))
    assert not core.same_tables(q2, renamed)
    assert core.same_tables(renamed, renamed)


def _flat_multiring(key):
    n, zero, one, neg, mul, add = key
    return core.FiniteMultiring(core.Carrier(_labels(n)), add, mul, neg, zero, one)


def _flat_multigroup(key):
    n, identity, inv, op = key
    return core.FiniteMultigroup(core.Carrier(_labels(n)), op, inv, identity)


def test_multiring_keys_of_order_at_most_three():
    seen = 0
    for n in (1, 2, 3):
        for r in generate_multirings(n):
            assert multiring_from_key(multiring_canonical_key(r)) == \
                _flat_multiring(reference.multiring_canonical_key(r))
            seen += 1
    assert seen > 17


PAST_ORDER_FOUR = {
    "K^3": lambda: product([core.krasner()] * 3),
    "q2^2": lambda: product([core.q2()] * 2),
    "sum-3": lambda: aos_to_mfred(fan_aos(3)),
}


@pytest.mark.parametrize("name", sorted(PAST_ORDER_FOUR))
def test_multiring_keys_past_order_four(name):
    # Orders 8 and 9: the table-at-a-time key against the row-at-a-time one,
    # and the same key from every seeded shuffle.
    r = PAST_ORDER_FOUR[name]()
    key = multiring_canonical_key(r)
    assert key == reference._rowwise_canonical_key(r), name
    for seed in (1, 2, 3):
        assert multiring_canonical_key(shuffled(r, seed)) == key, (name, seed)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_multigroup_keys(order):
    seen = 0
    for m in generate_multigroups(order):
        assert multigroup_from_key(multigroup_canonical_key(m)) == \
            _flat_multigroup(reference.multigroup_canonical_key(m))
        seen += 1
    if order == 4:
        assert seen == 1560


def assert_orderings_agree(a):
    """The orderings of a are the reference's, each cone taken once (the
    reference repeats a cone when ``neg`` is no involution); returns
    whether the reference repeated one."""
    try:
        old = [o.positive for o in reference.enumerate_orderings(a)]
    except core.InputError as exc:
        with pytest.raises(type(exc)):
            enumerate_orderings(a)
        return False
    once = list(dict.fromkeys(old))
    assert [o.positive for o in enumerate_orderings(a)] == once
    return len(once) < len(old)


def test_orderings_on_named_multirings():
    q2, k = core.q2(), core.krasner()
    rings = {**corpus_multirings(), **corpus_real_reduced_multirings(),
             **corpus_real_reduced_multifields(), "q2cube": q2cube(),
             "q2xq2xk": product([q2, q2, k]), "z12": core.ring_multiring(12),
             "z30": core.ring_multiring(30)}
    for a in rings.values():
        assert_orderings_agree(a)
    assert len(enumerate_orderings(q2cube())) == 3


def test_orderings_on_shuffles_and_mutants():
    """Mutants of the addition table are not commutative: the pruning must
    read a cell in both orders as before."""
    rng = random.Random(23)
    repeated = 0
    for base in (core.q2(), product([core.q2(), core.q2()]), q2cube()):
        for variant in [shuffled(base, 0)] + [mutant(base, rng) for _ in range(40)]:
            repeated += assert_orderings_agree(variant)
    assert repeated > 0


def test_each_ordering_once_when_neg_is_no_involution():
    """q2 x q2 with one entry of neg changed: the pairs {x, -x} overlap and
    the search finds the one cone on two branches; it is listed once."""
    a = product([core.q2(), core.q2()])
    a = dataclasses.replace(a, neg=(1, 7, 6, 5, 4, 3, 2, 1, 0))
    old = [o.positive for o in reference.enumerate_orderings(a)]
    assert len(old) == 2 and old[0] == old[1]
    assert [o.positive for o in enumerate_orderings(a)] == old[:1]
    cones = list(spectra._sign_cones(a.neg, a.mul, a.add))
    assert len(cones) == len(set(cones))
    counts = spectra.ordering_hom_bijection_check(a).verdicts[0]
    assert (counts.axiom, counts.witness) == ("counts-equal", (1, 0))


def test_orderings_of_every_candidate_of_order_at_most_three():
    """Every candidate table of the reference addition-table generator,
    failing ones included."""
    seen = 0
    for n in (1, 2, 3):
        carrier = core.Carrier(_labels(n))
        for zero, one in itertools.permutations(range(n), 2):
            for neg in _involutions_fixing(n, zero):
                for mul in _monoid_tables(n, zero, one):
                    for add in reference._addition_tables(n, zero, neg):
                        assert_orderings_agree(
                            core.FiniteMultiring(carrier, add, mul, neg, zero, one))
                        seen += 1
    assert seen == 616


def _random_ars(rng):
    """Seeded three-valued function set closed under products, with the
    constants 1, 0 and -1, so that it passes the first two AX1 checks."""
    npoints = rng.randint(1, 3)
    funcs = {tuple([v] * npoints) for v in (1, 0, -1)}
    funcs |= {tuple(rng.choice((1, 0, -1)) for _ in range(npoints))
              for _ in range(rng.randint(0, 3))}
    while True:
        grown = funcs | {tuple(x * y for x, y in zip(f, g)) for f in funcs for g in funcs}
        if grown == funcs:
            break
        funcs = grown
    return make_sign_space(ARS, [f"p{i}" for i in range(npoints)], sorted(funcs))


def sign_spaces():
    spaces = list(corpus_sign_spaces().values())
    spaces += [mrred_to_ars(a)[0] for a in corpus_real_reduced_multirings().values()]
    spaces += [mrred_to_ars(q2cube())[0]]
    spaces += [mfred_to_aos(f)[0] for f in corpus_real_reduced_multifields().values()]
    rng = random.Random(17)
    spaces += [_random_ars(rng) for _ in range(150)]
    return spaces


def test_ars_cones_in_search_order():
    checked = 0
    for s in sign_spaces():
        if not all(v.passed for v in _ax1_verdicts(s)[:2]):
            continue
        assert _enumerate_ars_cones(s) == reference._enumerate_ars_cones(s)
        checked += 1
    assert checked > 100
