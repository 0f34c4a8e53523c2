"""The worklist ideal lattice agrees with the closure iteration it replaced.

``reference_audits`` holds ``_ideal_closure``, ``enumerate_ideals`` and
``quotient_by_ideal`` as they were when the closure iterated absorption and
an n^2 sum loop until nothing changed, every (ideal, element) pair was
reclosed from scratch and the quotient imaged every addition cell anew.  The
library must give the same ideal lists in (popcount, mask) order, the same
``ideal_generated`` on generator sets of size <= 2 (all of them up to 16
elements, a seeded sample above), the same quotients
and projections (or the same exception and message), and the same
``check_quotient_characterizations`` and ``spec_topology`` results.  Inputs:
the corpus multirings, every labelled multiring of order <= 3, Z/n for
n <= 64, K^k for k <= 5, q2^k for k <= 3, q2 x K^2 and q2^2 x K.  On K^6 the
64 ideals are checked against the coordinate products of the ideals of K.

The closure must stay exact on tables that break the axioms, so the same
pins run on seeded single-cell mutants of Z/8, q2^2 and the fan-3
multifield that ``FiniteMultiring`` accepts but ``check_multiring`` rejects;
changing one cell of ``add`` and not its mirror makes the addition
non-commutative; seeded ``add`` mutants of Z/6 and q2 x K add bases of
fewer than 8 elements.

``localization`` and ``marshall_quotient``, which share one partition
helper with its transitivity audit and, for the Marshall quotient, the
builder of the ring of classes that ``quotient_by_ideal`` reads, are
pinned to their reference versions at every multiplicative set of every
corpus multiring and every labelled multiring of order <= 3, and of seeded
add and mul mutants of q2, K^2 and Z/4, some of which break transitivity.
That builder, ``_class_ring``, checks that the class operations do not
depend on the representatives, which the reference Marshall quotient never
did: on the mutants it now raises where the oracle at the end of this file
finds a dependence.  The oracle recomputes every class sum, product and
negation pair by pair, with plain loops over the tables, for every quotient
by an ideal, Marshall quotient, ``q_red`` and ``q_t`` of the multirings of
order <= 3, of those mutants and their neg mutants, and of criterion 27's
cases at the cap.
The Marshall quotient, whose relation and sums are read off orbit masks, is
pinned as well at the units, at {1} and at seeded multiplicative sets of
Z/16, Z/24, Z/32, q2 x K^2 and K^4, and at the sums of squares of the fan-4
multifield, through ``q_red``.

``enumerate_preorderings`` walks the closed sets of the closure of the
squares, as the ideal list walks those of the ideal closure; it is pinned
to the subset search of ``reference_searches`` on every candidate multiring
of order <= 3, the corpus multirings, the mutants above, the fan-3 and
fan-4 multifields and Z/16: the same preorderings in the same order.
"""

import collections
import dataclasses
import itertools
import random

import pytest

import reference_audits as reference
import reference_searches
from multialg import constructions, spectra
from multialg.constructions import (
    Ideal,
    MultiplicativeSet,
    ideal_generated,
    product,
    quotient_by_ideal,
    units_mask,
)
from multialg.core import (
    Carrier,
    CheckReport,
    FiniteMultiring,
    InputError,
    StructuralAnomaly,
    Verdict,
    check_multiring,
    classify,
    krasner,
    mask_of,
    q2,
    ring_multiring,
)
from multialg.corpus import corpus_multirings, q2cube
from multialg.enumeration import enumerate_structures
from multialg.ordering_spaces import aos_to_mfred, fan_aos


def _square_zero_ring():
    """F2[x, y]/(x, y)^2: a + bx + cy is element 4a + 2b + c, sums are
    singletons.  Its ideal (x, y) is not principal, so the lattice needs
    joins of principal ideals to reach it."""
    names = tuple("+".join(t for t, on in zip(("1", "x", "y"), (a, b, c)) if on) or "0"
                  for a, b, c in itertools.product((0, 1), repeat=3))

    def times(u, v):
        a, b, c, d, e, f = u >> 2, u >> 1 & 1, u & 1, v >> 2, v >> 1 & 1, v & 1
        return 4 * (a & d) + 2 * ((a & e) ^ (b & d)) + ((a & f) ^ (c & d))

    add = tuple(tuple(1 << (u ^ v) for v in range(8)) for u in range(8))
    mul = tuple(tuple(times(u, v) for v in range(8)) for u in range(8))
    return FiniteMultiring(Carrier(names), add, mul, tuple(range(8)), 0, 4)


def _structures() -> dict:
    k, s = krasner(), q2()
    named = dict(corpus_multirings())
    for order in (1, 2, 3):
        for i, r in enumerate(enumerate_structures("multiring", order,
                                                   up_to_iso=False)):
            named[f"mr{order}_{i}"] = r
    for n in range(1, 65):
        named[f"z{n}"] = ring_multiring(n)
    for j in range(1, 6):
        named[f"k^{j}"] = product([k] * j)
    for j in range(1, 4):
        named[f"q2^{j}"] = product([s] * j)
    named["q2xk^2"] = product([s, k, k])
    named["q2^2xk"] = product([s, s, k])
    named["f2[x,y]/(x,y)^2"] = _square_zero_ring()
    first: dict = {}
    for name, r in named.items():
        first.setdefault(r, name)
    return {name: r for r, name in first.items()}


STRUCTURES = _structures()
SMALL = sorted(name for name, r in STRUCTURES.items() if r.size <= 3)
LARGE = sorted(name for name, r in STRUCTURES.items() if r.size > 3)


def _mutants(base, seed: int, count: int, add_share: float = 0.7) -> list:
    """Seeded single-cell changes of ``add`` (one bit flipped, the cell kept
    nonempty; a share ``add_share`` of the draws) or ``mul`` (one product
    replaced) that FiniteMultiring accepts and check_multiring rejects."""
    rng = random.Random(seed)
    out: list = []
    while len(out) < count:
        i, j = rng.randrange(base.size), rng.randrange(base.size)
        if rng.random() < add_share:
            table, cell = "add", base.add[i][j] ^ (1 << rng.randrange(base.size))
        else:
            table, cell = "mul", rng.randrange(base.size)
        rows = [list(row) for row in getattr(base, table)]
        if not cell or cell == rows[i][j]:
            continue
        rows[i][j] = cell
        try:
            m = dataclasses.replace(base, **{table: tuple(map(tuple, rows))})
        except InputError:
            continue
        if not check_multiring(m).overall and m not in out:
            out.append(m)
    return out


MUTANT_BASES = {
    "z8": ring_multiring(8),
    "q2^2": product([q2(), q2()]),
    "fan3mf": aos_to_mfred(fan_aos(3)),
}
MUTANTS = {name: _mutants(base, seed, 40)
           for seed, (name, base) in enumerate(sorted(MUTANT_BASES.items()))}
# Add mutants below 8 elements.
SMALL_MUTANT_BASES = {
    "z6": ring_multiring(6),
    "q2xk": product([q2(), krasner()]),
}
MUTANTS.update(
    (name, _mutants(base, 10 + seed, 40, add_share=1.0))
    for seed, (name, base) in enumerate(sorted(SMALL_MUTANT_BASES.items())))
MUTANTS["f2[x,y]/(x,y)^2"] = _mutants(_square_zero_ring(), 20, 40)


def _outcome(call, *args):
    try:
        return call(*args)
    except (InputError, StructuralAnomaly) as exc:
        return type(exc).__name__, str(exc)


def _reference_generated(a, labels):
    return Ideal(a, reference._ideal_closure(
        a, mask_of(a.carrier.index(l) for l in labels)))


def _generator_sets(a) -> list:
    """Every generator set of size <= 2 up to 16 elements; above that the
    empty set and 8 seeded sets of each size 1 and 2, since one reference
    closure costs up to 2.4 ms at 64 elements."""
    singles = list(itertools.combinations(a.names, 1))
    pairs = list(itertools.combinations(a.names, 2))
    if a.size > 16:
        rng = random.Random(a.size)
        singles, pairs = rng.sample(singles, 8), rng.sample(pairs, 8)
    return [()] + singles + pairs


def _assert_lattice(a, label) -> list:
    """Ideal list, ideal_generated and the quotient by every ideal, against
    the reference; returns the reference's ideal list."""
    expected = reference.enumerate_ideals(a)
    assert spectra.enumerate_ideals(a) == expected, label
    for gens in _generator_sets(a):
        assert _outcome(ideal_generated, a, gens) == \
            _outcome(_reference_generated, a, gens), (label, gens)
    for ideal in expected:
        assert _outcome(quotient_by_ideal, a, ideal) == \
            _outcome(reference.quotient_by_ideal, a, ideal), (label, ideal.labels)
    return expected


def _spectra_results(a) -> tuple:
    spec = spectra.spec_topology(a)
    return (_outcome(spectra.check_quotient_characterizations, a),
            spec.report, spec.primes, spec.basic_opens)


def _assert_spectra(a, expected, label, monkeypatch):
    """The quotient characterisations and the spectrum topology, with the
    reference's ideal list (computed once) and quotients patched in."""
    new = _spectra_results(a)
    monkeypatch.setattr(spectra, "enumerate_ideals", lambda _: list(expected))
    monkeypatch.setattr(spectra, "quotient_by_ideal", reference.quotient_by_ideal)
    old = _spectra_results(a)
    monkeypatch.undo()
    assert new == old, label


def test_small_multirings_match_reference(monkeypatch):
    for name in SMALL:
        a = STRUCTURES[name]
        _assert_spectra(a, _assert_lattice(a, name), name, monkeypatch)


@pytest.mark.parametrize("name", LARGE)
def test_lattice_matches_reference(name, monkeypatch):
    a = STRUCTURES[name]
    _assert_spectra(a, _assert_lattice(a, name), name, monkeypatch)


def test_k6_ideals_are_coordinate_products():
    k = krasner()
    factors = [k] * 6
    k6 = product(factors)
    tuples = list(itertools.product(*(range(f.size) for f in factors)))
    assert k6.names == tuple("(" + ",".join(k.names[i] for i in t) + ")"
                             for t in tuples)
    k_ideals = [1 << k.zero, (1 << k.size) - 1]
    expected = set()
    for choice in itertools.product(k_ideals, repeat=6):
        expected.add(sum(1 << x for x, t in enumerate(tuples)
                         if all((m >> i) & 1 for m, i in zip(choice, t))))
    got = [i.members for i in spectra.enumerate_ideals(k6)]
    assert len(expected) == 64
    assert got == sorted(expected, key=lambda m: (m.bit_count(), m))


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_match_reference(name):
    noncommutative = 0
    for i, a in enumerate(MUTANTS[name]):
        _assert_lattice(a, (name, i))
        noncommutative += any(a.add[x][y] != a.add[y][x]
                              for x, y in itertools.combinations(range(a.size), 2))
    assert noncommutative, name


def _characterizations_at_every_quotient(a):
    """``check_quotient_characterizations`` with no shortcut at {0}: every
    quotient is built and classified, which raises when it fails the
    multiring audit."""
    ideals = spectra.enumerate_ideals(a)
    primes = {i.members for i in ideals if spectra.is_prime_mask(a, i.members)}
    maximals = {i.members for i in spectra._maximal_ideals(ideals)}
    w_prime = w_max = w_chain = None
    for ideal in ideals:
        q, _ = quotient_by_ideal(a, ideal)
        kind, nondeg = classify(q), q.one != q.zero
        if w_prime is None and (ideal.members in primes) != (kind.multidomain and nondeg):
            w_prime = ideal.labels
        if w_max is None and (ideal.members in maximals) != (kind.multifield and nondeg):
            w_max = ideal.labels
        if w_chain is None and ideal.members in maximals - primes:
            w_chain = ideal.labels
    return CheckReport("quotient characterizations", tuple(
        Verdict(axiom, w is None, w) for axiom, w in (
            ("prime-iff-multidomain", w_prime), ("maximal-iff-multifield", w_max),
            ("maximal-implies-prime", w_chain))))


def test_zero_ideal_shortcut_matches_every_quotient():
    """The quotient by {0} is classified from the structure itself when the
    structure passes its audit; on the corpus multirings, every labelled
    multiring of order <= 3 and the seeded add and mul mutants, each run on
    a fresh copy and on one already audited, the report (or the exception)
    equals the one of classifying every quotient."""
    inputs = list(corpus_multirings().values()) + [
        STRUCTURES[name] for name in SMALL if name.startswith("mr")]
    inputs += [m for name in sorted(MUTANTS) for m in MUTANTS[name]]
    outcomes = collections.Counter()
    for i, a in enumerate(inputs):
        expected = _outcome(_characterizations_at_every_quotient, dataclasses.replace(a))
        audited = dataclasses.replace(a)
        check_multiring(audited)
        for b in (dataclasses.replace(a), audited):
            assert _outcome(spectra.check_quotient_characterizations, b) == expected, i
        outcomes[type(expected).__name__] += 1
    assert outcomes["CheckReport"] > 40 and outcomes["tuple"] > 100, outcomes


def _negation_mutants(base) -> list:
    """Every single change of ``neg`` that check_multiring rejects."""
    out = []
    for x, y in itertools.product(range(base.size), repeat=2):
        if y != base.neg[x]:
            neg = base.neg[:x] + (y,) + base.neg[x + 1:]
            m = dataclasses.replace(base, neg=neg)
            if not check_multiring(m).overall:
                out.append(m)
    return out


def test_negation_mutants_match_reference():
    """The quotient's negation check: ideal lists and quotients on every
    single-entry neg mutant of Z/6 and q2 x K, some of which make the
    quotient's negation depend on representatives."""
    anomalies = 0
    for name, base in sorted(SMALL_MUTANT_BASES.items()):
        for i, a in enumerate(_negation_mutants(base)):
            for ideal in _assert_lattice(a, (name, i)):
                got = _outcome(quotient_by_ideal, a, ideal)
                anomalies += "negation depends" in str(got)
    assert anomalies


def test_ideal_constructor_matches_its_loops():
    """Ideal accepts a mask, or raises the same message, exactly as the
    element-by-element loops do: every mask of the multirings of order <= 6
    here, of the add mutants below 8 elements and of Z/8's mutants."""
    rings = [r for r in STRUCTURES.values() if r.size <= 6]
    rings += MUTANTS["z6"] + MUTANTS["q2xk"] + MUTANTS["z8"]
    rejected = {}
    for a in rings:
        for m in range(1 << a.size):
            got = _outcome(lambda: Ideal(a, m) and None)
            assert got == _outcome(reference.check_ideal, a, m), (a.names, m)
            if got:
                rejected[got[1].split(" at ")[0]] = True
    assert set(rejected) == {"ideal must contain 0", "not sum-closed",
                             "not absorbing"}


def test_some_ideals_are_not_principal():
    """The lattice reaches ideals that no single element generates, so its
    joins are pinned above, on the ring and on its mutants."""
    def joins(a) -> int:
        principal = {ideal_generated(a, [x]).members for x in a.names}
        return sum(i.members not in principal for i in spectra.enumerate_ideals(a))

    assert joins(STRUCTURES["f2[x,y]/(x,y)^2"]) == 1
    assert sum(map(joins, MUTANTS["f2[x,y]/(x,y)^2"])) > 10


def test_enumerate_ideals_returns_a_fresh_list():
    a = product([q2(), krasner()])
    first = spectra.enumerate_ideals(a)
    expected = list(first)
    first.pop()
    first.reverse()
    assert spectra.enumerate_ideals(a) == expected
    assert spectra.enumerate_ideals(a) is not spectra.enumerate_ideals(a)
    assert list(spectra.spec_topology(a).primes) == spectra.enumerate_primes(a)
    assert spectra.enumerate_primes(a) == \
        [i for i in expected if spectra.is_prime_mask(a, i.members)]


def _multiplicative_sets(a) -> list:
    """Every subset of the carrier that contains 1 and is closed under
    products, by mask."""
    out = []
    for mask in range(1 << a.size):
        try:
            out.append(MultiplicativeSet(a, mask))
        except InputError:
            pass
    return out


def _assert_fractions(a, label) -> int:
    """``localization`` and ``marshall_quotient`` at every multiplicative
    set: the tables, the projection and any exception's text equal the
    reference's.  Returns how many calls raised a transitivity anomaly."""
    broken = 0
    for s in _multiplicative_sets(a):
        for name in ("localization", "marshall_quotient"):
            got = _outcome(getattr(constructions, name), a, s)
            assert got == _outcome(getattr(reference, name), a, s), \
                (label, name, s.labels)
            broken += "not transitive" in str(got)
    return broken


def test_fractions_and_marshall_quotients_match_reference():
    """Every corpus multiring and every labelled multiring of order <= 3."""
    corpus = dict(corpus_multirings())
    names = [name for name, r in STRUCTURES.items()
             if name in corpus or r.size <= 3]
    assert set(corpus) <= set(names)
    for name in names:
        _assert_fractions(STRUCTURES[name], name)


def _fraction_mutants() -> dict:
    bases = {"q2": q2(), "k^2": product([krasner()] * 2), "z4": ring_multiring(4)}
    return {name: _mutants(base, 100 + seed, 30)
            for seed, (name, base) in enumerate(sorted(bases.items()))}


FRACTION_MUTANTS = _fraction_mutants()


def test_fraction_mutants_match_reference():
    """Seeded add and mul mutants of q2, K^2 and Z/4; some break the
    transitivity of fraction equality or of the Marshall relation.  The
    reference Marshall quotient read the class operations at the
    representatives only; where the oracle below finds one that depends on
    them, ``marshall_quotient`` raises at the first pair instead, unless the
    quotient's constructor raises InputError first, as the reference did."""
    broken, raised = 0, collections.Counter()
    for name, mutants in FRACTION_MUTANTS.items():
        for i, a in enumerate(mutants):
            for s in _multiplicative_sets(a):
                got = _outcome(constructions.localization, a, s)
                assert got == _outcome(reference.localization, a, s), (name, i)
                broken += "not transitive" in str(got)
                got = _outcome(constructions.marshall_quotient, a, s)
                old = _outcome(reference.marshall_quotient, a, s)
                broken += "not transitive" in str(got)
                expected = _expected_marshall_quotient(a, s.members)
                if isinstance(expected, str) and expected != "partition" \
                        and old[0] != "InputError":
                    assert got == ("StructuralAnomaly", expected), (name, i)
                    raised[name, expected.split()[1]] += 1
                else:
                    assert got == old, (name, i, s.labels)
    assert broken
    assert raised == {("k^2", "sum"): 19, ("k^2", "product"): 6,
                      ("q2", "sum"): 2, ("q2", "product"): 5,
                      ("z4", "sum"): 2, ("z4", "product"): 4}, raised
    assert sum(raised.values()) == 38


def _seeded_multiplicative_sets(a, seed: int, count: int = 4) -> list:
    """{1}, the units and ``count`` seeded sets: one to three random
    elements and 1, closed under products."""
    rng = random.Random(seed)
    masks = [1 << a.one, units_mask(a)]
    for _ in range(count):
        members = {a.one, *rng.sample(range(a.size), rng.randint(1, 3))}
        grown = True
        while grown:
            products = {a.mul[x][y] for x in members for y in members}
            grown = not products <= members
            members |= products
        masks.append(mask_of(members))
    return [MultiplicativeSet(a, m) for m in dict.fromkeys(masks)]


def test_marshall_quotients_at_the_cap_match_reference():
    k = krasner()
    bases = {"z16": ring_multiring(16), "z24": ring_multiring(24),
             "z32": ring_multiring(32), "q2xk^2": product([q2(), k, k]),
             "k^4": product([k] * 4)}
    for seed, (name, a) in enumerate(sorted(bases.items())):
        for s in _seeded_multiplicative_sets(a, 200 + seed):
            assert _outcome(constructions.marshall_quotient, a, s) == \
                _outcome(reference.marshall_quotient, a, s), (name, s.labels)
    f = aos_to_mfred(fan_aos(4))
    sums = reference.sum_of_squares_closure(f).as_multiplicative_set()
    assert constructions.q_red(f) == reference.marshall_quotient(f, sums)


def test_preorderings_match_reference():
    rings = list(reference_searches.candidate_multirings())
    rings += list(corpus_multirings().values())
    rings += [m for name in sorted(MUTANTS) for m in MUTANTS[name]]
    rings += [aos_to_mfred(fan_aos(3)), aos_to_mfred(fan_aos(4)), ring_multiring(16)]
    assert len(rings) == 616 + len(corpus_multirings()) + 240 + 3
    for i, a in enumerate(rings):
        assert spectra.enumerate_preorderings(a) == \
            reference_searches.enumerate_preorderings(a), (i, a.names)


# ---------------------------------------------------------------------------
# An oracle for every quotient, in plain loops over the tables

def _members(mask: int) -> list:
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


def _expected_quotient(a, classes, meets):
    """What a quotient of ``a`` must give, recomputed pair by pair: the
    classes ``classes`` (sets of elements, or None when the relation does
    not partition a), [x] + [y] the classes of the elements ``meets(x, y)``,
    [x][y] = [xy] and -[x] = [-x].  Returns "partition" when there are no
    classes; else the message naming the first (x, y), in row order, where
    the sum, then the product, then the negation read at x and y differs
    from the one read at their least representatives; else the quotient's
    names, tables and projection."""
    if classes is None:
        return "partition"
    ordered = sorted(classes, key=min)
    cls = {x: k for k, c in enumerate(ordered) for x in c}
    reps = [min(c) for c in ordered]

    def sum_classes(x, y):
        return {cls[c] for c in meets(x, y)}

    for x in range(a.size):
        r = reps[cls[x]]
        for y in range(a.size):
            s = reps[cls[y]]
            at = f"({a.names[x]},{a.names[y]})"
            if sum_classes(x, y) != sum_classes(r, s):
                return f"quotient sum depends on representatives at {at}"
            if cls[a.mul[x][y]] != cls[a.mul[r][s]]:
                return f"quotient product depends on representatives at {at}"
            if cls[a.neg[x]] != cls[a.neg[r]]:
                return f"quotient negation depends on representatives at {a.names[x]}"
    return (tuple(f"[{a.names[r]}]" for r in reps),
            tuple(tuple(sum(1 << k for k in sum_classes(r, s)) for s in reps)
                  for r in reps),
            tuple(tuple(cls[a.mul[r][s]] for s in reps) for r in reps),
            tuple(cls[a.neg[r]] for r in reps), cls[a.zero], cls[a.one],
            tuple(cls[x] for x in range(a.size)))


def _expected_ideal_quotient(a, ideal: int):
    """A/I: the cosets x + I, which must partition a, and [x] + [y] the
    classes that x + y meets."""
    cosets = [frozenset(c for i in _members(ideal) for c in _members(a.add[x][i]))
              for x in range(a.size)]
    if any(x not in cosets[x] for x in range(a.size)) or any(
            p != q and p & q for p in cosets for q in cosets):
        return "partition"
    return _expected_quotient(a, set(cosets), lambda x, y: _members(a.add[x][y]))


def _expected_marshall_quotient(a, s: int):
    """A/S: x ~ y when the orbits xS and yS meet, which must be transitive,
    and [c] in [x] + [y] when cS meets xs + yt for some s, t in S."""
    orbits = [frozenset(a.mul[x][u] for u in _members(s)) for x in range(a.size)]
    related = [frozenset(y for y in range(a.size) if orbits[x] & orbits[y])
               for x in range(a.size)]
    if any(related[x] != related[y] for x in range(a.size) for y in related[x]):
        return "partition"
    sums: dict = {}

    def meets(x, y):
        key = orbits[x], orbits[y]
        if key not in sums:
            cells = {c for u in orbits[x] for v in orbits[y]
                     for c in _members(a.add[u][v])}
            sums[key] = [c for c in range(a.size) if orbits[c] & cells]
        return sums[key]

    return _expected_quotient(a, set(related), meets)


def _square_sums(a) -> int:
    """The closure of the unit squares under products and sums."""
    members = {a.mul[x][x] for x in range(a.size) if a.one in a.mul[x]}
    while True:
        grown = members | {a.mul[x][y] for x in members for y in members} | {
            c for x in members for y in members for c in _members(a.add[x][y])}
        if grown == members:
            return sum(1 << c for c in members)
        members = grown


def _outcome_or_tables(call, *args):
    """The StructuralAnomaly's message, or the quotient's names, tables and
    projection; an InputError propagates."""
    try:
        q, proj = call(*args)
    except StructuralAnomaly as exc:
        return str(exc)
    return q.names, q.add, q.mul, q.neg, q.zero, q.one, proj.mapping


def _assert_quotient(expect, call, *args) -> str:
    """Unless the call raises InputError ("skipped"), it gives what the
    oracle ``expect()`` expects: its anomaly, its quotient, or an anomaly of
    the partition.  Returns the anomaly's kind, or "" when none."""
    try:
        got = _outcome_or_tables(call, *args)
    except InputError:
        return "skipped"
    expected = expect()
    if expected == "partition":
        assert isinstance(got, str) and ("overlap" in got or "transitive" in got), got
        return ""
    assert got == expected, (call.__name__, got, expected)
    return expected.split()[1] if isinstance(expected, str) else ""


def _assert_quotients(a) -> collections.Counter:
    """Every quotient of ``a`` against the oracle: by each ideal, at each
    multiplicative set, q_red and q_t at each preordering."""
    kinds = collections.Counter()
    for mask in range(1 << a.size):
        try:
            ideal = Ideal(a, mask)
        except InputError:
            continue
        kinds[_assert_quotient(lambda: _expected_ideal_quotient(a, mask),
                               quotient_by_ideal, a, ideal)] += 1
    for s in _multiplicative_sets(a):
        kinds[_assert_quotient(lambda: _expected_marshall_quotient(a, s.members),
                               constructions.marshall_quotient, a, s)] += 1
    kinds.update(_assert_cones(a, spectra.enumerate_preorderings(a)))
    return kinds


def _assert_cones(a, cones) -> collections.Counter:
    """q_red, and q_t at each of the preorderings ``cones``."""
    squares = _square_sums(a)
    if squares >> a.zero & 1 or squares >> a.neg[a.one] & 1:
        with pytest.raises(InputError, match="not real"):
            constructions.q_red(a)
        kinds = collections.Counter(["skipped"])
    else:
        kinds = collections.Counter([_assert_quotient(
            lambda: _expected_marshall_quotient(a, squares), constructions.q_red, a)])
    for t in cones:
        kinds[_assert_quotient(
            lambda: _expected_marshall_quotient(a, t.cone & ~(1 << a.zero)),
            spectra.q_t, a, t)] += 1
    return kinds


def test_quotients_match_oracle_on_small_multirings_and_mutants():
    """Every multiring of order <= 3, the seeded mutants of q2, K^2 and Z/4
    and their single-entry neg mutants: every quotient raises exactly where
    a class operation depends on the representatives, at the first pair,
    and is the oracle's elsewhere."""
    kinds = collections.Counter()
    for name in SMALL:
        kinds += _assert_quotients(STRUCTURES[name])
    assert set(kinds) <= {"", "skipped"}, kinds
    mutants = [a for name in sorted(FRACTION_MUTANTS) for a in FRACTION_MUTANTS[name]]
    for base in (q2(), product([krasner()] * 2), ring_multiring(4)):
        mutants += _negation_mutants(base)
    for a in mutants:
        kinds += _assert_quotients(a)
    assert kinds["sum"] and kinds["product"] and kinds["negation"], kinds
    assert kinds[""] > 1000, kinds


def test_quotients_match_oracle_at_the_cap():
    """Criterion 27's cases: the Marshall quotient at the units of Z/64, and
    q_red and q_t at every preordering of q2^3, the fan-5 multifield and
    Z/64."""
    z64 = ring_multiring(64)
    s = MultiplicativeSet(z64, units_mask(z64))
    assert _assert_quotient(lambda: _expected_marshall_quotient(z64, s.members),
                            constructions.marshall_quotient, z64, s) == ""
    kinds = collections.Counter()
    for a, count in ((q2cube(), 8), (aos_to_mfred(fan_aos(5)), 32), (z64, 1)):
        cones = spectra.enumerate_preorderings(a)
        assert len(cones) == count
        kinds += _assert_cones(a, cones)
    # q_t refuses q2^3's cones and Z/64's, whose nonzero part is not
    # multiplicatively closed, and q_red refuses Z/64, which is not real.
    assert kinds == {"": 34, "skipped": 10}, kinds
