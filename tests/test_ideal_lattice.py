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
non-commutative.

``localization`` and ``marshall_quotient``, which share one partition
helper with its transitivity audit and, for the Marshall quotient, the
builder of the ring of classes that ``quotient_by_ideal`` reads, are
pinned to their reference versions at every multiplicative set of every
corpus multiring and every labelled multiring of order <= 3, and of seeded
add and mul mutants of q2, K^2 and Z/4, some of which break transitivity.
"""

import dataclasses
import itertools
import random

import pytest

import reference_audits as reference
from multialg import constructions, spectra
from multialg.constructions import (
    Ideal,
    MultiplicativeSet,
    ideal_generated,
    product,
    quotient_by_ideal,
)
from multialg.core import (
    InputError,
    StructuralAnomaly,
    check_multiring,
    krasner,
    mask_of,
    q2,
    ring_multiring,
)
from multialg.corpus import corpus_multirings
from multialg.enumeration import enumerate_structures
from multialg.ordering_spaces import aos_to_mfred, fan_aos


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
    first: dict = {}
    for name, r in named.items():
        first.setdefault(r, name)
    return {name: r for r, name in first.items()}


STRUCTURES = _structures()
SMALL = sorted(name for name, r in STRUCTURES.items() if r.size <= 3)
LARGE = sorted(name for name, r in STRUCTURES.items() if r.size > 3)


def _mutants(base, seed: int, count: int) -> list:
    """Seeded single-cell changes of ``add`` (one bit flipped, the cell kept
    nonempty) or ``mul`` (one product replaced) that FiniteMultiring accepts
    and check_multiring rejects."""
    rng = random.Random(seed)
    out: list = []
    while len(out) < count:
        i, j = rng.randrange(base.size), rng.randrange(base.size)
        if rng.random() < 0.7:
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


@pytest.mark.parametrize("name", sorted(MUTANT_BASES))
def test_mutants_match_reference(name):
    noncommutative = 0
    for i, a in enumerate(MUTANTS[name]):
        _assert_lattice(a, (name, i))
        noncommutative += any(a.add[x][y] != a.add[y][x]
                              for x, y in itertools.combinations(range(a.size), 2))
    assert noncommutative, name


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


def test_fraction_mutants_match_reference():
    """Seeded add and mul mutants of q2, K^2 and Z/4; some break the
    transitivity of fraction equality or of the Marshall relation."""
    broken = 0
    bases = {"q2": q2(), "k^2": product([krasner()] * 2), "z4": ring_multiring(4)}
    for seed, (name, base) in enumerate(sorted(bases.items())):
        for i, a in enumerate(_mutants(base, 100 + seed, 30)):
            broken += _assert_fractions(a, (name, i))
    assert broken
