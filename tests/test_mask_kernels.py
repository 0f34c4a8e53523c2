"""Core's three mask kernels against brute force, and the sums-of-squares
closures built on them against the loops they replaced.

``_fibres``, ``_Unions`` and ``_closure`` are checked against direct
definitions on seeded random tables of 1 to 64 elements: lines with
arbitrary values, some past the line's length, mask tables with empty cells and no symmetry, so the
closure must read each table in both orders, and ``closed`` masks that are
themselves closures.

``reference_audits`` keeps ``sums_of_squares_set`` and
``sum_of_squares_closure`` as they were before both became ``_closure``
calls: each ORed in the cells of every pair of members until a pass added
nothing.  The library must return the same masks and ``SquareClosure``s on
the structures of ``tests/test_ideal_lattice.py`` (the corpus multirings,
every labelled multiring of order <= 3, Z/n for n <= 64, K^k for k <= 5,
q2^k for k <= 3 and three mixed products) and on its seeded single-cell
``add`` and ``mul`` mutants, which are not commutative.
"""

import dataclasses
import random

import pytest

import reference_audits as reference
from multialg import constructions, spectra
from multialg.core import _closure, _fibres, _Unions, bits
from test_ideal_lattice import MUTANTS, STRUCTURES

SIZES = (1, 2, 3, 5, 7, 8, 9, 16, 17, 31, 33, 64)


def _random_table(rng, n: int, density: float) -> list:
    return [[sum(1 << c for c in range(n) if rng.random() < density)
             for _ in range(n)] for _ in range(n)]


def _naive_closure(tables, lines, base: int, members: int) -> int:
    """Add cells of pairs of members, both orders, and lines of members,
    until nothing changes."""
    out = members | base
    while True:
        grown = out
        for x in bits(out):
            grown |= lines[x] if lines else 0
            for y in bits(out):
                for table in tables:
                    grown |= table[x][y] | table[y][x]
        if grown == out:
            return out
        out = grown


@pytest.mark.parametrize("n", SIZES)
def test_fibres_are_the_preimages_of_each_value(n):
    rng = random.Random(n)
    lines = [[rng.randrange(n) for _ in range(n)] for _ in range(4)]
    lines.append(list(range(n)))
    lines.append([0] * n)
    expected = [tuple(sum(1 << j for j in range(n) if line[j] == v)
                      for v in range(n)) for line in lines]
    assert _fibres(lines) == expected
    assert _fibres(iter(lines)) == expected


@pytest.mark.parametrize("n", SIZES)
def test_fibres_run_to_the_largest_value(n):
    """Lines whose values run past their length, as a sign map on one or
    two functions or a map into a larger carrier: one fibre per value up to
    the largest, empty where no entry takes it."""
    rng = random.Random(200 + n)
    lines = [[rng.randrange(3 * n) for _ in range(n)] for _ in range(4)]
    lines += [[n] * n, [2 * n + 1] + [0] * (n - 1), []]
    expected = [tuple(sum(1 << j for j in range(len(line)) if line[j] == v)
                      for v in range(max(len(line), max(line, default=-1) + 1)))
                for line in lines]
    assert _fibres(lines) == expected
    assert [len(f) for f in expected[4:]] == [n + 1, 2 * n + 2, 0]


@pytest.mark.parametrize("n", SIZES)
def test_unions_or_the_values_of_each_element(n):
    rng = random.Random(100 + n)
    values = [rng.getrandbits(70) for _ in range(n)]
    unions = _Unions(values)
    assert unions[0] == 0
    for _ in range(50):
        mask = rng.getrandbits(n)
        expected = 0
        for x in range(n):
            if mask >> x & 1:
                expected |= values[x]
        assert unions[mask] == expected


@pytest.mark.parametrize("n", SIZES)
def test_closure_is_the_least_closed_superset(n):
    rng = random.Random(200 + n)
    for trial in range(12):
        density = rng.choice((0.0, 0.02, 0.1, 0.3)) * 8 / max(n, 8)
        tables = [_random_table(rng, n, density) for _ in range(trial % 3)]
        lines = ([rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                  for _ in range(n)] if trial % 2 else ())
        base = rng.getrandbits(n) & rng.getrandbits(n) if trial % 4 == 3 else 0
        close = _closure(tables, lines, base)
        for _ in range(4):
            members = 1 << rng.randrange(n) if rng.random() < 0.5 \
                else rng.getrandbits(n) & rng.getrandbits(n)
            expected = _naive_closure(tables, lines, base, members)
            assert close(members) == expected, (n, trial, members)
            # a closed mask given as ``closed`` counts as expanded
            more = 1 << rng.randrange(n)
            assert close(more, expected) == \
                _naive_closure(tables, lines, base, expected | more)


def test_closure_with_lines_only_is_reachability():
    rng = random.Random(7)
    k = 150  # wider than the carrier cap, as the triple-group rows are
    rows = [rng.getrandbits(k) & rng.getrandbits(k) & rng.getrandbits(k)
            & rng.getrandbits(k) for _ in range(k)]
    close = _closure((), rows)
    for i in range(0, k, 7):
        seen, frontier = {i}, [i]
        while frontier:
            for j in bits(rows[frontier.pop()]):
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        assert close(1 << i) == sum(1 << j for j in seen)


def _assert_sums_of_squares(a, label):
    assert spectra.sums_of_squares_set(a) == reference.sums_of_squares_set(a), label
    assert constructions.sum_of_squares_closure(a) == \
        reference.sum_of_squares_closure(a), label


def test_sums_of_squares_match_reference():
    for name, a in sorted(STRUCTURES.items()):
        _assert_sums_of_squares(a, name)


def test_mutants_include_non_commutative_add_and_mul():
    mutants = [m for ms in MUTANTS.values() for m in ms]
    assert any(m.add != tuple(zip(*m.add)) for m in mutants)
    assert any(m.mul != tuple(zip(*m.mul)) for m in mutants)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_sums_of_squares_match_reference_on_mutants(name):
    for i, a in enumerate(MUTANTS[name]):
        _assert_sums_of_squares(a, (name, i))


def test_sums_of_squares_match_reference_on_product_mutants():
    """One product of two members of the closure of the unit squares sent
    outside it, in one order only, on every structure of 4 or more
    elements whose closure is neither empty nor everything: the closure
    must read both orders of the products as well as of the sums."""
    changed = 0
    for name, base in sorted(STRUCTURES.items()):
        inside = reference.sum_of_squares_closure(base).members
        members = list(bits(inside))
        outside = [c for c in range(base.size) if not inside >> c & 1]
        if base.size < 4 or not members or not outside:
            continue
        rng = random.Random(name)
        for _ in range(10):
            rows = [list(row) for row in base.mul]
            x, y = rng.choice(members), rng.choice(members)
            rows[x][y] = rng.choice(outside)
            a = dataclasses.replace(base, mul=tuple(map(tuple, rows)))
            _assert_sums_of_squares(a, (name, x, y))
            changed += reference.sum_of_squares_closure(a).members != inside
    assert changed > 50
