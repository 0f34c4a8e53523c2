"""Exhaustive enumeration of small structures up to isomorphism.

Generation walks zero/one placement, negation, multiplication and then the
free addition cells in depth-first order, pruning with the axiom fragments
that are sound to apply early (forced identity rows, zero membership exactly
at opposite pairs, and full reversibility between decided cells).  Every
table that survives still goes through the full audit.  Survivors are
canonicalized by the lexicographically least serialization over the
relabelings that send the constants to their least indices.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .core import (
    Carrier,
    FiniteMultigroup,
    FiniteMultiring,
    InputError,
    _relabel,
    bits,
    check_multigroup,
    check_multiring,
    classify,
    mask_of,
)

ENUMERABLE_KINDS = ("multigroup", "multiring", "multidomain", "multifield")


def _involutions_fixing(n: int, fixed: int) -> Iterator[tuple[int, ...]]:
    """All involutions of range(n) fixing the given element."""
    elems = [x for x in range(n) if x != fixed]

    def build(rest: list[int], acc: dict[int, int]) -> Iterator[dict[int, int]]:
        if not rest:
            yield dict(acc)
            return
        x = rest[0]
        yield from build(rest[1:], {**acc, x: x})
        for y in rest[1:]:
            yield from build([r for r in rest[1:] if r != y],
                             {**acc, x: y, y: x})

    for mapping in build(elems, {fixed: fixed}):
        yield tuple(mapping[i] for i in range(n))


def _monoid_tables(n: int, zero: int, one: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Commutative, associative tables with forced unit and absorbing zero."""
    free = [x for x in range(n) if x not in (zero, one)]
    cells = [(x, y) for i, x in enumerate(free) for y in free[i:]]

    def fill(idx: int, table: list[list[int]]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if idx == len(cells):
            for a, b, c in itertools.product(range(n), repeat=3):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return
            yield tuple(tuple(r) for r in table)
            return
        x, y = cells[idx]
        for v in range(n):
            table[x][y] = v
            table[y][x] = v
            yield from fill(idx + 1, table)
        table[x][y] = table[y][x] = -1

    base = [[-1] * n for _ in range(n)]
    for a in range(n):
        base[zero][a] = base[a][zero] = zero
        base[one][a] = base[a][one] = a
    yield from fill(0, base)


def _addition_tables(n: int, zero: int,
                     neg: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Commutative set-valued tables with the zero row forced, zero membership
    exactly at opposite pairs, and full reversibility on decided cells.

    Given commutativity and the involution neg, reversibility is the bit
    equation z in x + y <=> x in z + neg(y).  Each new cell is tested against
    every decided cell that equation pairs it with, so only subtrees in which
    every table fails reversibility are cut, and the survivors keep their
    depth-first order."""
    nonzero = [x for x in range(n) if x != zero]
    cells = [(x, y) for i, x in enumerate(nonzero) for y in nonzero[i:]]
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        table[zero][a] = 1 << a
        table[a][zero] = 1 << a
    subsets = [mask_of(nonzero[i] for i in bits(sub))
               for sub in range(1 << len(nonzero))]
    with_zero = [m | (1 << zero) for m in subsets]
    nonempty = subsets[1:]

    def reversible(x: int, y: int) -> bool:
        # an undecided cell is 0; every decided one holds some element
        cell = table[x][y]
        for z in range(n):
            for a, other in ((x, table[z][neg[y]]), (y, table[z][neg[x]])):
                if other and (other >> a & 1) != (cell >> z & 1):
                    return False
        return True

    def fill(idx: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if idx == len(cells):
            yield tuple(tuple(r) for r in table)
            return
        x, y = cells[idx]
        for cell in with_zero if y == neg[x] else nonempty:
            table[x][y] = cell
            table[y][x] = cell
            if reversible(x, y):
                yield from fill(idx + 1)
        table[x][y] = table[y][x] = 0

    yield from fill(0)


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


def generate_multirings(n: int) -> Iterator[FiniteMultiring]:
    """All labeled multirings on n elements passing the full audit."""
    if n == 1:
        yield FiniteMultiring(Carrier(_labels(1)), ((1,),), ((0,),), (0,), 0, 0)
        return
    carrier = Carrier(_labels(n))
    for zero, one in itertools.permutations(range(n), 2):
        for neg in _involutions_fixing(n, zero):
            for mul in _monoid_tables(n, zero, one):
                for add in _addition_tables(n, zero, neg):
                    cand = FiniteMultiring(carrier, add, mul, neg, zero, one)
                    if check_multiring(cand).overall:
                        yield cand


def generate_multigroups(n: int) -> Iterator[FiniteMultigroup]:
    """All labeled commutative multigroups on n elements."""
    carrier = Carrier(_labels(n))
    for identity in range(n):
        for inv in _involutions_fixing(n, identity):
            for op in _addition_tables(n, identity, inv):
                cand = FiniteMultigroup(carrier, op, inv, identity)
                if check_multigroup(cand).overall:
                    yield cand


def _canonical_key(s) -> tuple:
    """Lexicographically least (size, relabelled tables) over all
    relabelings.

    The relabelled tables start with the images of the constants, so only
    the relabelings sending the distinct constants, in order, to 0, 1, ...
    can give the least; the other elements run over every order."""
    n, tables = s.size, s.tables
    fixed = list(dict.fromkeys(tables[0]))

    def relabelled(rest: tuple[int, ...]) -> tuple:
        f = [0] * n
        for new, old in enumerate(fixed + list(rest)):
            f[old] = new
        return _relabel(f, tables)

    return (n,) + min(map(relabelled, itertools.permutations(
        [x for x in range(n) if x not in fixed])))


def multiring_canonical_key(r: FiniteMultiring) -> tuple:
    return _canonical_key(r)


def multigroup_canonical_key(m: FiniteMultigroup) -> tuple:
    return _canonical_key(m)


def multiring_from_key(key: tuple) -> FiniteMultiring:
    n, (zero, one), (neg,), (mul,), (add,) = key
    return FiniteMultiring(Carrier(_labels(n)), add, mul, neg, zero, one)


def multigroup_from_key(key: tuple) -> FiniteMultigroup:
    n, (identity,), (inv,), _, (op,) = key
    return FiniteMultigroup(Carrier(_labels(n)), op, inv, identity)


def enumerate_structures(kind: str, order: int, up_to_iso: bool = True):
    """All structures of the given kind with 1..order elements.

    With up_to_iso one canonical representative per isomorphism class is
    returned; otherwise every labeled structure."""
    if kind not in ENUMERABLE_KINDS:
        raise InputError(f"cannot enumerate kind {kind!r}; "
                         f"supported: {', '.join(ENUMERABLE_KINDS)}")
    if order < 1:
        raise InputError("order must be positive")
    if order > 3:
        raise InputError(
            "enumeration is supported up to order 3 (the addition-table\n"
            "search space grows too fast beyond that)")
    out = []
    seen = set()
    for n in range(1, order + 1):
        if kind == "multigroup":
            for m in generate_multigroups(n):
                if not up_to_iso:
                    out.append(m)
                    continue
                key = multigroup_canonical_key(m)
                if key not in seen:
                    seen.add(key)
                    out.append(multigroup_from_key(key))
            continue
        for r in generate_multirings(n):
            flags = classify(r, verified=True)
            if kind == "multidomain" and not flags.multidomain:
                continue
            if kind == "multifield" and not flags.multifield:
                continue
            if not up_to_iso:
                out.append(r)
                continue
            key = multiring_canonical_key(r)
            if key not in seen:
                seen.add(key)
                out.append(multiring_from_key(key))
    return out
