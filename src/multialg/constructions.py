"""Multiring-building constructions: products, quotients by ideals,
localizations, fraction multifields, Marshall quotients and the reduced
quotient at sums of unit squares.  The componentwise product reads the
factors' ``tables``, so it serves real semigroups too; the zero adjunction
of a group of exponent 2 serves both functors into multifields.

Constructions that the theory assumes to be well defined (coset partitions,
transitivity of the Marshall relation, representative independence) are
verified on each instance; a violation raises StructuralAnomaly with the
offending elements instead of silently producing garbage.  Localizations
and Marshall quotients partition through one helper, ``_partition``, which
also audits transitivity.  The quotients by an ideal and by the Marshall
relation (so ``q_red``) build the ring of classes and the projection through
``_class_ring``, the one check of their representative independence;
``localization``, on fraction pairs, keeps its own.  The ideal closure and
the closure of the unit squares are core's ``_closure``; the core docstring
describes it.  The quotients by ideals of one multiring share one expansion
of its addition, kept on it (``_addition_cells``): each distinct cell with
its elements, the table as indices of those cells, and the unions of its
columns, which give the cosets x + I.  Each quotient images the distinct
cells with one ``reduce`` over ``map`` of the class bits, and the rows with
``map``.  The Marshall quotient works on the orbit masks xS:
x ~ y when the orbits meet, and a sum is one ``_CellUnion`` of addition rows
over xS read at yS, whose elements c with cS meeting it and their classes
come from two ``_Unions``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, count, repeat
from operator import ne, or_
from typing import Callable, Sequence

from .core import (
    CARRIER_CAP,
    Carrier,
    FiniteMultiring,
    InputError,
    StructureMap,
    StructuralAnomaly,
    _CellUnion,
    _Elements,
    _Unions,
    _bit_flags,
    _closure,
    _kept,
    _transposed,
    bits,
    classify,
    full_mask,
    mask_of,
)


@dataclass(frozen=True)
class Ideal:
    """Subset containing 0, closed under set-valued sums, absorbing products."""

    parent: FiniteMultiring
    members: int

    def __post_init__(self) -> None:
        a = self.parent
        m = self.members
        if not (m >> a.zero) & 1:
            raise InputError("ideal must contain 0")
        if m & ~full_mask(a.size):
            raise InputError("ideal members outside carrier")
        # I + I and the products with I, read off whole rows at once; the
        # loops below only name the first failing pair.
        inside = _bit_flags(m)
        sums = chain.from_iterable(map(compress, compress(a.add, inside),
                                       repeat(inside)))
        products = chain.from_iterable(map(compress, a.mul, repeat(inside)))
        if not reduce(or_, sums, 0) & ~m and set(products) <= set(bits(m)):
            return
        for x in bits(m):
            for y in bits(m):
                if a.add[x][y] & ~m:
                    raise InputError(
                        f"not sum-closed at ({a.names[x]},{a.names[y]})")
        for x in range(a.size):
            for y in bits(m):
                if not (m >> a.mul[x][y]) & 1:
                    raise InputError(
                        f"not absorbing at ({a.names[x]},{a.names[y]})")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.parent.carrier.labels(self.members)

    def is_proper(self) -> bool:
        return not (self.members >> self.parent.one) & 1


@dataclass(frozen=True)
class MultiplicativeSet:
    """Subset containing 1 and closed under multiplication."""

    parent: FiniteMultiring
    members: int

    def __post_init__(self) -> None:
        a = self.parent
        m = self.members
        if not (m >> a.one) & 1:
            raise InputError("multiplicative set must contain 1")
        if m & ~full_mask(a.size):
            raise InputError("members outside carrier")
        for x in bits(m):
            for y in bits(m):
                if not (m >> a.mul[x][y]) & 1:
                    raise InputError(
                        f"not multiplicatively closed at "
                        f"({a.names[x]},{a.names[y]})")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.parent.carrier.labels(self.members)


def multiplicative_set(a: FiniteMultiring, labels: Sequence[str]) -> MultiplicativeSet:
    return MultiplicativeSet(a, mask_of(a.carrier.index(l) for l in labels))


# ---------------------------------------------------------------------------
# products and the zero adjunction

def _cell_product(s: Sequence[Sequence[int]], t: Sequence[Sequence[int]],
                  m: int) -> list[list[int]]:
    """The cells of the pairs (x, y) = x*m + y, t over m elements: cell
    s[x][x'] with bit c moved to bit c*m, times t[y][y'], masks the pairs."""
    wide = [[sum(1 << c * m for c in bits(cell)) for cell in row] for row in s]
    return [[w * c for w in row_s for c in row_t] for row_s in wide for row_t in t]


def _product_tables(factors: Sequence) -> tuple[Carrier, tuple]:
    """The componentwise product of nonempty ``factors`` of one kind, read
    off their ``tables``: the carrier of the tuples in lexicographic order,
    labelled "(x,y,...)", and (constants, unary, value, cell tables).  The
    factors are folded in one at a time; with m elements in the next one,
    the pair (x, y) is element x*m + y, which keeps the lexicographic
    order."""
    total = 1
    for f in factors:
        total *= f.size
    if total > CARRIER_CAP:
        raise InputError(f"product size {total} exceeds cap {CARRIER_CAP}")
    names = tuple("(" + ",".join(t) + ")"
                  for t in itertools.product(*(f.names for f in factors)))
    constants, unary, values, cells = factors[0].tables
    for f in factors[1:]:
        m = f.size
        constants2, unary2, values2, cells2 = f.tables
        constants = tuple(x * m + y for x, y in zip(constants, constants2))
        unary = tuple([x * m + y for x in s for y in t]
                      for s, t in zip(unary, unary2))
        values = tuple([[x * m + y for x in r for y in q] for r in s for q in t]
                       for s, t in zip(values, values2))
        cells = tuple(map(_cell_product, cells, cells2, itertools.repeat(m)))
    return Carrier(names), (constants, unary, values, cells)


def product(factors: Sequence[FiniteMultiring]) -> FiniteMultiring:
    """Componentwise product; the empty product is the one-element 1=0 ring."""
    if not factors:
        return FiniteMultiring(Carrier(("0",)), ((1,),), ((0,),), (0,), 0, 0)
    carrier, ((zero, one), (neg,), (mul,), (add,)) = _product_tables(factors)
    return FiniteMultiring(carrier, add, mul, neg, zero, one)


def _adjoin_zero(names: Sequence[str], mul: Sequence[Sequence[int]],
                 neg: Sequence[int], one: int,
                 d: Sequence[Sequence[int]]) -> FiniteMultiring:
    """A group of exponent 2 (``mul``, ``neg``, ``one``) with a zero adjoined,
    named last in ``names``: a + b is the mask d[a][b], except a + (-a),
    the whole carrier, and a + 0 = {a}; the zero absorbs every product."""
    n = len(mul)
    total = full_mask(n + 1)
    add = [tuple(total if b == neg[a] else cell for b, cell in enumerate(row))
           + (1 << a,) for a, row in enumerate(d)]
    add.append(tuple(1 << a for a in range(n + 1)))
    mul = [tuple(row) + (n,) for row in mul] + [(n,) * (n + 1)]
    return FiniteMultiring(Carrier(tuple(names)), tuple(add), tuple(mul),
                           tuple(neg) + (n,), n, one)


# ---------------------------------------------------------------------------
# ideals

def _ideal_closure(a: FiniteMultiring) -> Callable[..., int]:
    """``close(members, closed=0)``: the mask of the least ideal of a
    containing ``members``, 0 and the ideal ``closed``: core's closure under
    the sums, in both orders, and the multiples of each element."""
    return _closure((a.add,), list(map(mask_of, zip(*a.mul))), 1 << a.zero)


def ideal_generated(a: FiniteMultiring, labels: Sequence[str]) -> Ideal:
    """Least ideal containing the given elements."""
    members = mask_of(a.carrier.index(l) for l in labels)
    return Ideal(a, _ideal_closure(a)(members))


# ---------------------------------------------------------------------------
# classes: the partition and the ring of classes

def _partition(items: Sequence, related, anomaly) -> tuple[list[int], list]:
    """The classes of ``items`` under ``related``: each item joins the class
    of the first representative it is related to, or starts a class as its
    representative.  Returns each item's class index and the representatives.
    The relation must be an equivalence on this instance: at the first pair
    p before q whose relatedness disagrees with their classes,
    StructuralAnomaly(anomaly(p, q)) is raised."""
    class_of: list[int] = []
    reps: list = []
    for p in items:
        k = next((k for k, r in enumerate(reps) if related(p, r)), len(reps))
        if k == len(reps):
            reps.append(p)
        class_of.append(k)
    for (i, p), (j, q) in itertools.combinations(enumerate(items), 2):
        if related(p, q) != (class_of[i] == class_of[j]):
            raise StructuralAnomaly(anomaly(p, q))
    return class_of, reps


def _class_ring(a: FiniteMultiring, cls: Sequence[int], reps: Sequence[int],
                sums: Sequence[Sequence[int]]) -> tuple[FiniteMultiring, StructureMap]:
    """The multiring on the classes ``cls`` of a's elements, named [r] by
    their representatives ``reps``, where x + y meets the classes of mask
    sums[x][y], and the projection of a onto it.  Each row x of sums,
    products and negation must equal its class's row spread back over the
    classes; only a row that differs is walked, to its first (x, y)."""
    names = tuple(f"[{a.names[r]}]" for r in reps)
    classes = bytes(cls).ljust(256, b"\0")  # element -> class, for translate
    products = [bytes(row).translate(classes) for row in a.mul]
    add, mul = (tuple(tuple(map(table[x].__getitem__, reps)) for x in reps)
                for table in (sums, products))
    neg = tuple(cls[a.neg[x]] for x in reps)
    q = FiniteMultiring(Carrier(names), add, mul, neg, cls[a.zero], cls[a.one])
    spread_add = [list(map(row.__getitem__, cls)) for row in q.add]
    spread_mul = [bytes(map(row.__getitem__, cls)) for row in q.mul]
    rows = zip(sums, products, map(cls.__getitem__, a.neg))
    spread = zip(*(map(table.__getitem__, cls) for table in (spread_add, spread_mul, q.neg)))
    for x in compress(count(), map(ne, rows, spread)):
        i, row = cls[x], sums[x]
        for y in range(a.size):
            if row[y] != spread_add[i][y]:
                raise StructuralAnomaly(
                    f"quotient sum depends on representatives at "
                    f"({a.names[x]},{a.names[y]})")
            if products[x][y] != spread_mul[i][y]:
                raise StructuralAnomaly(
                    f"quotient product depends on representatives at "
                    f"({a.names[x]},{a.names[y]})")
            if cls[a.neg[x]] != q.neg[i]:
                raise StructuralAnomaly(
                    f"quotient negation depends on representatives at {a.names[x]}")
    return q, StructureMap(a, q, tuple(cls))


# ---------------------------------------------------------------------------
# quotient by an ideal

def quotient_by_ideal(a: FiniteMultiring,
                      ideal: Ideal) -> tuple[FiniteMultiring, StructureMap]:
    """Cosets x + I as elements; returns the quotient and the projection.
    The cosets are verified to partition the carrier."""
    if ideal.parent is not a and ideal.parent != a:
        raise InputError("ideal does not belong to this multiring")
    n = a.size
    cells, rows, columns = _addition_cells(a)
    elements = columns.elements
    cosets = columns[ideal.members]  # x + I over x
    class_of = [-1] * n
    for x in range(n):
        if class_of[x] >= 0:
            continue
        for y in elements[cosets[x]]:
            if cosets[y] != cosets[x]:
                raise StructuralAnomaly(
                    f"cosets of {a.names[x]} and {a.names[y]} overlap "
                    f"without being equal")
            class_of[y] = x
        class_of[x] = x
    reps = sorted(set(class_of))
    cls = [reps.index(r) for r in class_of]
    classes = [1 << c for c in cls]
    # the image of each distinct cell: the classes it meets
    images = list(map(reduce, repeat(or_), map(map, repeat(classes.__getitem__), cells)))
    return _class_ring(a, cls, reps, [list(map(images.__getitem__, row)) for row in rows])


@_kept
def _addition_cells(a: FiniteMultiring) -> tuple[list[tuple[int, ...]], list[list[int]],
                                                  _CellUnion]:
    """The elements of each distinct addition cell of a, the addition table
    with each cell given by its index in that list, and the unions of its
    columns over a mask.  Kept on ``a``: every quotient by an ideal reads
    its cosets from the unions and images the cells."""
    index: dict[int, int] = {}
    rows = [[index.setdefault(cell, len(index)) for cell in row] for row in a.add]
    return (list(map(tuple, map(bits, index))), rows,
            _CellUnion.over(tuple(zip(*a.add)), _Elements()))


# ---------------------------------------------------------------------------
# localization

def localization(a: FiniteMultiring,
                 s: MultiplicativeSet) -> tuple[FiniteMultiring, StructureMap]:
    """Classes of fractions x/s; sums via c/u in x/s + y/t iff
    c s t v lies in x t u v + y s u v for some v in S."""
    if s.parent is not a and s.parent != a:
        raise InputError("multiplicative set does not belong to this multiring")
    svals = list(bits(s.members))
    pairs = [(x, t) for x in range(a.size) for t in svals]

    def pair_eq(p: tuple[int, int], q: tuple[int, int]) -> bool:
        x, t = p
        y, w = q
        return any(a.mul[a.mul[x][w]][u] == a.mul[a.mul[y][t]][u] for u in svals)

    class_of, reps = _partition(
        pairs, pair_eq, lambda p, q: f"fraction equality is not transitive at {p} ~ {q}")
    cls_of = dict(zip(pairs, class_of))
    k = len(reps)
    names = tuple(f"{a.names[x]}/{a.names[t]}" for x, t in reps)

    def sum_contains(c_pair: tuple[int, int], p: tuple[int, int],
                     q: tuple[int, int]) -> bool:
        c, u = c_pair
        x, sx = p
        y, sy = q
        cst = a.mul[a.mul[c][sx]][sy]
        for v in svals:
            left = a.mul[cst][v]
            xt = a.mul[a.mul[a.mul[x][sy]][u]][v]
            ys = a.mul[a.mul[a.mul[y][sx]][u]][v]
            if (a.add[xt][ys] >> left) & 1:
                return True
        return False

    add = [[0] * k for _ in range(k)]
    for i, j in itertools.product(range(k), repeat=2):
        add[i][j] = mask_of(c for c in range(k)
                            if sum_contains(reps[c], reps[i], reps[j]))
    mul = [[cls_of[(a.mul[reps[i][0]][reps[j][0]],
                    a.mul[reps[i][1]][reps[j][1]])]
            for j in range(k)] for i in range(k)]
    neg = tuple(cls_of[(a.neg[x], t)] for x, t in reps)
    # representative independence of the induced operations
    for p, q in itertools.product(pairs, repeat=2):
        i, j = cls_of[p], cls_of[q]
        if cls_of[(a.mul[p[0]][q[0]], a.mul[p[1]][q[1]])] != mul[i][j]:
            raise StructuralAnomaly(
                f"localized product depends on representatives at {p},{q}")
        got = mask_of(c for c in range(k) if sum_contains(reps[c], p, q))
        if got != add[i][j]:
            raise StructuralAnomaly(
                f"localized sum depends on representatives at {p},{q}")

    q_ring = FiniteMultiring(Carrier(names), add, mul, neg,
                             cls_of[(a.zero, a.one)], cls_of[(a.one, a.one)])
    canonical = StructureMap(a, q_ring,
                             tuple(cls_of[(x, a.one)] for x in range(a.size)))
    return q_ring, canonical


def fraction_multifield(d: FiniteMultiring) -> tuple[FiniteMultiring, StructureMap]:
    """Localize a multidomain at all of its nonzero elements."""
    kind = classify(d)
    if not kind.multidomain:
        raise InputError("fraction multifield requires a multidomain")
    return localization(d, MultiplicativeSet(d, d.nonzero_mask()))


# ---------------------------------------------------------------------------
# Marshall quotient

def marshall_quotient(a: FiniteMultiring,
                      s: MultiplicativeSet) -> tuple[FiniteMultiring, StructureMap]:
    """Quotient by x ~ y iff xs = yt for some s,t in S: the orbits xS and yS
    meet.  Transitivity of ~ is verified on the instance before quotienting.
    Sums are c-bar in x-bar + y-bar iff cS meets the cells xs + yt over s,t.
    """
    if s.parent is not a and s.parent != a:
        raise InputError("multiplicative set does not belong to this multiring")
    flags = _bit_flags(s.members)
    orbit = [mask_of(compress(row, flags)) for row in a.mul]
    cls, reps = _partition(range(a.size), lambda x, y: orbit[x] & orbit[y] != 0,
                           lambda x, y: f"Marshall relation is not transitive at "
                                        f"({a.names[x]},{a.names[y]})")
    elements = _Elements()
    rows = _CellUnion.over(a.add, elements)  # mask -> OR of add's rows over it
    meeting = _Unions(_transposed(orbit))  # mask -> the c whose orbit meets it
    images = _Unions([1 << c for c in cls])  # mask -> the classes it meets
    distinct = dict.fromkeys(orbit)  # x + y reads only the orbits xS, yS
    sums = {o: {p: images[meeting[reduce(or_, map(rows[o].__getitem__, elements[p]))]]
                for p in distinct} for o in distinct}
    return _class_ring(a, cls, reps, [[sums[o][p] for p in orbit] for o in orbit])


# ---------------------------------------------------------------------------
# sums of nonzero squares and the reduced quotient

@dataclass(frozen=True)
class SquareClosure:
    """Closure of the unit squares under products and set-valued sums."""

    parent: FiniteMultiring
    members: int
    contains_zero: bool
    contains_minus_one: bool

    @property
    def proper(self) -> bool:
        return not (self.contains_zero or self.contains_minus_one)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.parent.carrier.labels(self.members)

    def as_multiplicative_set(self) -> MultiplicativeSet:
        return MultiplicativeSet(self.parent, self.members)


def units_mask(a: FiniteMultiring) -> int:
    return mask_of(x for x in range(a.size)
                   if any(a.mul[x][y] == a.one for y in range(a.size)))


def sum_of_squares_closure(a: FiniteMultiring) -> SquareClosure:
    products = [tuple(map((1).__lshift__, row)) for row in a.mul]
    members = _closure((a.add, products))(
        mask_of(a.mul[x][x] for x in bits(units_mask(a))))
    return SquareClosure(
        a, members,
        contains_zero=bool((members >> a.zero) & 1),
        contains_minus_one=bool((members >> a.neg[a.one]) & 1),
    )


def q_red(a: FiniteMultiring) -> tuple[FiniteMultiring, StructureMap]:
    """Marshall quotient at the closure of the unit squares."""
    closure = sum_of_squares_closure(a)
    if not closure.proper:
        bad = "-1" if closure.contains_minus_one else "0"
        raise InputError(
            f"not real: {bad} lies in the sums-of-squares closure")
    return marshall_quotient(a, closure.as_multiplicative_set())
