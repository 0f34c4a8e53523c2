"""Exhaustive enumeration of small structures up to isomorphism.

Only one placement of the constants per order is searched and audited: the
slice with the zero at 0 and the one at 1, or the identity at 0.  The
multigroup search walks the involutions and then the free addition cells in
depth-first order, pruning with the axiom fragments that are sound to apply
early (forced identity rows, zero membership exactly at opposite pairs, and
full reversibility between decided cells).  Within the slice it audits one
member of each orbit of the relabelings that fix the identity, the least: it
searches only the least involution of each conjugacy class, and cuts each
subtree as soon as a relabeling that commutes with that involution sends the
decided part of the table lower (orderly generation), so every table it
reaches is the least of its orbit and goes through the full audit.  The rest
of each orbit are that survivor's relabelled copies, which inherit its key
as the placed copies below do.  Multirings follow their definition: for each
negation in turn, each multiplication from ``_monoid_tables`` (listed once)
meets each addition of the multigroup slice, and only the pairs that
``_distributivity_defects`` finds weakly distributive get the full audit,
which every other pair would fail.  The structures on any other placement
are the slice's moved along one bijection that sends the constants there, so
they are relabelled copies, sorted into the depth-first order their own
search would give, which is lexicographic order on the tables; each
placement's one ``_Moved`` serves all of the slice's structures.  Survivors
are canonicalized by the lexicographically least serialization over the
relabelings that send the constants to their least indices, narrowed one
whole table at a time, each candidate's image of a table built by
``itemgetter``, ``chain`` and ``map`` in C.  A key is kept on its structure
(``core._kept``), and a placed copy keeps the slice structure it was moved
from, whose key it inherits on first use: isomorphic structures have the
same set of relabelled images, so the same least one.  Keying a generated
list thus runs the search for the least image once per multiring of the
slice, and once per isomorphism class of multigroups: an isomorphism of
multigroups fixes the identity, so each class is one orbit of the slice.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Iterator

from .core import (
    Carrier,
    FiniteMultigroup,
    FiniteMultiring,
    InputError,
    _Moved,
    _associativity_defect,
    _classify_unchecked,
    _distributivity_defects,
    _kept,
    _relabel,
    _rows,
    bits,
    check_multigroup,
    check_multiring,
    mask_of,
)

ENUMERABLE_KINDS = ("multigroup", "multiring", "multidomain", "multifield")


def _involutions_fixing(n: int, fixed: int) -> Iterator[tuple[int, ...]]:
    """All involutions of range(n) fixing the given element: the
    permutations p with p[fixed] = fixed and p[p[x]] = x, filtered from
    ``itertools.permutations``.  Their lexicographic order is the depth-first
    order of pairing each least unpaired element with itself or a greater
    one, which ``_placed``'s sort relies on."""
    for p in itertools.permutations(range(n)):
        if p[fixed] == fixed and all(p[y] == x for x, y in enumerate(p)):
            yield p


def _monoid_tables(n: int, zero: int, one: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Commutative, associative tables with forced unit and absorbing zero:
    each ``itertools.product`` of values for the free cells on and above the
    diagonal, written into both (x, y) and (y, x), kept when
    ``_associativity_defect`` finds nothing.  Their lexicographic order is
    the depth-first order of filling the cells in turn, which ``_placed``'s
    sort relies on."""
    free = [x for x in range(n) if x not in (zero, one)]
    cells = [(x, y) for i, x in enumerate(free) for y in free[i:]]
    table = [[-1] * n for _ in range(n)]
    for a in range(n):
        table[zero][a] = table[a][zero] = zero
        table[one][a] = table[a][one] = a
    for values in itertools.product(range(n), repeat=len(cells)):
        for (x, y), v in zip(cells, values):
            table[x][y] = table[y][x] = v
        if _associativity_defect(table) is None:
            yield tuple(map(tuple, table))


def _addition_tables(n: int, zero: int, neg: tuple[int, ...],
                     centralizer: list[_Moved]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Commutative set-valued tables with the zero row forced, zero membership
    exactly at opposite pairs, and full reversibility on decided cells, that
    no relabeling of ``centralizer`` sends to a smaller table, row-major.

    Given commutativity and the involution neg, reversibility is the bit
    equation z in x + y <=> x in z + neg(y).  Each new cell is tested against
    every decided cell that equation pairs it with, so only subtrees in which
    every table fails reversibility are cut, and the survivors keep their
    depth-first order.

    The cells are filled row-major and mirrored, so the decided cells always
    include the table's row-major prefix up to the last one filled.  Each
    relabeling m still pending compares its image with the table, entry by
    entry in row-major order from where its last comparison stopped: the
    image entry (i, j) is m's image of the cell (m^-1 i, m^-1 j), read only
    when that cell and (i, j) are both decided.  A first difference with the
    image lower cuts the subtree, since every table in it has a smaller
    image; one with the image higher drops m for the whole subtree; the first
    undecided entry keeps m pending from there.  At a leaf every cell is
    decided, so the tables yielded are exactly the leaves that no relabeling
    of ``centralizer`` sends lower, in depth-first order."""
    nn = n * n
    nonzero = [x for x in range(n) if x != zero]
    cells = [(x, y) for i, x in enumerate(nonzero) for y in nonzero[i:]]
    table = [0] * nn  # row-major; an undecided cell is 0
    for a in range(n):
        table[zero * n + a] = table[a * n + zero] = 1 << a
    subsets = [mask_of(nonzero[i] for i in bits(sub))
               for sub in range(1 << len(nonzero))]
    with_zero = [m | (1 << zero) for m in subsets]
    nonempty = subsets[1:]

    def reversible(x: int, y: int) -> bool:
        # every decided cell holds some element
        cell = table[x * n + y]
        for z in range(n):
            for a, other in ((x, table[z * n + neg[y]]), (y, table[z * n + neg[x]])):
                if other and (other >> a & 1) != (cell >> z & 1):
                    return False
        return True

    def pending_after(pending: list) -> list | None:
        # each (m, source, p): m's image entry q is m[table[source[q]]], and
        # entries before p are equal to the table's
        kept = []
        for m, source, p in pending:
            for p in range(p, nn):
                cell, pre = table[p], table[source[p]]
                if not (cell and pre):
                    kept.append((m, source, p))
                    break
                image = m[pre]
                if image < cell:
                    return None
                if image != cell:
                    break
        return kept

    def fill(idx: int, pending: list) -> Iterator[tuple[tuple[int, ...], ...]]:
        if idx == len(cells):
            yield _rows(table, n)
            return
        x, y = cells[idx]
        for cell in with_zero if y == neg[x] else nonempty:
            table[x * n + y] = table[y * n + x] = cell
            if reversible(x, y):
                kept = pending_after(pending)
                if kept is not None:
                    yield from fill(idx + 1, kept)
        table[x * n + y] = table[y * n + x] = 0

    yield from fill(0, [(m, [a * n + b for a in back for b in back], 0)
                        for m in centralizer for back in [m.pick(range(n))]])


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


@lru_cache(maxsize=None)
def _carrier(n: int) -> Carrier:
    """The one carrier e0, ..., e(n-1) that every enumerated structure of
    order n shares."""
    return Carrier(_labels(n))


def _multiring_slice(n: int) -> Iterator[FiniteMultiring]:
    """The labeled multirings on n elements with zero 0 and one 1 (one 0
    when n = 1) passing the full audit, in depth-first order."""
    carrier = _carrier(n)
    if n == 1:
        yield FiniteMultiring(carrier, ((1,),), ((0,),), (0,), 0, 0)
        return
    muls = list(_monoid_tables(n, 0, 1))
    for neg, group in itertools.groupby(_multigroup_slice(n), lambda m: m.inv):
        for mul, add in itertools.product(muls, [m.op for m in group]):
            if _distributivity_defects(add, mul)[0] is None:
                cand = FiniteMultiring(carrier, add, mul, neg, 0, 1)
                if check_multiring(cand).overall:
                    yield cand


def _multigroup_slice(n: int) -> list[FiniteMultigroup]:
    """The labeled multigroups on n elements with identity 0 passing the
    full audit, in depth-first order, which is lexicographic order on the
    tables.

    Only the least member of each orbit of the relabelings that fix 0 is
    audited.  An involution is searched only when no such relabeling sends
    it to a smaller one, so only the least of each conjugacy class is, and
    ``_addition_tables`` yields only the tables that no relabeling commuting
    with the involution moves to a smaller one, row-major; each is audited.
    Each survivor's images under the other relabelings that fix 0 are the
    rest of its orbit, and each keeps the survivor as its ``_origin``."""
    carrier = _carrier(n)
    moves = _relabelings(n, (0,))[1:]  # the identity is first
    found = {}
    for inv in _involutions_fixing(n, 0):
        others = [(m, tuple(map(m.f.__getitem__, m.pick(inv)))) for m in moves]
        if any(image < inv for _, image in others):
            continue
        centralizer = [m for m, image in others if image == inv]
        for op in _addition_tables(n, 0, inv, centralizer):
            cand = FiniteMultigroup(carrier, op, inv, 0)
            if not check_multigroup(cand).overall:
                continue
            found[inv, op] = cand
            for m, image in others:
                moved = _rows(m.flat(op, m.__getitem__), n)
                if (image, moved) not in found:
                    copy = found[image, moved] = FiniteMultigroup(carrier, moved, image, 0)
                    _origin(copy, cand)
    return [found[tables] for tables in sorted(found)]


def _placed(n: int, k: int, found: list, from_key) -> Iterator:
    """``found``, the slice with the k constants at 0, ..., k - 1, then its
    copies under every other placement of the constants, in
    ``itertools.permutations`` order.  The copies on a placement c are moved
    along f: i -> c[i] for i < k, the other elements to the rest in
    increasing order, and sorted by their tables.  That is the depth-first
    order of the search on c, since it takes the involutions, the table
    cells in row-major order and each cell's values in increasing order.
    Each copy keeps the slice structure it was moved from (``_origin``)."""
    yield from found
    for placement in itertools.permutations(range(n), k):
        if placement != tuple(range(k)):
            f = list(placement) + [x for x in range(n) if x not in placement]
            moved = _Moved(sorted(range(n), key=f.__getitem__))
            for tables, s in sorted(((_relabel(moved, s.tables), s) for s in found),
                                    key=itemgetter(0)):
                copy = from_key((n,) + tables)
                _origin(copy, s)
                yield copy


@_kept
def _origin(s) -> object:
    """The structure s is a relabelled copy of: the slice structure that
    ``_placed`` moved it from, or the audited survivor whose orbit
    ``_multigroup_slice`` listed it in; None for any other structure."""
    return None


@_kept
def _class_key(s) -> tuple:
    """s's canonical key: its origin's, which is the same since s is a
    relabelled copy of it, or else ``_canonical_key``'s."""
    origin = _origin(s)
    return _canonical_key(s) if origin is None else _class_key(origin)


def generate_multirings(n: int) -> Iterator[FiniteMultiring]:
    """All labeled multirings on n elements passing the full audit."""
    yield from _placed(n, min(n, 2), list(_multiring_slice(n)),
                       multiring_from_key)


def generate_multigroups(n: int) -> Iterator[FiniteMultigroup]:
    """All labeled commutative multigroups on n elements."""
    yield from _placed(n, 1, _multigroup_slice(n), multigroup_from_key)


def _canonical_key(s) -> tuple:
    """Lexicographically least (size, relabelled tables) over all
    relabelings.

    The relabelled tables start with the images of the constants, so only
    the relabelings sending the distinct constants, in order, to 0, 1, ...
    can give the least; the other elements run over every order.  Those are
    narrowed one whole table at a time: to the ones giving the least unary
    tables, then the least image of each value table and of each cell
    table, flat in row-major order.  Only the survivors of one table are
    imaged on the next, and the key is the survivors' least images cut back
    into rows."""
    n, (constants, unary, values, cells) = s.size, s.tables
    survivors = _relabelings(n, tuple(dict.fromkeys(constants)))

    def least(images: list[list]) -> list:
        nonlocal survivors
        low = min(images)
        if len(images) > 1:
            survivors = [m for m, image in zip(survivors, images) if image == low]
        return low

    # each comprehension reads survivors as least left them on the table before
    return (n, tuple(map(survivors[0].f.__getitem__, constants)),
            tuple(tuple(least([list(map(m.f.__getitem__, m.pick(u)))
                               for m in survivors])) for u in unary),
            tuple(_rows(least([m.flat(t, m.f.__getitem__) for m in survivors]), n)
                  for t in values),
            tuple(_rows(least([m.flat(t, m.__getitem__) for m in survivors]), n)
                  for t in cells))


@lru_cache(maxsize=64)
def _relabelings(n: int, fixed: tuple[int, ...]) -> list[_Moved]:
    """Each relabeling that sends the fixed elements, in order, to 0, 1,
    ..., and the others in any order to the rest, as a ``_Moved``; its mask
    images fill in as the keys ask for them."""
    others = [x for x in range(n) if x not in fixed]
    return [_Moved(fixed + rest) for rest in itertools.permutations(others)]


def multiring_canonical_key(r: FiniteMultiring) -> tuple:
    return _class_key(r)


def multigroup_canonical_key(m: FiniteMultigroup) -> tuple:
    return _class_key(m)


def multiring_from_key(key: tuple) -> FiniteMultiring:
    n, (zero, one), (neg,), (mul,), (add,) = key
    return FiniteMultiring(_carrier(n), add, mul, neg, zero, one)


def multigroup_from_key(key: tuple) -> FiniteMultigroup:
    n, (identity,), (inv,), _, (op,) = key
    return FiniteMultigroup(_carrier(n), op, inv, identity)


def enumerate_structures(kind: str, order: int, up_to_iso: bool = True):
    """All structures of the given kind with 1..order elements.

    With up_to_iso one canonical representative per isomorphism class is
    returned; otherwise every labeled structure.  Every class has a member
    in the slice with the constants at the least indices, and the slice
    comes first, so up to isomorphism only the slice is searched."""
    if kind not in ENUMERABLE_KINDS:
        raise InputError(f"cannot enumerate kind {kind!r}; "
                         f"supported: {', '.join(ENUMERABLE_KINDS)}")
    if order < 1:
        raise InputError("order must be positive")
    if order > 3:
        raise InputError("enumeration is supported up to order 3")
    search, generate, canonical_key, from_key = (
        (_multigroup_slice, generate_multigroups, multigroup_canonical_key,
         multigroup_from_key) if kind == "multigroup" else
        (_multiring_slice, generate_multirings, multiring_canonical_key,
         multiring_from_key))
    out = []
    seen = set()
    for n in range(1, order + 1):
        for s in (search if up_to_iso else generate)(n):
            if kind in ("multidomain", "multifield") \
                    and not getattr(_classify_unchecked(s), kind):
                continue
            if not up_to_iso:
                out.append(s)
                continue
            key = canonical_key(s)
            if key not in seen:
                seen.add(key)
                out.append(from_key(key))
    return out
