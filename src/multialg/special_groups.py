"""Special groups: exponent-2 groups with a binary isometry relation.

The isometry relation is stored closed under its own equivalence closure and
argument swap; raw input is closed at load time and the number of added
quadruples is reported on the structure.  Triple isometry is derived from the
binary relation through the usual existential expansion, which is what the
3-transitivity axiom SG6 and the equivalent SG7/SG8/SG9 are audited against.
One cached relation serves SG6, SG8 and SG9: triples are grouped by first
element and tail pair class, and the k = n * ncls groups (ncls pair classes)
get one k-bit row each, built by ORing per-(z, class) masks of groups.

The special-multifield audit and the functor back to special groups read two
tables over the nonzero elements, built once per call: ``fiber[x][v]``, the
mask of y with xy = v, and ``inside[c][a]``, the mask of y with a in c + y.
They are masks, not inverses, so they serve structures whose nonzero part is
no group.  Property iii and ``mf_to_sg`` intersect one entry of each per
triple; property iv keeps, per product fiber, the mask of pairs whose sum
holds each element; property v builds, per (a, c) on first use, the masks of
d with a triple-isometry split from fiber and inside entries.  Witnesses are
the lowest set bits, so they keep the lexicographic order of a scan over
quadruples.  ``sg_to_mf`` hands the pair-class masks, as D, to the
zero adjunction of ``constructions``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .constructions import _adjoin_zero
from .core import (
    Carrier,
    CheckReport,
    FiniteMultiring,
    InputError,
    StructureMap,
    Verdict,
    _associativity_defect,
    _lowest_bit,
    _map_defects,
    _table_morphisms,
    bits,
    classify,
    full_mask,
    same_tables,
)


@dataclass(frozen=True)
class SpecialGroup:
    carrier: Carrier
    mul: tuple[tuple[int, ...], ...]
    one: int
    minus_one: int
    iso: frozenset[tuple[int, int, int, int]]
    closure_added: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        n = self.carrier.size
        if len(self.mul) != n or any(len(r) != n for r in self.mul):
            raise InputError("ragged multiplication table")
        for row in self.mul:
            for v in row:
                if not 0 <= v < n:
                    raise InputError("multiplication entry out of range")
        if not 0 <= self.one < n or not 0 <= self.minus_one < n:
            raise InputError("distinguished element out of range")
        for a in range(n):
            if self.mul[self.one][a] != a:
                raise InputError("designated identity is not an identity")
            if self.mul[a][a] != self.one:
                raise InputError(f"not exponent 2 at {self.carrier.names[a]}")
        if _associativity_defect(self.mul) is not None:
            raise InputError("multiplication is not associative")
        for a, b in itertools.combinations(range(n), 2):
            if self.mul[a][b] != self.mul[b][a]:
                raise InputError("multiplication is not commutative")
        for q in self.iso:
            if len(q) != 4 or any(not 0 <= v < n for v in q):
                raise InputError(f"isometry quadruple {q} outside carrier")
        # Rows given as lists, and an isometry relation given as a set, are
        # kept as tuples and a frozenset: the per-group caches hash the group.
        if type(self.mul) is not tuple or any(type(row) is not tuple for row in self.mul):
            object.__setattr__(self, "mul", tuple(map(tuple, self.mul)))
        if type(self.iso) is not frozenset:
            object.__setattr__(self, "iso", frozenset(map(tuple, self.iso)))

    @property
    def size(self) -> int:
        return self.carrier.size

    @property
    def names(self) -> tuple[str, ...]:
        return self.carrier.names

    @property
    def tables(self) -> tuple:
        return (self.one, self.minus_one), (), (self.mul,), (), self.iso

    def neg(self, a: int) -> int:
        return self.mul[self.minus_one][a]


def _close_iso(n: int, raw: Iterable[tuple[int, int, int, int]]
               ) -> tuple[frozenset[tuple[int, int, int, int]], int]:
    """Equivalence-close the pair relation and add argument swaps."""
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(p: tuple[int, int]) -> tuple[int, int]:
        root = p
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[p] != root:
            parent[p], p = root, parent[p]
        return root

    def union(p: tuple[int, int], q: tuple[int, int]) -> None:
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq

    raw_set = set(tuple(q) for q in raw)
    for (a, b, c, d) in raw_set:
        union((a, b), (c, d))
    for a, b in itertools.product(range(n), repeat=2):
        union((a, b), (b, a))
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, b in itertools.product(range(n), repeat=2):
        groups.setdefault(find((a, b)), []).append((a, b))
    closed = set()
    for members in groups.values():
        for (a, b), (c, d) in itertools.product(members, repeat=2):
            closed.add((a, b, c, d))
    return frozenset(closed), len(closed - raw_set)


def make_special_group(names: Sequence[str],
                       mul: Sequence[Sequence[str]],
                       minus_one: str,
                       iso: Iterable[tuple[str, str, str, str]],
                       one: Optional[str] = None) -> SpecialGroup:
    carrier = Carrier(tuple(names))
    n = carrier.size
    if len(mul) != n or any(len(r) != n for r in mul):
        raise InputError("ragged multiplication table")
    table = tuple(tuple(carrier.index(v) for v in row) for row in mul)
    if one is None:
        candidates = [e for e in range(n)
                      if all(table[e][a] == a for a in range(n))]
        if not candidates:
            raise InputError("no identity element in multiplication table")
        one_i = candidates[0]
    else:
        one_i = carrier.index(one)
    quads = [tuple(carrier.index(v) for v in q) for q in iso]
    closed, added = _close_iso(n, quads)  # type: ignore[arg-type]
    return SpecialGroup(carrier, table, one_i, carrier.index(minus_one),
                        closed, added)


def trivial_special_group(names: Sequence[str],
                          mul: Sequence[Sequence[str]],
                          minus_one: str) -> SpecialGroup:
    """Isometry by equal products: the trivial special relation."""
    g = make_special_group(names, mul, minus_one, iso=[])
    quads = [(g.names[a], g.names[b], g.names[c], g.names[d])
             for a, b, c, d in itertools.product(range(g.size), repeat=4)
             if g.mul[a][b] == g.mul[c][d]]
    return make_special_group(names, mul, minus_one, quads)


def smallest_special_group(names: Sequence[str],
                           mul: Sequence[Sequence[str]],
                           minus_one: str) -> SpecialGroup:
    """Least relation containing the forced pairs and closed under SG0-SG5."""
    g = make_special_group(names, mul, minus_one, iso=[])
    n = g.size
    quads: set[tuple[int, int, int, int]] = set()
    for a in range(n):
        quads.add((a, g.neg(a), g.one, g.minus_one))
    current, _ = _close_iso(n, quads)
    while True:
        grown = set(current)
        for (a, b, c, d) in current:
            grown.add((a, g.neg(c), g.neg(b), d))
            for e in range(n):
                grown.add((g.mul[e][a], g.mul[e][b], g.mul[e][c], g.mul[e][d]))
        closed, _ = _close_iso(n, grown)
        if closed == current:
            break
        current = closed
    return SpecialGroup(g.carrier, g.mul, g.one, g.minus_one, current, 0)


# ---------------------------------------------------------------------------
# pair classes and representation sets

@lru_cache(maxsize=None)
def _pair_classes(g: SpecialGroup) -> tuple[tuple[tuple[int, ...], ...],
                                            tuple[int, ...]]:
    """Class id per ordered pair, plus the mask of first components (the
    binary representation set) per class."""
    n = g.size
    sources: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for c, d, x, y in g.iso:
        sources.setdefault((x, y), []).append((c, d))
    cls = [[-1] * n for _ in range(n)]
    rep_masks: list[int] = []
    for a, b in itertools.product(range(n), repeat=2):
        if cls[a][b] >= 0:
            continue
        cid = len(rep_masks)
        members = list(sources.get((a, b), ()))
        if (a, b) not in members:
            members.append((a, b))
        mask = 0
        for (c, d) in members:
            cls[c][d] = cid
            mask |= 1 << c
        rep_masks.append(mask)
    return tuple(tuple(r) for r in cls), tuple(rep_masks)


def represented(g: SpecialGroup, a: int, b: int) -> int:
    """Mask of elements represented by the binary form (a, b)."""
    cls, reps = _pair_classes(g)
    return reps[cls[a][b]]


# ---------------------------------------------------------------------------
# axiom audits

def check_psg(g: SpecialGroup) -> CheckReport:
    n = g.size
    names = g.names
    cls, _ = _pair_classes(g)

    w0 = None  # equivalence holds by closure; verify symmetry of storage
    for (a, b, c, d) in g.iso:
        if (c, d, a, b) not in g.iso:
            w0 = (names[a], names[b], names[c], names[d])
            break

    w1 = None
    for a, b in itertools.product(range(n), repeat=2):
        if cls[a][b] != cls[b][a]:
            w1 = (names[a], names[b])
            break

    w2 = None
    for a in range(n):
        if cls[a][g.neg(a)] != cls[g.one][g.minus_one]:
            w2 = (names[a],)
            break

    w3 = None
    for (a, b, c, d) in sorted(g.iso):
        if g.mul[a][b] != g.mul[c][d]:
            w3 = (names[a], names[b], names[c], names[d])
            break

    w4 = None
    for (a, b, c, d) in sorted(g.iso):
        if cls[a][g.neg(c)] != cls[g.neg(b)][d]:
            w4 = (names[a], names[b], names[c], names[d])
            break

    w5 = None
    for (a, b, c, d) in sorted(g.iso):
        for e in range(n):
            if cls[g.mul[e][a]][g.mul[e][b]] != cls[g.mul[e][c]][g.mul[e][d]]:
                w5 = (names[e], names[a], names[b], names[c], names[d])
                break
        if w5:
            break

    return CheckReport(
        subject="pre-special group",
        verdicts=(
            Verdict("SG0-equivalence", w0 is None, w0),
            Verdict("SG1-swap", w1 is None, w1),
            Verdict("SG2-hyperbolic", w2 is None, w2),
            Verdict("SG3-discriminant", w3 is None, w3),
            Verdict("SG4-cross-shift", w4 is None, w4),
            Verdict("SG5-translation", w5 is None, w5),
        ),
    )


@lru_cache(maxsize=None)
def _triple_relation(g: SpecialGroup) -> tuple[int, tuple[int, ...]]:
    """Existential triple isometry between triple groups, as bit rows.

    Group ``a * ncls + c`` holds the triples (a, x, y) with (x, y) in pair
    class c, so groups run over (a, c) in lexicographic order.  Its reach at
    z is the mask of classes cls(a, x) over the x with cls(x, z) = c; two
    groups are isometric when their reaches meet at some z."""
    n = g.size
    cls, reps = _pair_classes(g)
    ncls = len(reps)
    reach = [[0] * n for _ in range(n * ncls)]
    for x, z in itertools.product(range(n), repeat=2):
        c = cls[x][z]
        for a in range(n):
            reach[a * ncls + c][z] |= 1 << cls[a][x]
    # cols[z][v]: mask of groups whose reach at z contains class v
    cols = [[0] * ncls for _ in range(n)]
    for i, r in enumerate(reach):
        for z in range(n):
            for v in bits(r[z]):
                cols[z][v] |= 1 << i
    rows = []
    for r in reach:
        row = 0
        for z in range(n):
            for v in bits(r[z]):
                row |= cols[z][v]
        rows.append(row)
    return ncls, tuple(rows)


def _group_triple_rep(g: SpecialGroup, i: int) -> tuple[str, str, str]:
    cls, reps = _pair_classes(g)
    n = g.size
    a1, c = divmod(i, len(reps))
    for a2, a3 in itertools.product(range(n), repeat=2):
        if cls[a2][a3] == c:
            return (g.names[a1], g.names[a2], g.names[a3])
    raise AssertionError("empty pair class")


def _sg6_witness(g: SpecialGroup) -> Optional[tuple]:
    _, rows = _triple_relation(g)
    for i, row in enumerate(rows):
        for j in bits(row):
            extra = rows[j] & ~row
            if extra:
                m = next(bits(extra))
                return (_group_triple_rep(g, i), _group_triple_rep(g, j),
                        _group_triple_rep(g, m))
    return None


def _sg7_witness(g: SpecialGroup) -> Optional[tuple]:
    n = g.size
    cls, reps = _pair_classes(g)
    for x, y in itertools.product(range(n), repeat=2):
        left = 0
        for t in bits(reps[cls[g.one][y]]):
            left |= reps[cls[x][t]]
        right = 0
        for s in bits(reps[cls[g.one][x]]):
            right |= reps[cls[y][s]]
        if left != right:
            return (g.names[x], g.names[y])
    return None


def _sg8_witness(g: SpecialGroup) -> Optional[tuple]:
    ncls, rows = _triple_relation(g)
    k = len(rows)
    # reachability closure over chains
    reach = list(rows)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            acc = reach[i]
            for j in bits(acc):
                acc |= reach[j]
            if acc != reach[i]:
                reach[i] = acc
                changed = True
    for i in range(k):
        for j in bits(reach[i] | (1 << i)):
            if i // ncls == j // ncls and i != j:
                return (_group_triple_rep(g, i), _group_triple_rep(g, j))
    return None


def _sg9_witness(g: SpecialGroup) -> Optional[tuple]:
    n = g.size
    cls, _ = _pair_classes(g)
    ncls, rows = _triple_relation(g)
    pairs = list(itertools.product(range(n), repeat=2))
    for a, b in pairs:
        ab = g.mul[a][b]
        bad = rows[a * ncls + cls[b][ab]] & ~rows[b * ncls + cls[a][ab]]
        if bad:
            # the least (c, d) whose triple (c, d, cd) lies in a bad group
            for c, d in pairs:
                if (bad >> (c * ncls + cls[d][g.mul[c][d]])) & 1:
                    return (g.names[a], g.names[b], g.names[c], g.names[d])
    return None


def check_sg(g: SpecialGroup) -> CheckReport:
    psg = check_psg(g)
    w6 = _sg6_witness(g)
    return CheckReport(
        subject="special group",
        verdicts=psg.verdicts + (Verdict("SG6-3-transitivity", w6 is None, w6),),
    )


def check_reduced(g: SpecialGroup) -> CheckReport:
    sg = check_sg(g)
    cls, _ = _pair_classes(g)
    w_distinct = None if g.one != g.minus_one else (g.names[g.one],)
    w_rigid = None
    for a in range(g.size):
        if cls[a][a] == cls[g.one][g.one] and a != g.one:
            w_rigid = (g.names[a],)
            break
    return CheckReport(
        subject="reduced special group",
        verdicts=sg.verdicts + (
            Verdict("reduced-one-not-minus-one", w_distinct is None, w_distinct),
            Verdict("reduced-diagonal-rigid", w_rigid is None, w_rigid),
        ),
    )


def check_sg789(g: SpecialGroup) -> CheckReport:
    """SG7, SG8, SG9 verdicts plus the three-way agreement with SG6."""
    w6 = _sg6_witness(g)
    w7 = _sg7_witness(g)
    w8 = _sg8_witness(g)
    w9 = _sg9_witness(g)
    sg6 = w6 is None
    sg78 = w7 is None and w8 is None
    sg9 = w9 is None
    return CheckReport(
        subject="SG6/SG7+SG8/SG9 equivalence",
        verdicts=(
            Verdict("SG6", sg6, w6, "evaluated"),
            Verdict("SG7", w7 is None, w7, "evaluated"),
            Verdict("SG8", w8 is None, w8, "evaluated"),
            Verdict("SG9", sg9, w9, "evaluated"),
            Verdict("SG6-iff-SG7-and-SG8", sg6 == sg78,
                    None if sg6 == sg78 else (sg6, sg78)),
            Verdict("SG6-iff-SG9", sg6 == sg9,
                    None if sg6 == sg9 else (sg6, sg9)),
        ),
    )


# ---------------------------------------------------------------------------
# the functor into multifields and back

def sg_to_mf(g: SpecialGroup, zero_label: str = "0") -> FiniteMultiring:
    """Adjoin a fresh zero; sums are the representation sets except in the
    forced cases a+0 and a+(-a)."""
    if zero_label in g.names:
        raise InputError(f"zero label {zero_label!r} collides with a group element")
    cls, reps = _pair_classes(g)
    return _adjoin_zero(g.names + (zero_label,), g.mul, g.mul[g.minus_one],
                        g.one, [[reps[c] for c in row] for row in cls])


def _smf_masks(f: FiniteMultiring, nz: list[int]
               ) -> tuple[list[list[int]], list[list[int]]]:
    """Masks over the nonzero elements: fiber[x][v] holds the y with xy = v,
    inside[c][a] the y with a in c + y.  Rows of the zero stay empty."""
    fiber = [[0] * f.size for _ in range(f.size)]
    inside = [[0] * f.size for _ in range(f.size)]
    for x in nz:
        mrow, arow, frow, irow = f.mul[x], f.add[x], fiber[x], inside[x]
        for y in nz:
            frow[mrow[y]] |= 1 << y
            for a in bits(arow[y]):
                irow[a] |= 1 << y
    return fiber, inside


def _split_row(f: FiniteMultiring, nz: list[int], fiber: list[list[int]],
               inside: list[list[int]], a: int, c: int) -> list[int]:
    """For nonzero b, row[b] is the mask of the nonzero d with a
    triple-isometry split between (a,b,ab) and (c,d,cd): some nonzero x,y,z
    with ax=cy, a in c+y, a=xz, c=yz, b in x+z and d in y+z."""
    nzmask = full_mask(f.size) & ~(1 << f.zero)
    row = [0] * f.size
    for x in nz:
        for y in bits(fiber[c][f.mul[a][x]] & inside[c][a]):
            for z in bits(fiber[x][a] & fiber[y][c]):
                ds = f.add[y][z] & nzmask
                for b in bits(f.add[x][z]):
                    row[b] |= ds
    return row


def check_smf(f: FiniteMultiring) -> CheckReport:
    """The five representation-theoretic properties that make the nonzero
    part a special group.  iii reads the ``_smf_masks`` tables, iv one mask
    of pairs per element within each product fiber, and v one
    ``_split_row`` per (a, c), built from those tables on first use; every
    witness is the first in lexicographic order over the nonzero elements."""
    if not classify(f).multifield:
        raise InputError("special multifield check requires a multifield")
    names = f.names
    nz = [x for x in range(f.size) if x != f.zero]
    total = full_mask(f.size)
    fiber, inside = _smf_masks(f, nz)

    w1 = None
    for a in nz:
        if f.mul[a][a] != f.one:
            w1 = (names[a],)
            break

    w2 = None
    for a in nz:
        if f.add[a][f.neg[a]] != total:
            w2 = (names[a],)
            break

    w3 = None
    for a, b, c in itertools.product(nz, repeat=3):
        if not (f.add[a][b] >> c) & 1:
            ds = fiber[c][f.mul[a][b]] & inside[c][a]
            if ds:
                w3 = (names[a], names[b], names[c], names[_lowest_bit(ds)])
                break

    w4 = None
    fibers: dict[int, list[tuple[int, int]]] = {}
    for x, y in itertools.product(nz, repeat=2):
        fibers.setdefault(f.mul[x][y], []).append((x, y))
    for pairs in fibers.values():
        holds = [0] * f.size  # holds[e]: the pairs k with e in their sum
        for k, (x, y) in enumerate(pairs):
            for e in bits(f.add[x][y]):
                holds[e] |= 1 << k
        for (a, b), (j, (c, d)) in itertools.product(pairs, enumerate(pairs)):
            ks = holds[c] & ~holds[a]
            if (holds[a] >> j) & 1 and ks:
                e, h = pairs[_lowest_bit(ks)]
                w4 = (names[a], names[b], names[c], names[d], names[e], names[h])
                break
        if w4:
            break

    w5 = None
    split: dict[tuple[int, int], list[int]] = {}

    def row(a: int, c: int) -> list[int]:
        if (a, c) not in split:
            split[a, c] = _split_row(f, nz, fiber, inside, a, c)
        return split[a, c]

    for a, b, c in itertools.product(nz, repeat=3):
        ds = row(a, c)[b]
        ds = ds and ds & ~row(b, c)[a]
        if ds:
            w5 = (names[a], names[b], names[c], names[_lowest_bit(ds)])
            break

    return CheckReport(
        subject="special multifield",
        verdicts=(
            Verdict("i-unit-squares", w1 is None, w1),
            Verdict("ii-full-opposite-sums", w2 is None, w2),
            Verdict("iii-symmetry", w3 is None, w3),
            Verdict("iv-transitivity", w4 is None, w4),
            Verdict("v-triple-split-swap", w5 is None, w5),
        ),
    )


def mf_to_sg(f: FiniteMultiring) -> SpecialGroup:
    """Nonzero part with isometry: equal products plus membership a in c+d."""
    nz = [x for x in range(f.size) if x != f.zero]
    if any(f.mul[x][y] == f.zero for x in nz for y in nz):
        raise InputError("special group construction requires a multifield: "
                         "a product of nonzero elements is zero")
    names = [f.names[x] for x in nz]
    back = {x: i for i, x in enumerate(nz)}
    mul = [[names[back[f.mul[x][y]]] for y in nz] for x in nz]
    fiber, inside = _smf_masks(f, nz)
    quads = []
    for a, b, c in itertools.product(nz, repeat=3):
        for d in bits(fiber[c][f.mul[a][b]] & inside[c][a]):
            quads.append((f.names[a], f.names[b], f.names[c], f.names[d]))
    return make_special_group(names, mul, f.names[f.neg[f.one]], quads,
                              one=f.names[f.one])


# ---------------------------------------------------------------------------
# morphisms and functor laws

def check_sg_morphism(fmap: StructureMap) -> CheckReport:
    """Group homomorphism fixing -1 and preserving isometry forward; the
    reverse preservation is reported separately and not required."""
    g: SpecialGroup = fmap.source  # type: ignore[assignment]
    h: SpecialGroup = fmap.target  # type: ignore[assignment]
    m = fmap.mapping
    names = g.names
    clsh, _ = _pair_classes(h)
    # The constants are (one, minus_one): position 1 is -1.
    missed, _, (w_hom,), _ = _map_defects(m, g, h)
    w_minus = (names[g.minus_one],) if 1 in missed else None
    w_fwd = None
    for (a, b, c, d) in sorted(g.iso):
        if clsh[m[a]][m[b]] != clsh[m[c]][m[d]]:
            w_fwd = (names[a], names[b], names[c], names[d])
            break
    w_bwd = None
    clsg, _ = _pair_classes(g)
    for a, b, c, d in itertools.product(range(g.size), repeat=4):
        if clsh[m[a]][m[b]] == clsh[m[c]][m[d]] and clsg[a][b] != clsg[c][d]:
            w_bwd = (names[a], names[b], names[c], names[d])
            break
    return CheckReport(
        subject="special group morphism",
        verdicts=(
            Verdict("group-homomorphism", w_hom is None, w_hom),
            Verdict("fixes-minus-one", w_minus is None, w_minus),
            Verdict("preserves-isometry", w_fwd is None, w_fwd),
            Verdict("reflects-isometry", w_bwd is None, w_bwd,
                    "not required for morphisms", informational=True),
        ),
    )


def is_sg_morphism(fmap: StructureMap) -> bool:
    """The required part of check_sg_morphism: homomorphism, -1 and forward
    isometry, without the report's informational reverse scan."""
    g: SpecialGroup = fmap.source  # type: ignore[assignment]
    h: SpecialGroup = fmap.target  # type: ignore[assignment]
    m = fmap.mapping
    clsh, _ = _pair_classes(h)
    missed, _, (w_hom,), _ = _map_defects(m, g, h)
    return 1 not in missed and w_hom is None \
        and all(clsh[m[a]][m[b]] == clsh[m[c]][m[d]] for (a, b, c, d) in g.iso)


def enumerate_sg_morphisms(g: SpecialGroup, h: SpecialGroup) -> list[StructureMap]:
    """The kernel keeps the constants and products; isometry is checked on
    its leaves."""
    maps = (StructureMap(g, h, mp) for mp in _table_morphisms(g, h))
    return [f for f in maps if is_sg_morphism(f)]


def sg_map_to_mf_map(fmap: StructureMap, mf_source: FiniteMultiring,
                     mf_target: FiniteMultiring) -> StructureMap:
    """Extend a special group morphism over the adjoined zeros."""
    g: SpecialGroup = fmap.source  # type: ignore[assignment]
    mapping = tuple(fmap.mapping[i] for i in range(g.size)) + (mf_target.zero,)
    return StructureMap(mf_source, mf_target, mapping)


def mf_map_to_sg_map(fmap: StructureMap, sg_source: SpecialGroup,
                     sg_target: SpecialGroup) -> StructureMap:
    """Restrict a multifield morphism to the nonzero parts."""
    f: FiniteMultiring = fmap.source  # type: ignore[assignment]
    k: FiniteMultiring = fmap.target  # type: ignore[assignment]
    src_nz = [x for x in range(f.size) if x != f.zero]
    dst_nz = {x: i for i, x in enumerate(y for y in range(k.size) if y != k.zero)}
    if any(fmap.mapping[x] == k.zero for x in src_nz):
        raise InputError("mf_map_to_sg_map: a nonzero element maps to zero")
    mapping = tuple(dst_nz[fmap.mapping[x]] for x in src_nz)
    return StructureMap(sg_source, sg_target, mapping)


def sg_smf_roundtrip(g: SpecialGroup) -> CheckReport:
    """Through the multifield and back: tables are restored exactly."""
    f = sg_to_mf(g)
    smf = check_smf(f)
    g2 = mf_to_sg(f)
    same = same_tables(g, g2)
    return CheckReport(
        subject="special group round-trip",
        verdicts=(
            Verdict("image-is-multifield", classify(f).multifield, None),
            Verdict("image-is-special", smf.overall,
                    None if smf.overall else tuple(v.axiom for v in smf.failures())),
            Verdict("tables-restored", same, None if same else (g.names, g2.names)),
        ),
    )


def smf_sg_roundtrip(f: FiniteMultiring) -> CheckReport:
    """Through the special group and back: tables are restored exactly."""
    g = mf_to_sg(f)
    sg = check_sg(g)
    f2 = sg_to_mf(g, zero_label=f.names[f.zero])
    same = same_tables(f, f2)
    return CheckReport(
        subject="special multifield round-trip",
        verdicts=(
            Verdict("image-is-special-group", sg.overall,
                    None if sg.overall else tuple(v.axiom for v in sg.failures())),
            Verdict("tables-restored", same, None if same else (f.names, f2.names)),
        ),
    )


# ---------------------------------------------------------------------------
# special groups of finite prime fields

def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, int(p ** 0.5) + 1, 2))


def sg_of_finite_field(p: int) -> SpecialGroup:
    """Square classes of a prime field F_p, p odd, with isometry computed by
    brute force over the field: equal discriminants and the first entry
    represented by the form.  Restricted to p <= 61."""
    if not _is_odd_prime(p) or p > 61:
        raise InputError("supported fields: F_p with p an odd prime <= 61")
    squares = {(x * x) % p for x in range(1, p)}
    nonsquare = next(x for x in range(2, p) if x not in squares)
    reps = {True: 1, False: nonsquare}
    label = {1: "1", nonsquare: "n"}

    def class_rep(x: int) -> int:
        return reps[x % p in squares]

    def values(a: int, b: int) -> set[int]:
        out = set()
        for x in range(p):
            for y in range(p):
                v = (a * x * x + b * y * y) % p
                if v:
                    out.add(class_rep(v))
        return out

    names = ("1", "n")
    mul = [[label[class_rep(a * b)] for b in (1, nonsquare)]
           for a in (1, nonsquare)]
    quads = []
    for a, b, c, d in itertools.product((1, nonsquare), repeat=4):
        if class_rep(a * b) == class_rep(c * d) and class_rep(c) in values(a, b):
            quads.append((label[a], label[b], label[c], label[d]))
    minus_one = label[class_rep(p - 1)]
    return make_special_group(names, mul, minus_one, quads)
