"""Special groups: exponent-2 groups with a binary isometry relation.

The isometry relation is stored closed under its own equivalence closure and
argument swap; raw input is closed at load time and the number of added
quadruples is reported on the structure.  The closure is core's
``_closure`` on the n^2 pairs; ``mf_to_sg`` and ``trivial_special_group``
build their relations on indices, with no labels.  Triple isometry is
derived from the binary relation through the usual existential expansion,
which is what the 3-transitivity axiom SG6 and the equivalent SG7/SG8/SG9
are audited against.
One relation, kept on the group, serves SG6, SG8 and SG9: triples are
grouped by first element and tail pair class, and the k = n * ncls groups
(ncls pair classes) get one k-bit row each, built by ORing per-(z, class)
masks of groups; SG8 closes them with core's ``_closure``.

The functor back to special groups reads two tables over the nonzero
elements, built once per call from core's kernels: ``fiber[x][v]``, the
mask of y with xy = v (the fibres of row x of mul), and ``inside[c][a]``,
the mask of y with a in c + y (row c of add transposed).  They are masks,
not inverses, so they serve structures whose nonzero part is no group;
``mf_to_sg`` intersects one entry of each per triple.  The special-multifield
audit runs on a multifield only, whose nonzero elements form a group, so a
pair with product v is (x, v/x) and the audit reads lookups: the sums
x + v/x and, per product fibre v, the mask of the x whose sum holds each
element (core's ``_transposed`` of the sums).  Property iii reads one such
mask per (a, b), iv walks the masks, and v builds, per c on first use and
only for the a with a^2 = c^2, the masks of d with a triple-isometry split,
comparing each row with its column in C.  Witnesses are the lowest set
bits, so they keep the lexicographic order of a scan over quadruples.
``sg_to_mf`` hands the pair-class masks, as D, to the zero adjunction of
``constructions``.  docs/axioms.md states each verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from itertools import compress, count
from operator import and_, invert, itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .constructions import _adjoin_zero
from .core import (
    Carrier,
    CheckReport,
    FiniteMultiring,
    InputError,
    StructureMap,
    Verdict,
    _CellUnion,
    _Elements,
    _OnCarrier,
    _associativity_defect,
    _closure,
    _commutativity_defect,
    _fibres,
    _first_difference,
    _kept,
    _label_values,
    _lowest_bit,
    _map_defects,
    _square_table,
    _stray_tuple,
    _table_morphisms,
    _transposed,
    bits,
    classify,
    full_mask,
    same_tables,
)


@dataclass(frozen=True)
class SpecialGroup(_OnCarrier):
    mul: tuple[tuple[int, ...], ...]
    one: int
    minus_one: int
    iso: frozenset[tuple[int, int, int, int]]
    closure_added: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        n = self.carrier.size
        object.__setattr__(self, "mul", _square_table(
            self.mul, n, "ragged multiplication table"))
        if min(map(min, self.mul)) < 0 or max(map(max, self.mul)) >= n:
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
        if _commutativity_defect(self.mul, self.carrier.names) is not None:
            raise InputError("multiplication is not commutative")
        stray = _stray_tuple(self.iso, 4, n)
        if stray is not None:
            raise InputError(f"isometry quadruple {stray} outside carrier")
        # An isometry relation given as a set is kept as a frozenset, so that
        # the values kept on the group can not go stale and it stays hashable.
        if type(self.iso) is not frozenset:
            object.__setattr__(self, "iso", frozenset(map(tuple, self.iso)))

    @property
    def tables(self) -> tuple:
        return (self.one, self.minus_one), (), (self.mul,), (), self.iso

    def neg(self, a: int) -> int:
        return self.mul[self.minus_one][a]


def _close_iso(n: int, raw: Iterable[tuple[int, int, int, int]]
               ) -> tuple[frozenset[tuple[int, int, int, int]], int]:
    """Equivalence-close the pair relation and add argument swaps.  Pair
    (a, b) is element a * n + b, linked to its swap and to every pair a raw
    quadruple relates it to; each class is core's ``_closure`` of its least
    unclaimed pair."""
    raw_set = set(map(tuple, raw))
    linked = [1 << (b * n + a) for a, b in itertools.product(range(n), repeat=2)]
    for a, b, c, d in raw_set:
        linked[a * n + b] |= 1 << (c * n + d)
        linked[c * n + d] |= 1 << (a * n + b)
    close = _closure((), linked)
    closed = set()
    unclaimed = full_mask(n * n)
    while unclaimed:
        members = close(unclaimed & -unclaimed)
        unclaimed &= ~members
        pairs = [divmod(p, n) for p in bits(members)]
        closed.update((a, b, c, d)
                      for (a, b), (c, d) in itertools.product(pairs, repeat=2))
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
    table = _label_values(carrier, mul)
    if one is None:
        candidates = [e for e in range(n)
                      if all(table[e][a] == a for a in range(n))]
        if not candidates:
            raise InputError("no identity element in multiplication table")
        one_i = candidates[0]
    else:
        one_i = carrier.index(one)
    quads = _label_values(carrier, list(iso))
    closed, added = _close_iso(n, quads)  # type: ignore[arg-type]
    return SpecialGroup(carrier, table, one_i, carrier.index(minus_one),
                        closed, added)


def trivial_special_group(names: Sequence[str],
                          mul: Sequence[Sequence[str]],
                          minus_one: str) -> SpecialGroup:
    """Isometry by equal products: the trivial special relation.  In an
    exponent-2 group ab = v exactly when b = av, and the relation is already
    closed."""
    g = make_special_group(names, mul, minus_one, iso=[])
    return SpecialGroup(g.carrier, g.mul, g.one, g.minus_one, frozenset(
        (a, g.mul[a][v], c, g.mul[c][v])
        for a, c, v in itertools.product(range(g.size), repeat=3)))


def smallest_special_group(names: Sequence[str],
                           mul: Sequence[Sequence[str]],
                           minus_one: str) -> SpecialGroup:
    """Least relation containing the forced pairs and closed under SG0-SG5:
    the equivalence closure with swaps of <a, -a> = <1, -1>.  Its classes
    are the swap pairs {(a, b), (b, a)} with ab != -1 and the one class of
    all pairs of product -1.  Translation by e (SG5) and the map
    (a, b, c, d) -> (a, -c, -b, d) (SG4) send each class into one class,
    so neither adds a quadruple."""
    g = make_special_group(names, mul, minus_one, iso=[])
    closed, _ = _close_iso(g.size, [(a, g.neg(a), g.one, g.minus_one)
                                    for a in range(g.size)])
    return SpecialGroup(g.carrier, g.mul, g.one, g.minus_one, closed, 0)


# ---------------------------------------------------------------------------
# pair classes and representation sets

@_kept
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
    quadruples = sorted(g.iso)

    w0 = None  # equivalence holds by closure; verify symmetry of storage
    for (a, b, c, d) in quadruples:
        if (c, d, a, b) not in g.iso:
            w0 = (names[a], names[b], names[c], names[d])
            break

    w1 = _commutativity_defect(cls, names)

    w2 = None
    for a in range(n):
        if cls[a][g.neg(a)] != cls[g.one][g.minus_one]:
            w2 = (names[a],)
            break

    w3 = None
    for (a, b, c, d) in quadruples:
        if g.mul[a][b] != g.mul[c][d]:
            w3 = (names[a], names[b], names[c], names[d])
            break

    w4 = None
    for (a, b, c, d) in quadruples:
        if cls[a][g.neg(c)] != cls[g.neg(b)][d]:
            w4 = (names[a], names[b], names[c], names[d])
            break

    # moved[a][b]: the classes of the translates (ea, eb), over e
    moved = [[tuple(cls[row[a]][row[b]] for row in g.mul) for b in range(n)]
             for a in range(n)]
    w5 = next(((names[_first_difference(moved[a][b], moved[c][d])],
                names[a], names[b], names[c], names[d])
               for (a, b, c, d) in quadruples if moved[a][b] != moved[c][d]), None)

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


@_kept
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


@_kept
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
    """The least (x, y) where the table U(y, x), the union of D(x, t) over t
    in D(1, y), is not symmetric."""
    cls, reps = _pair_classes(g)
    d = [list(map(reps.__getitem__, row)) for row in cls]
    unions = _CellUnion.over(tuple(zip(*d)), _Elements())
    return _commutativity_defect(list(map(unions.__getitem__, d[g.one])), g.names)


def _sg8_witness(g: SpecialGroup) -> Optional[tuple]:
    """The first group i that reaches another group of its first element.
    The relation is symmetric and holds (i, i) when row i is not empty, so
    i and what it reaches form its component, closed once."""
    ncls, rows = _triple_relation(g)
    close = _closure((), rows)
    component: dict[int, int] = {}
    for i in range(len(rows)):
        if i not in component:
            reach = close(1 << i)
            component.update(dict.fromkeys(bits(reach), reach))
        block = full_mask(ncls) << (i - i % ncls)  # the groups (a, c) of i's a
        others = component[i] & block & ~(1 << i)
        if others:
            return (_group_triple_rep(g, i), _group_triple_rep(g, _lowest_bit(others)))
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
    """SG0-SG6; the report is kept on ``g``, for the guards that read it."""
    psg = check_psg(g)
    w6 = _sg6_witness(g)
    return _sg_audit(g, CheckReport(
        subject="special group",
        verdicts=psg.verdicts + (Verdict("SG6-3-transitivity", w6 is None, w6),),
    ))


_sg_audit = _kept(check_sg)  # the report kept by its last run, or a new one


def check_reduced(g: SpecialGroup) -> CheckReport:
    """The kept ``check_sg(g)`` report (``_sg_audit``) and the reduced verdicts."""
    sg = _sg_audit(g)
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


def _smf_masks(f: FiniteMultiring) -> tuple[list[tuple[int, ...]], ...]:
    """Masks over the nonzero elements: fiber[x][v] holds the y with xy = v
    (core's fibres of row x of mul), inside[c][a] the y with a in c + y (row
    c of add transposed).  No caller reads the rows of the zero."""
    keep = f.nonzero_mask()
    return tuple([tuple(m & keep for m in line) for line in lines]
                 for lines in (_fibres(f.mul), map(_transposed, f.add)))


def _split_witness(f: FiniteMultiring, nz: list[int], inv: dict[int, int],
                   sums: dict[int, list[int]]) -> Optional[tuple[int, int, int, int]]:
    """Property v's least failing (a, b, c), with the lowest d, or None.  A
    split between (a, b) and (c, d) is fixed by w = z^-1: x = aw, y = cw,
    so ax = cy holds iff a^2 = c^2, and a in c + y iff a/c in 1 + w.  Then
    b is in x + a/x and d in y + c/y.  The table of c, built on first use,
    has a row only for each a with a^2 = c^2: for each b, the mask of such
    d.  A bit of row a's entry b that entry a of row b lacks is a failure,
    so per a each such c compares row a with column a, in C."""
    n, mul, keep = f.size, f.mul, f.nonzero_mask()
    ones = _transposed(f.add[f.one])  # ones[e]: the w with e in 1 + w
    elements = _Elements()
    tables: dict[int, list] = {}

    def table(c: int) -> list:
        if c not in tables:
            rows = tables[c] = [(0,) * n] * n
            for a in nz:
                if mul[a][a] == mul[c][c]:
                    row = rows[a] = [0] * n
                    for w in elements[ones[mul[a][inv[c]]] & keep]:
                        ds = sums[c][mul[c][w]]
                        for b in elements[sums[a][mul[a][w]]]:
                            row[b] |= ds
        return tables[c]

    for a in nz:
        found = []
        for c in nz:
            if mul[c][c] == mul[a][a]:
                rows = table(c)
                ds = list(map(and_, rows[a], map(invert, map(itemgetter(a), rows))))
                b = next(compress(count(), ds), None)
                if b is not None:
                    found.append((a, b, c, _lowest_bit(ds[b])))
        if found:
            return min(found)
    return None


def check_smf(f: FiniteMultiring) -> CheckReport:
    """The five representation-theoretic properties that make the nonzero
    part a special group.  f is a multifield, so its nonzero elements form
    a group and a pair with product v is (x, v/x).  iii and iv read, per
    product fibre v, holds[v][e]: the x with e in x + v/x; v reads the sums
    x + v/x through ``_split_witness``.  Every witness is the first in
    lexicographic order over the nonzero elements; iv's fibres are taken in
    the order of their first pairs."""
    if not classify(f).multifield:
        raise InputError("special multifield check requires a multifield")
    names, mul, keep = f.names, f.mul, f.nonzero_mask()
    nz = [x for x in range(f.size) if x != f.zero]
    inv = {x: mul[x].index(f.one) for x in nz}
    sums = {v: [f.add[x][mul[v][inv[x]]] & keep if x in inv else 0
                for x in range(f.size)] for v in nz}  # sums[v][x] = x + v/x
    holds = {v: _transposed(row) for v, row in sums.items()}

    w1 = None
    for a in nz:
        if mul[a][a] != f.one:
            w1 = (names[a],)
            break

    w2 = None
    for a in nz:
        if f.add[a][f.neg[a]] != full_mask(f.size):
            w2 = (names[a],)
            break

    w3 = None
    for a, b in itertools.product(nz, repeat=2):
        cs = holds[mul[a][b]][a] & ~f.add[a][b]  # a in c + ab/c, c not in a + b
        if cs:
            c = _lowest_bit(cs)
            w3 = (names[a], names[b], names[c], names[mul[mul[a][b]][inv[c]]])
            break

    w4 = None
    for v in (mul[nz[0]][y] for y in nz):  # the fibres in order of their first pair
        for a, c in ((a, c) for a in nz for c in bits(holds[v][a])):
            es = holds[v][c] & ~holds[v][a]  # c in e + v/e, a not
            if es:
                e = _lowest_bit(es)
                w4 = tuple(names[x] for x in (a, mul[v][inv[a]], c, mul[v][inv[c]],
                                              e, mul[v][inv[e]]))
                break
        if w4:
            break

    split = _split_witness(f, nz, inv, sums)
    w5 = split and tuple(names[x] for x in split)

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


@_kept
def mf_to_sg(f: FiniteMultiring) -> SpecialGroup:
    """Nonzero part with isometry: equal products plus membership a in c+d.
    Kept on ``f``: ``diagram`` reads it after the round-trip."""
    nz = [x for x in range(f.size) if x != f.zero]
    if any(f.mul[x][y] == f.zero for x in nz for y in nz):
        raise InputError("special group construction requires a multifield: "
                         "a product of nonzero elements is zero")
    carrier = Carrier(tuple(f.names[x] for x in nz))
    for name, x in (("1", f.one), ("-1", f.neg[f.one])):
        if x == f.zero:
            raise InputError("special group construction requires a multifield: "
                             f"{name} is the zero")
    one = carrier.index(f.names[f.one])
    back = {x: i for i, x in enumerate(nz)}
    fiber, inside = _smf_masks(f)
    closed, added = _close_iso(len(nz), [
        (back[a], back[b], back[c], back[d])
        for a, b, c in itertools.product(nz, repeat=3)
        for d in bits(fiber[c][f.mul[a][b]] & inside[c][a])])
    mul = tuple(tuple(back[f.mul[x][y]] for y in nz) for x in nz)
    return SpecialGroup(carrier, mul, one, carrier.index(f.names[f.neg[f.one]]),
                        closed, added)


# ---------------------------------------------------------------------------
# morphisms and functor laws

def _broken_isometries(g: SpecialGroup, h: SpecialGroup, m: Sequence[int]
                       ) -> Iterator[tuple[int, int, int, int]]:
    """The quadruples (a, b, c, d) of g's isometry relation whose images
    (m(a), m(b)) and (m(c), m(d)) are not isometric in h, in no order: the
    least is the witness, any one refutes the map."""
    clsh, _ = _pair_classes(h)
    return ((a, b, c, d) for (a, b, c, d) in g.iso
            if clsh[m[a]][m[b]] != clsh[m[c]][m[d]])


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
    broken = min(_broken_isometries(g, h, m), default=None)
    w_fwd = broken and tuple(names[x] for x in broken)
    # reflects: pair (a, b) is a * n + b; the least (a, b), then (c, d),
    # whose images share a class of h while the pairs share none of g
    n = g.size
    clsg, _ = _pair_classes(g)
    pairs = list(itertools.product(range(n), repeat=2))
    image = [clsh[m[a]][m[b]] for a, b in pairs]
    classes = [clsg[a][b] for a, b in pairs]
    into, within = _fibres((image, classes))
    bad = (into[t] & ~within[c] for t, c in zip(image, classes))
    w_bwd = next((tuple(names[x] for x in (a, b, *divmod(_lowest_bit(mask), n)))
                  for (a, b), mask in zip(pairs, bad) if mask), None)
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


def enumerate_sg_morphisms(g: SpecialGroup, h: SpecialGroup) -> list[StructureMap]:
    """The kernel fixes 1 and -1 and keeps products, so each of its leaves
    is a morphism exactly when it breaks no isometry, the one condition
    tested here."""
    return [StructureMap(g, h, mp) for mp in _table_morphisms(g, h)
            if next(_broken_isometries(g, h, mp), None) is None]


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
    """Through the kept ``mf_to_sg(f)``, read with the ``check_sg`` report
    kept on it (``_sg_audit``), and back: tables are restored exactly."""
    g = mf_to_sg(f)
    sg = _sg_audit(g)
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
