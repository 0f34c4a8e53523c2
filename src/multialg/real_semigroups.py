"""Ternary and real semigroups: x^3 = x semigroups with constants 1, 0, -1
and a ternary representation relation D.

D is stored explicitly; the transversal relation D^t is always derived from
it, never stored, so the two can not drift apart.  The canonical three-element
structure and its uniqueness audit live here, as does the passage to and from
real reduced multirings (sums become transversal representation sets).

The layer works on whole masks: D(b, c) is the mask of the a it represents,
and each audit tests that mask, or a row of them, at once.  D^t is D cut by
two transposes of D taken with rows indexed by -a, each an n x n bit matrix
transposed in a few big-int operations (``_transposed``).  TS1 and TS4
are core's commutative-monoid audit of the multiplication table,
``_monoid_defects``.  In ``check_rs``, RS2 images each distinct cell
under every x -> xe at once, through core's ``_CellUnion`` of the lines
(1 << xe) over e; RS4 and RS5 test the union of D over the scaled sets
{q x : q a square} and over the agreement sets {x : ax = bx}, one union per
distinct set; RS6 and RS8 group the c of D(a, b) by their square.  Strong
associativity RS3 (on D^t) and weak associativity xvi (on D) read core's
O(n^3) reassociation scan through ``_reassociation_failures``.  The other
consequences in ``check_rs_derived`` build, per (b, c), the mask of the a
that fail there, from transposes, from the preimages pre[M][x] = {a : ax in
M} (a ``_CellUnion`` over the fibres of x -> ax) and from the roots of each
square; the pair and single-element ones are plain scans.
docs/axioms.md gives each consequence's formula, witness order and mask.
The separation audit meets the preimages of the three-element tables under
each morphism, per (b, c).  Only a failing (b, c) is rescanned, so each
witness keeps the lexicographic order of the quantifier it comes from;
tests/reference_audits.py keeps the nested loops they are pinned to.
``rs_product`` is the componentwise product of ``constructions``.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, repeat
from operator import and_, getitem, invert, itemgetter, lshift, or_, xor
from typing import Iterable, Iterator, Optional, Sequence

from .constructions import _product_tables
from .core import (
    Carrier,
    CheckReport,
    FiniteMultiring,
    InputError,
    StructureMap,
    StructuralAnomaly,
    Verdict,
    _CellUnion,
    _Elements,
    _lowest_bit,
    _map_defects,
    _monoid_defects,
    _reassociation_failures,
    _table_morphisms,
    bits,
    full_mask,
    mask_of,
    same_tables,
)
from .spectra import is_real_reduced_mr


@dataclass(frozen=True)
class RealSemigroup:
    """Carrier with commutative multiplication, constants, and D given as
    masks: d[b][c] is the set {a : a in D(b,c)}."""

    carrier: Carrier
    mul: tuple[tuple[int, ...], ...]
    one: int
    zero: int
    minus_one: int
    d: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.carrier.size
        if len(self.mul) != n or any(len(r) != n for r in self.mul):
            raise InputError("ragged multiplication table")
        for row in self.mul:
            for v in row:
                if not 0 <= v < n:
                    raise InputError("multiplication entry out of range")
        for what, idx in (("one", self.one), ("zero", self.zero),
                          ("minus_one", self.minus_one)):
            if not 0 <= idx < n:
                raise InputError(f"{what} out of range")
        if len(self.d) != n or any(len(r) != n for r in self.d):
            raise InputError("ragged representation table")
        top = full_mask(n)
        for row in self.d:
            for cell in row:
                if cell & ~top:
                    raise InputError("representation set outside carrier")
        # Rows given as lists are kept as tuples: dt_table's cache hashes
        # the structure.
        for name in ("mul", "d"):
            table = getattr(self, name)
            if type(table) is not tuple or any(type(row) is not tuple for row in table):
                object.__setattr__(self, name, tuple(map(tuple, table)))

    @property
    def size(self) -> int:
        return self.carrier.size

    @property
    def names(self) -> tuple[str, ...]:
        return self.carrier.names

    @property
    def tables(self) -> tuple:
        return (self.one, self.zero, self.minus_one), (), (self.mul,), (self.d,)

    def neg(self, a: int) -> int:
        return self.mul[self.minus_one][a]


def make_real_semigroup(names: Sequence[str],
                        mul: Sequence[Sequence[str]],
                        one: str, zero: str, minus_one: str,
                        d_triples: Iterable[tuple[str, str, str]]
                        ) -> RealSemigroup:
    """d_triples lists (a, b, c) meaning a is represented by (b, c)."""
    carrier = Carrier(tuple(names))
    n = carrier.size
    if len(mul) != n or any(len(r) != n for r in mul):
        raise InputError("ragged multiplication table")
    index = carrier.index
    table = tuple(tuple(map(index, row)) for row in mul)
    # One dict lookup per label; a label it lacks is looked up again, in
    # the order (b, c, a), to raise the carrier's own error.
    position = carrier._positions
    d = [[0] * n for _ in range(n)]
    for a, b, c in d_triples:
        try:
            d[position[b]][position[c]] |= 1 << position[a]
        except (KeyError, TypeError):
            index(b), index(c), index(a)
            raise
    return RealSemigroup(carrier, table, index(one), index(zero),
                         index(minus_one), tuple(map(tuple, d)))


# ---------------------------------------------------------------------------
# bit-matrix transposition

def _block_swaps(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) for each block size j = w/2, ..., 1 of a w x w bit
    matrix packed row by row into one int, entry (x, t) at bit x w + t.
    The mask marks the entries with bit j clear in x and set in t; each
    trades places with (x + j, t - j), ``shift`` bits higher.  Swapping them
    for every j moves (x, t) to (t, x)."""
    swaps = []
    j = w // 2
    while j:
        row = mask_of(t for t in range(w) if t & j)
        swaps.append((j * (w - 1),
                      sum(row << x * w for x in range(w) if not x & j)))
        j //= 2
    return tuple(swaps)


# One codec and one swap list per width w: a matrix of n rows is padded to
# w rows of w bits, w the least of 8, 16, 32 and 64 not below n.
_TRANSPOSERS = {w: (struct.Struct(f"<{w}{field}"), _block_swaps(w))
                for w, field in ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))}


def _transposed(rows: Sequence[int]) -> tuple[int, ...]:
    """The n x n bit matrix ``rows`` transposed: entry t holds x iff rows[x]
    holds t.  Each row is a mask below 2^n."""
    n = len(rows)
    w = max(8, 1 << (n - 1).bit_length())
    codec, swaps = _TRANSPOSERS[w]
    m = int.from_bytes(codec.pack(*rows, *repeat(0, w - n)), "little")
    for shift, mask in swaps:
        flip = ((m >> shift) ^ m) & mask
        m ^= flip ^ (flip << shift)
    return codec.unpack(m.to_bytes(codec.size, "little"))[:n]


@lru_cache(maxsize=None)
def dt_table(s: RealSemigroup) -> tuple[tuple[int, ...], ...]:
    """Transversal representation, derived: a in D^t(b,c) iff a in D(b,c),
    -b in D(-a,c) and -c in D(b,-a).

    Row a of (D(-a, c))_a holds -b exactly when a meets the second
    condition, so transposing it gives, at -b, the a that meet it for
    every b at once; (D(b, -a))_a transposed gives the third at -c.
    Indexing the rows by -a takes preimages under x -> -x, which on a
    structure that fails the axioms need not be a bijection."""
    d = s.d
    neg = s.mul[s.minus_one]
    # left[t][c]: the a with t in D(-a, c); right[b][t]: the a with t in D(b, -a)
    left = list(zip(*(_transposed(list(map(column.__getitem__, neg)))
                      for column in zip(*d))))
    right = [_transposed(list(map(row.__getitem__, neg))) for row in d]
    return tuple(
        tuple(map(and_, row, map(and_, left[neg[b]],
                                 map(right[b].__getitem__, neg))))
        for b, row in enumerate(d))


# ---------------------------------------------------------------------------
# axiom audits

def check_ts(s: RealSemigroup) -> CheckReport:
    n = s.size
    names = s.names

    w_assoc, w_comm, w_unit, w_zero = _monoid_defects(s.mul, s.one, s.zero, names)
    w_cube = None
    for a in range(n):
        if s.mul[s.mul[a][a]][a] != a:
            w_cube = (names[a],)
            break
    w_sign = None
    if s.minus_one == s.one or s.mul[s.minus_one][s.minus_one] != s.one:
        w_sign = (names[s.minus_one],)
    w_fix = None
    for a in range(n):
        if s.neg(a) == a and a != s.zero:
            w_fix = (names[a],)
            break

    return CheckReport(
        subject="ternary semigroup",
        verdicts=(
            Verdict("TS1-assoc", w_assoc is None, w_assoc),
            Verdict("TS1-comm", w_comm is None, w_comm),
            Verdict("TS1-unit", w_unit is None, w_unit),
            Verdict("TS2-cube", w_cube is None, w_cube),
            Verdict("TS3-sign", w_sign is None, w_sign),
            Verdict("TS4-zero", w_zero is None, w_zero),
            Verdict("TS5-no-fixed-negation", w_fix is None, w_fix),
        ),
    )


def _roots(mul: Sequence[Sequence[int]]) -> dict[int, int]:
    """Each square q -> the mask of the c with c^2 = q."""
    roots: dict[int, int] = {}
    for c, row in enumerate(mul):
        q = row[c]
        roots[q] = roots.get(q, 0) | 1 << c
    return roots


def _fibres(mul: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """fibres[x][v] is the mask of the b with bx = v."""
    return [_transposed(list(map(lshift, repeat(1), column))) for column in zip(*mul)]


def _least_failure(table: Iterable[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """The least (a, b, c) with a in the mask ``table[b][c]``, or None: the
    least a of the first row whose union holds the least a over all rows,
    at its first c."""
    found = None
    below = -1
    for b, row in enumerate(table):
        union = reduce(or_, row) & below
        if union:
            a = _lowest_bit(union)
            found = (a, b, next(c for c, cell in enumerate(row) if (cell >> a) & 1))
            if not a:
                break
            below = (1 << a) - 1
    return found


def _agreements(mul: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """agree[a][b] is the mask of the x with ax = bx: for each a the masks
    fibres[x][ax] over x, transposed, give the agreement sets of a."""
    fibres = _fibres(mul)
    return [_transposed(list(map(getitem, fibres, row))) for row in mul]


def check_rs(s: RealSemigroup) -> CheckReport:
    """TS1-TS5 followed by RS0-RS8, with D^t derived internally."""
    ts = check_ts(s)
    n = s.size
    names = s.names
    d = s.d
    mul = s.mul
    dt = dt_table(s)
    elements = _Elements()
    roots = _roots(mul)
    # unions[S][v]: the union of D(u, v) over u in S, one per distinct S
    unions = _CellUnion.over(d, elements)

    w0 = None
    for b, c in itertools.combinations(range(n), 2):
        if d[b][c] != d[c][b]:
            w0 = (names[b], names[c])
            break

    w1 = None
    for a, b in itertools.product(range(n), repeat=2):
        if not (d[a][b] >> a) & 1:
            w1 = (names[a], names[b])
            break

    # RS2: (b, c) fails iff, for some e, the image of D(b, c) under
    # x -> xe leaves D(be, ce).  images[cell] holds those images over e,
    # the union of the lines (1 << xe)_e over x in the cell.  Each b
    # compares them with (D(be, ce))_e for every c at once, gathering
    # D(be, ce) over c with one getter per column e of mul; only the first
    # failing b is rescanned, for the least c, a and e.
    w2 = None
    images = _CellUnion.over([tuple(map(lshift, repeat(1), row)) for row in mul],
                             elements)
    # With one element, an itemgetter of one index would return a scalar.
    columns = [itemgetter(*column) if n > 1 else tuple for column in zip(*mul)]
    for b, row in enumerate(d):
        targets = tuple(chain.from_iterable(
            zip(*[column(d[be]) for column, be in zip(columns, mul[b])])))
        imaged = chain.from_iterable(map(images.__getitem__, row))
        if tuple(map(or_, imaged, targets)) != targets:
            w2 = next((names[a], names[b], names[c], names[e])
                      for c in range(n) for a in bits(row[c]) for e in range(n)
                      if not (d[mul[b][e]][mul[c][e]] >> mul[a][e]) & 1)
            break

    # RS3: the least (b, c, a, d, e) with a in D^t(b, c), c in D^t(d, e)
    # and a outside the union of D^t(x, e) over x in D^t(b, d); b is the
    # first row of the scan with a failure.
    w3 = None
    for a, b, c, dd, e in _reassociation_failures(dt, _Elements()):
        if w3 is not None and b != w3[0]:
            break
        if w3 is None or (b, c, a, dd, e) < w3:
            w3 = (b, c, a, dd, e)
    if w3 is not None:
        b, c, a, dd, e = w3
        w3 = (names[a], names[b], names[c], names[dd], names[e])

    # RS4: the union of D(c^2 a, e^2 b) over (c, e) is the union of D over
    # S_a x S_b, S_x = {q x : q a square}; it is built once per distinct
    # pair of sets, and (c, e) is scanned only at the first failing (a, b).
    w4 = None
    scaled = [mask_of(mul[q][x] for q in roots) for x in range(n)]
    lhs_of: dict[tuple[int, int], int] = {}
    for a, b in itertools.product(range(n), repeat=2):
        key = scaled[a], scaled[b]
        lhs = lhs_of.get(key)
        if lhs is None:
            lhs = lhs_of[key] = reduce(
                or_, map(unions[key[0]].__getitem__, elements[key[1]]), 0)
        if not lhs & ~d[a][b]:
            continue
        for c, e in itertools.product(range(n), repeat=2):
            missing = d[mul[mul[c][c]][a]][mul[mul[e][e]][b]] & ~d[a][b]
            if missing:
                w4 = (names[_lowest_bit(missing)], names[a], names[b],
                      names[c], names[e])
                break
        break

    # RS5: D(d, e) must stay inside the set where a and b agree whenever d
    # and e are in it, so the union of D over that set squared must; it is
    # built once per distinct agreement set, and (d, e) is scanned only at
    # the first failing (a, b).
    w5 = None
    inner: dict[int, int] = {}
    for a, row in enumerate(_agreements(mul)):
        for b, agree in enumerate(row):
            union = inner.get(agree)
            if union is None:
                union = inner[agree] = reduce(
                    or_, map(unions[agree].__getitem__, elements[agree]), 0)
            if union & ~agree:
                inside = elements[agree]
                dd, e = next((dd, e) for dd in inside for e in inside
                             if d[dd][e] & ~agree)
                w5 = (names[a], names[b],
                      names[_lowest_bit(d[dd][e] & ~agree)], names[dd], names[e])
                break
        if w5:
            break

    # RS6: each c in D(a, b) must lie in D^t(c^2 a, c^2 b); the c with
    # square q fail at D(a, b) & roots(q) less D^t(qa, qb).
    w6 = None
    for a, b in itertools.product(range(n), repeat=2):
        cell = d[a][b]
        bad = 0
        for q, root_mask in roots.items():
            bad |= cell & root_mask & ~dt[mul[q][a]][mul[q][b]]
        if bad:
            w6 = (names[_lowest_bit(bad)], names[a], names[b])
            break

    w7 = None
    for a, b in itertools.product(range(n), repeat=2):
        if a != b and dt[a][s.neg(b)] & dt[b][s.neg(a)]:
            w7 = (names[a], names[b])
            break

    # RS8: a in D(b, c) must have a^2 in D(b^2, c^2); the a whose square is
    # in a mask M are the roots of the squares in M, kept per mask.
    w8 = None
    square_roots: dict[int, int] = {}
    for b, c in itertools.product(range(n), repeat=2):
        target = d[mul[b][b]][mul[c][c]]
        allowed = square_roots.get(target)
        if allowed is None:
            allowed = square_roots[target] = reduce(
                or_, (m for q, m in roots.items() if (target >> q) & 1), 0)
        bad = d[b][c] & ~allowed
        if bad:
            w8 = (names[_lowest_bit(bad)], names[b], names[c])
            break

    return CheckReport(
        subject="real semigroup",
        verdicts=ts.verdicts + (
            Verdict("RS0-symmetry", w0 is None, w0),
            Verdict("RS1-reflexive", w1 is None, w1),
            Verdict("RS2-scaling", w2 is None, w2),
            Verdict("RS3-strong-associativity", w3 is None, w3),
            Verdict("RS4-square-cancel", w4 is None, w4),
            Verdict("RS5-congruence", w5 is None, w5),
            Verdict("RS6-transversal-lift", w6 is None, w6),
            Verdict("RS7-reduction", w7 is None, w7),
            Verdict("RS8-squares", w8 is None, w8),
        ),
    )


def check_rs_derived(s: RealSemigroup) -> CheckReport:
    """Seventeen consequences that must hold in any real semigroup.

    Each quantifier whose leading variable a is a mask bit tests the mask
    bad(rest) of the failing a at every other position, so its first
    failure in lexicographic order is the least (lowest bit of bad(rest),
    *rest); only that position is rescanned for any variable left over."""
    n = s.size
    names = s.names
    d = s.d
    dt = dt_table(s)
    mul = s.mul
    one, zero = s.one, s.zero
    neg = mul[s.minus_one]
    elements = _Elements()
    roots = _roots(mul)
    cells = range(n)
    pairs = tuple(itertools.product(cells, repeat=2))
    verdicts = []

    def report(axiom: str, witness: Optional[tuple[int, ...]]) -> None:
        verdicts.append(Verdict(axiom, witness is None, None if witness is None
                                else tuple(names[i] for i in witness)))

    def first(axiom: str, witnesses: Iterator[tuple[int, ...]]) -> None:
        report(axiom, next(witnesses, None))

    # i: a in D^t(b, c) needs -b in D^t(-a, c); shifted[c][t] is the mask
    # of the a with t in D^t(-a, c), one transpose per column c.
    shifted = [_transposed(list(map(column.__getitem__, neg))) for column in zip(*dt)]
    report("i-transversal-shift", _least_failure(
        tuple(map(and_, row, map(invert, map(itemgetter(neg[b]), shifted))))
        for b, row in enumerate(dt)))
    first("ii-zero-represented", ((a, b) for a, b in pairs if not (d[a][b] >> zero) & 1))
    # iii: bad(b, c) is D^t(b, c) less the meet over e of the preimages
    # under x -> xe of D^t(be, ce); pre[M][e] is that preimage of M, the
    # union of the fibres of x -> xe over M.  e is found at the least
    # failure only.
    pre = _CellUnion.over(list(zip(*_fibres(mul))), elements)
    w3 = None
    below = -1  # the a that would improve on the failure so far
    for b, row in enumerate(dt):
        scaled = [dt[be] for be in mul[b]]
        for c, cell in enumerate(row):
            if cell & below:
                bad = cell & below & ~reduce(and_, map(getitem, map(
                    pre.__getitem__, map(getitem, scaled, mul[c])), cells))
                if bad:
                    w3 = (_lowest_bit(bad), b, c)
                    below = (bad & -bad) - 1
        if not below:
            break
    if w3 is not None:
        a, b, c = w3
        w3 += (next(e for e in cells
                    if not (dt[mul[b][e]][mul[c][e]] >> mul[a][e]) & 1),)
    report("iii-transversal-scaling", w3)
    first("iv-idempotent-on-0-1",
          ((a,) for a in bits(d[zero][one] | d[one][one]) if mul[a][a] != a))
    # v: dd in D(ca, cb) needs c^2 dd = dd; the failing dd for c are the
    # union of D over image(c)^2, one union per distinct image, cut by the
    # elements c^2 moves.  (a, b) is found at the least (dd, c) only.
    unions = _CellUnion.over(d, elements)
    images = list(map(mask_of, mul))
    spans = {image: reduce(or_, map(unions[image].__getitem__, elements[image]), 0)
             for image in set(images)}
    w5 = min(((_lowest_bit(bad), c) for c, row in enumerate(mul)
              if (bad := mask_of(x for x in bits(spans[images[c]])
                                 if mul[row[c]][x] != x))), default=None)
    if w5 is not None:
        dd, c = w5
        w5 += next((a, b) for a, b in pairs if (d[mul[c][a]][mul[c][b]] >> dd) & 1)
    report("v-common-factor", w5)
    first("vi-squares-represented",
          ((a, b) for a, b in pairs if not (d[one][b] >> mul[a][a]) & 1))
    idem = mask_of(a for a in cells if mul[a][a] == a)
    verdicts.append(Verdict("vi-idempotents-are-d11",
                            d[one][one] == idem,
                            None if d[one][one] == idem
                            else (s.carrier.labels(d[one][one]),
                                  s.carrier.labels(idem))))
    first("vii-transversal-diagonal",
          ((a, b) for a, b in pairs if ((dt[b][b] >> a) & 1) != (a == b)))
    first("viii-zero-zero",
          ((a,) for a in cells if ((d[zero][zero] >> a) & 1) != (a == zero)))
    first("ix-one-absorbs", ((a,) for a in cells if not (dt[one][a] >> one) & 1))
    verdicts.append(Verdict("x-full-opposite",
                            dt[one][s.minus_one] == full_mask(n),
                            None if dt[one][s.minus_one] == full_mask(n)
                            else s.carrier.labels(dt[one][s.minus_one])))
    first("xi-product-vs-minus-square",
          ((a, b) for a, b in pairs if not (d[one][neg[mul[a][a]]] >> mul[a][b]) & 1))
    first("xii-zero-transversal",
          ((a, b) for a, b in pairs if ((dt[a][b] >> zero) & 1) != (a == neg[b])))
    # xiii: every cell K = D(x, y) holds D(b, c) for b, c in K; each
    # distinct cell is tested once, at its first position.
    first_at: dict[int, tuple[int, int]] = {}
    for x, y in pairs:
        first_at.setdefault(d[x][y], (x, y))
    report("xiii-monotone", min((
        (_lowest_bit(d[b][c] & ~cell), b, c) + first_at[cell]
        for cell in first_at for b in elements[cell]
        for c in elements[cell] if d[b][c] & ~cell), default=None))
    # rooted[p][c]: the a with a^2 in D(p, c^2), for each square p
    squares = [row[x] for x, row in enumerate(mul)]
    rooted = {}
    for p in roots:
        by_square = {q: reduce(or_, map(roots.get, bits(d[p][q]), repeat(0)), 0)
                     for q in roots}
        rooted[p] = tuple(map(by_square.__getitem__, squares))

    def product_forms() -> Iterator[tuple[int, ...]]:
        """xiv: a in D(b, c) iff ab and ac are in D(1, bc) and a^2 is in
        D(b^2, c^2); the right side is pre[D(1, bc)] at b and at c, met
        with rooted[b^2][c]."""
        for b, row in enumerate(d):
            products = list(map(pre.__getitem__, map(d[one].__getitem__, mul[b])))
            yield tuple(map(xor, row, map(
                and_, map(and_, map(getitem, products, repeat(b)),
                          map(getitem, products, cells)),
                rooted[squares[b]])))

    report("xiv-product-form", _least_failure(product_forms()))
    first("xv-transversal-nonempty", ((a, b) for a, b in pairs if not dt[a][b]))
    report("xvi-weak-associativity",
           min(_reassociation_failures(d, elements), default=None))

    def square_transversals() -> Iterator[tuple[int, ...]]:
        """xvii: a in D(b, c) iff a in D^t(a^2 b, a^2 c); the right side is,
        over the squares q, the roots of q in D^t(qb, qc)."""
        for b, row in enumerate(d):
            for q, root_mask in roots.items():
                row = tuple(map(xor, row, map(and_, map(dt[mul[q][b]].__getitem__, mul[q]),
                                              repeat(root_mask))))
            yield row

    report("xvii-square-transversal", _least_failure(square_transversals()))
    return CheckReport("real semigroup consequences", tuple(verdicts))


# ---------------------------------------------------------------------------
# the canonical three-element structure

@lru_cache(maxsize=None)
def canonical_3() -> RealSemigroup:
    """Unique real semigroup on the sign ternary semigroup {-1, 0, 1}; built
    once, as every separation audit and map into it reads it."""
    names = ("-1", "0", "1")
    mul = [["1", "0", "-1"], ["0", "0", "0"], ["-1", "0", "1"]]
    triples = []
    full = ("-1", "0", "1")
    d: dict[tuple[str, str], tuple[str, ...]] = {
        ("0", "0"): ("0",),
        ("0", "1"): ("0", "1"), ("1", "0"): ("0", "1"), ("1", "1"): ("0", "1"),
        ("0", "-1"): ("0", "-1"), ("-1", "0"): ("0", "-1"),
        ("-1", "-1"): ("0", "-1"),
        ("1", "-1"): full, ("-1", "1"): full,
    }
    for (b, c), reps in d.items():
        for a in reps:
            triples.append((a, b, c))
    return make_real_semigroup(names, mul, "1", "0", "-1", triples)


def unique_rs_search_on_3() -> tuple[int, Optional[RealSemigroup]]:
    """Enumerate all candidate representation relations on the sign ternary
    semigroup, pruned by symmetry and reflexivity, and count the survivors
    of the full real semigroup audit."""
    base = canonical_3()
    n = 3
    unordered = [(b, c) for b in range(n) for c in range(b, n)]
    free_bits = []
    for (b, c) in unordered:
        forced = (1 << b) | (1 << c)
        free = [a for a in range(n) if not (forced >> a) & 1]
        free_bits.append((b, c, forced, free))
    survivors = []
    count = 0
    total_choices = 1
    for (_, _, _, free) in free_bits:
        total_choices *= 1 << len(free)
    for choice in range(total_choices):
        d = [[0] * n for _ in range(n)]
        rem = choice
        for (b, c, forced, free) in free_bits:
            cell = forced
            for a in free:
                if rem & 1:
                    cell |= 1 << a
                rem >>= 1
            d[b][c] = cell
            d[c][b] = cell
        cand = RealSemigroup(base.carrier, base.mul, base.one, base.zero,
                             base.minus_one, tuple(tuple(r) for r in d))
        if check_rs(cand).overall:
            count += 1
            survivors.append(cand)
    return count, survivors[0] if survivors else None


# ---------------------------------------------------------------------------
# morphisms and separation

def check_rs_morphism(fmap: StructureMap) -> CheckReport:
    missed, _, (w_hom,), (w_d,) = _map_defects(fmap.mapping, fmap.source, fmap.target)
    w_const = (("1", "0", "-1")[missed[0]],) if missed else None
    if w_d:  # reported as (a, b, c) with a in D(b, c)
        w_d = (w_d[2], w_d[0], w_d[1])
    return CheckReport(
        subject="real semigroup morphism",
        verdicts=(
            Verdict("semigroup-homomorphism", w_hom is None, w_hom),
            Verdict("constants", w_const is None, w_const),
            Verdict("preserves-representation", w_d is None, w_d),
        ),
    )


def enumerate_rs_morphisms(s: RealSemigroup, t: RealSemigroup) -> list[StructureMap]:
    return [StructureMap(s, t, mp) for mp in _table_morphisms(s, t)]


def hom_to_3(s: RealSemigroup) -> list[StructureMap]:
    return enumerate_rs_morphisms(s, canonical_3())


def separation_audit(s: RealSemigroup) -> CheckReport:
    """Representation, transversal representation and point separation all
    reduce to the morphisms into the three-element structure.

    For a morphism h, the a with h(a) in a mask M of the three-element
    carrier are the union of h's fibres over M, kept for all eight M; so
    the a that every h sends into the three-element table at (hb, hc) are
    one AND per h, for each (b, c), a row of them at a time.  The witness is
    the least differing (a, b, c), a first, so every row is scanned unless
    a = 0 differs."""
    three = canonical_3()
    n = s.size
    names = s.names
    top = full_mask(n)
    # (h, the preimage under h of each subset of the three-element carrier)
    maps = []
    for h in (f.mapping for f in hom_to_3(s)):
        fibres = [0, 0, 0]
        for x, v in enumerate(h):
            fibres[v] |= 1 << x
        maps.append((h, [reduce(or_, (fibres[v] for v in bits(m)), 0)
                         for m in range(8)]))

    def differences(table, table3) -> Iterator[tuple[int, ...]]:
        for b, row in enumerate(table):
            via = (top,) * n
            for h, preimage in maps:
                via = tuple(map(and_, via, map(preimage.__getitem__,
                                               map(table3[h[b]].__getitem__, h))))
            yield tuple(map(xor, via, row))

    def least_difference(table, table3) -> Optional[tuple[str, str, str]]:
        found = _least_failure(differences(table, table3))
        return found and tuple(names[i] for i in found)

    w_d = least_difference(s.d, three.d)
    w_dt = least_difference(dt_table(s), dt_table(three))

    # a and b are separated unless each h sends b to h(a); the witness is
    # the least such a, with its least b above it.
    w_sep = None
    for a in range(n):
        same = top
        for h, preimage in maps:
            same &= preimage[1 << h[a]]
        above = same >> (a + 1)
        if above:
            w_sep = (names[a], names[a + 1 + _lowest_bit(above)])
            break

    return CheckReport(
        subject="separation",
        verdicts=(
            Verdict("i-representation-pointwise", w_d is None, w_d),
            Verdict("ii-transversal-pointwise", w_dt is None, w_dt),
            Verdict("iii-points-separated", w_sep is None, w_sep),
        ),
    )


# ---------------------------------------------------------------------------
# to real reduced multirings and back

def rs_to_mrred(s: RealSemigroup) -> FiniteMultiring:
    """Addition is the transversal representation set."""
    dt = dt_table(s)
    for a, row in enumerate(dt):
        if 0 in row:
            b = row.index(0)
            raise StructuralAnomaly(
                f"empty transversal set at ({s.names[a]},{s.names[b]}): "
                "the structure fails the real semigroup consequences")
    neg = tuple(s.neg(a) for a in range(s.size))
    return FiniteMultiring(s.carrier, dt, s.mul, neg, s.zero, s.one)


@lru_cache(maxsize=None)
def mrred_to_rs(a: FiniteMultiring) -> RealSemigroup:
    """Representation from scaled sums: d in D(x,y) iff d in d^2 x + d^2 y;
    the derived transversal sets must reproduce the original addition.
    Built once per structure: ``diagram`` reads it after the round-trip."""
    if not is_real_reduced_mr(a).overall:
        raise InputError("semigroup construction requires a real reduced input")
    # Whether c is in D(x, y) depends on c only through q = c^2, so row x
    # of D is the union over the distinct squares q of the row (qx + qy)_y
    # cut down to the elements whose square is q.
    n = a.size
    add, mul = a.add, a.mul
    roots = _roots(mul).items()
    d = []
    for x in range(n):
        row = (0,) * n
        for q, root_mask in roots:
            sums = add[mul[q][x]]
            row = tuple(map(or_, row, map(and_, map(sums.__getitem__, mul[q]),
                                          repeat(root_mask))))
        d.append(row)
    s = RealSemigroup(a.carrier, a.mul, a.one, a.zero, a.neg[a.one], tuple(d))
    if dt_table(s) != a.add:
        raise StructuralAnomaly(
            "derived transversal sets do not match the addition table")
    return s


def rs_mr_roundtrip(s: RealSemigroup) -> CheckReport:
    """Real semigroup -> multiring -> real semigroup restores the tables."""
    a = rs_to_mrred(s)
    reduced = is_real_reduced_mr(a)
    s2 = mrred_to_rs(a)
    same = same_tables(s, s2)
    return CheckReport(
        subject="real semigroup round-trip",
        verdicts=(
            Verdict("image-real-reduced", reduced.overall,
                    None if reduced.overall
                    else tuple(v.axiom for v in reduced.failures())),
            Verdict("tables-restored", same, None),
        ),
    )


def mr_rs_roundtrip(a: FiniteMultiring) -> CheckReport:
    """Real reduced multiring -> real semigroup -> multiring is the identity
    on tables."""
    s = mrred_to_rs(a)
    rs = check_rs(s)
    a2 = rs_to_mrred(s)
    same = a2 == a
    return CheckReport(
        subject="real reduced multiring round-trip",
        verdicts=(
            Verdict("image-is-real-semigroup", rs.overall,
                    None if rs.overall else tuple(v.axiom for v in rs.failures())),
            Verdict("tables-restored", same, None),
        ),
    )


def rs_product(factors: Sequence[RealSemigroup]) -> RealSemigroup:
    """Componentwise product with componentwise representation."""
    if not factors:
        raise InputError("empty real semigroup product")
    carrier, ((one, zero, minus_one), _, (mul,), (d,)) = _product_tables(factors)
    return RealSemigroup(carrier, mul, one, zero, minus_one, d)
