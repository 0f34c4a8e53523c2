"""Ternary and real semigroups: x^3 = x semigroups with constants 1, 0, -1
and a ternary representation relation D.

D is stored explicitly; the transversal relation D^t is always derived from
it, never stored, so the two can not drift apart.  The canonical three-element
structure and its uniqueness audit live here, as does the passage to and from
real reduced multirings (sums become transversal representation sets).

The layer works on whole masks: D(b, c) is the mask of the a it represents,
and each audit tests that mask, or a row of them, at once.  D^t is D cut by
two transposes of D taken with rows indexed by -a, each an n x n bit matrix
transposed in a few big-int operations (core's ``_transposed``).  TS1 and TS4
are core's commutative-monoid audit of the multiplication table,
``_monoid_defects``.  Two row builders over a table T serve every audit of
their shape: ``_scaling_failures`` (the a in T(b, c) with some ae outside
T(be, ce), on core's ``_scaling_rows`` as weak distributivity) is RS2 on D
and iii on D^t, and ``_square_transversals`` (the a in T(a^2 b, a^2 c)) is
D in ``mrred_to_rs``, T the addition, and RS6 and xvii on D^t.  RS2 and iii
pass at once when the scaling condition holds at the generators of the
multiplication, above 16 elements with the multiplication associative
(core's ``_holds_at_generators``, the gate of multiring distributivity);
only otherwise are the rows split.  RS6 and xvii read the square-transversal
rows of D^t kept on the structure (``_lifted_rows``), which ``mrred_to_rs``
keeps as D itself once it has checked that D^t is the addition.  RS4 and
RS5 test the union of D over the scaled sets {q x : q a square} and over
the agreement sets {x : ax = bx}, one union per distinct set; RS4 builds
the unions over b as one row per distinct scaled set of a and compares it
with row a of D.  RS8 groups the a of D(b, c) by their square.  Strong
associativity RS3 (on D^t) reads core's O(n^3) reassociation scan through
``_reassociation_failures``; weak associativity xvi (on D) reads one mask
of failing a per row of that scan, b(yz) less (by)z, and walks only the
row that holds the least a.  The other
consequences in ``check_rs_derived`` build, per (b, c), the mask of the a
that fail there, from transposes, from preimages under x -> ax and from
the roots of each square.  Both are core's ``_fibres``, of the columns of
the multiplication and of its line of squares; RS8 and xiv read the roots
of the squares in a mask as core's ``_Unions`` over those fibres.  The
pair and single-element ones are plain scans.
docs/axioms.md gives each consequence's formula, witness order and mask.
The separation audit reads core's pointwise tables of the three-element
D and D^t (``_pointwise_cells``), with one map per morphism into the
three-element structure.  Only a failing (b, c) is rescanned, so each
witness keeps the lexicographic order of the quantifier it comes from;
tests/reference_audits.py keeps the nested loops they are pinned to.
``rs_product`` is the componentwise product of ``constructions``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import and_, getitem, invert, itemgetter, or_, xor
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
    _OnCarrier,
    _Unions,
    _commutativity_defect,
    _cube_defect,
    _fibres,
    _first_difference,
    _holds_at_generators,
    _kept,
    _label_values,
    _lowest_bit,
    _map_defects,
    _monoid_defects,
    _picker,
    _pointwise_cells,
    _reassociation_defects,
    _reassociation_failures,
    _scaling_rows,
    _square_table,
    _table_morphisms,
    _transposed,
    bits,
    full_mask,
    mask_of,
    same_tables,
)
from .spectra import is_real_reduced_mr


@dataclass(frozen=True)
class RealSemigroup(_OnCarrier):
    """Carrier with commutative multiplication, constants, and D given as
    masks: d[b][c] is the set {a : a in D(b,c)}."""

    mul: tuple[tuple[int, ...], ...]
    one: int
    zero: int
    minus_one: int
    d: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.carrier.size
        object.__setattr__(self, "mul", _square_table(
            self.mul, n, "ragged multiplication table"))
        if min(map(min, self.mul)) < 0 or max(map(max, self.mul)) >= n:
            raise InputError("multiplication entry out of range")
        for what, idx in (("one", self.one), ("zero", self.zero),
                          ("minus_one", self.minus_one)):
            if not 0 <= idx < n:
                raise InputError(f"{what} out of range")
        object.__setattr__(self, "d", _square_table(
            self.d, n, "ragged representation table"))
        if min(map(min, self.d)) < 0 or max(map(max, self.d)) > full_mask(n):
            raise InputError("representation set outside carrier")

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
    table = _label_values(carrier, mul)
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
                         index(minus_one), d)


@_kept
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
    w_cube = _cube_defect(s.mul, names)
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


def _roots(mul: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Entry q is the mask of the c with c^2 = q (core's ``_fibres`` of the
    squares); it is 0 where q is no square."""
    return _fibres([[row[c] for c, row in enumerate(mul)]])[0]


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


def _agreements(mul: Sequence[Sequence[int]], fibres: Sequence[Sequence[int]]
                ) -> list[tuple[int, ...]]:
    """agree[a][b] is the mask of the x with ax = bx: for each a the masks
    fibres[x][ax] over x, fibres of the columns of mul, give those of a."""
    return [_transposed(list(map(getitem, fibres, row))) for row in mul]


def _scaling_failures(table: Sequence[Sequence[int]], mul: Sequence[Sequence[int]],
                      elements: _Elements, pre: _CellUnion) -> Iterator[tuple[int, ...]]:
    """Row b of bad(b, c) = {a in table[b][c] : ae not in table[be][ce] for
    some e}, over c.  A row is tested whole first: for every e, core's
    scaling rows (table[b][c] e)_c must lie in (table[be][ce])_c.  A passing
    row is zeros; in a failing one each cell failing at some e is split,
    less the meet over e of pre[table[be][ce]][e], pre[M][x] = {a : ax in M}."""
    cells = range(len(mul))
    for row, (images, targets) in zip(table, _scaling_rows(table, mul, None, elements)):
        failing = set()
        for image, target in zip(images, targets):
            if tuple(map(or_, image, target)) != target:
                failing.update(compress(cells, map(and_, image, map(invert, target))))
        if not failing:
            yield (0,) * len(cells)
            continue
        yield tuple(cell & ~reduce(and_, map(getitem, map(
            pre.__getitem__, map(itemgetter(c), targets)), cells))
            if c in failing else 0 for c, cell in enumerate(row))


def _square_transversals(table: Sequence[Sequence[int]],
                         mul: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """The rows ({a : a in table[a^2 b][a^2 c]})_c: a counts only through
    q = a^2, so row b is the union over the distinct squares q of roots(q)
    cut by (table[qb][qc])_c."""
    n = len(mul)
    squares = [(_picker(mul[q]), mul[q], root_mask)
               for q, root_mask in enumerate(_roots(mul)) if root_mask]
    for b in range(n):
        row = (0,) * n
        for gather, line, root_mask in squares:
            row = tuple(map(or_, row, map(root_mask.__and__, gather(table[line[b]]))))
        yield row


@_kept
def _lifted_rows(s: RealSemigroup) -> tuple[tuple[int, ...], ...]:
    """The ``_square_transversals`` of D^t, which RS6 and xvii compare with
    D.  ``mrred_to_rs`` keeps D itself, made as those rows of the addition
    it has checked D^t against."""
    return tuple(_square_transversals(dt_table(s), s.mul))


def _weak_associativity_failure(d: Sequence[Sequence[int]]
                                ) -> Optional[tuple[int, int, int, int, int]]:
    """The least (a, b, c, y, z) with a in D(b, c), c in D(y, z) and a
    outside (by)z, or None.  Such an a is in b(yz) less (by)z, so each row
    b of the reassociation scan gives one mask of the failing a, and the
    least a comes from the first b whose mask holds it; the scan stops
    after the first row that holds a = 0.  Only that row's defects are
    walked for (c, y, z)."""
    found = None
    for b, defects in itertools.groupby(_reassociation_defects(d), itemgetter(0)):
        defects = list(defects)
        failing = reduce(or_, (right & ~left for *_, left, right in defects))
        if failing and (found is None or _lowest_bit(failing) < found[0]):
            found = _lowest_bit(failing), b, defects
            if not found[0]:
                break
    if found is None:
        return None
    a, b, defects = found
    # the c with a in D(b, c), then the least (c, y, z) among the defects
    reach = mask_of(c for c, cell in enumerate(d[b]) if (cell >> a) & 1)
    c, y, z = min((_lowest_bit(d[y][z] & reach), y, z)
                  for _, y, z, left, right in defects if (right & ~left) >> a & 1)
    return a, b, c, y, z


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
    # fibres[x][v]: the a with ax = v
    fibres = _fibres(zip(*mul))

    w0 = _commutativity_defect(d, names)

    w1 = None
    for a, b in itertools.product(range(n), repeat=2):
        if not (d[a][b] >> a) & 1:
            w1 = (names[a], names[b])
            break

    # RS2: passed when it holds at the generators; otherwise the first
    # failing scaling row of D, its least c, a and then e.
    w2 = None
    if not _holds_at_generators(d, mul, ts.verdict("TS1-assoc").passed):
        pre = _CellUnion.over(list(zip(*fibres)), elements)  # {a : ax in M} at [M][x]
        w2 = next(((_lowest_bit(cell), b, c)
                   for b, row in enumerate(_scaling_failures(d, mul, elements, pre))
                   for c, cell in enumerate(row) if cell), None)
    if w2 is not None:
        a, b, c = w2
        e = next(e for e in range(n) if not (d[mul[b][e]][mul[c][e]] >> mul[a][e]) & 1)
        w2 = (names[a], names[b], names[c], names[e])

    # RS3: the least (b, c, a, d, e) with a in D^t(b, c), c in D^t(d, e)
    # and a outside the union of D^t(x, e) over x in D^t(b, d); b is the
    # first row of the scan with a failure.
    w3 = None
    for a, b, c, dd, e in _reassociation_failures(dt):
        if w3 is not None and b != w3[0]:
            break
        if w3 is None or (b, c, a, dd, e) < w3:
            w3 = (b, c, a, dd, e)
    if w3 is not None:
        b, c, a, dd, e = w3
        w3 = (names[a], names[b], names[c], names[dd], names[e])

    # RS4: the union of D(c^2 a, e^2 b) over (c, e) is the union of D over
    # S_a x S_b, S_x = {q x : q a square}.  Over b it is one row, built once
    # per distinct S_a and compared with row a of D; (c, e) is scanned only
    # at the first failing (a, b).
    w4 = None
    scaled = [mask_of(mul[q][x] for q in compress(range(n), roots)) for x in range(n)]
    lhs_of: dict[int, tuple[int, ...]] = {}
    for a, row in enumerate(d):
        lhs = lhs_of.get(scaled[a])
        if lhs is None:
            over = _Unions(unions[scaled[a]])
            lhs = lhs_of[scaled[a]] = tuple(map(over.__getitem__, scaled))
        joined = tuple(map(or_, lhs, row))
        if joined == row:
            continue
        b = _first_difference(joined, row)
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
    for a, row in enumerate(_agreements(mul, fibres)):
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

    # RS6: the c in D(a, b) outside the square-transversal row of D^t.
    w6 = next(((names[_lowest_bit(bad)], names[a], names[b])
               for a, (row, lifted) in enumerate(zip(d, _lifted_rows(s)))
               for b, bad in enumerate(map(and_, row, map(invert, lifted))) if bad),
              None)

    w7 = None
    for a, b in itertools.product(range(n), repeat=2):
        if a != b and dt[a][s.neg(b)] & dt[b][s.neg(a)]:
            w7 = (names[a], names[b])
            break

    # RS8: a in D(b, c) must have a^2 in D(b^2, c^2); the a whose square is
    # in a mask M are the roots of the squares in M, one union per mask.
    w8 = None
    square_roots = _Unions(roots)
    for b, c in itertools.product(range(n), repeat=2):
        bad = d[b][c] & ~square_roots[d[mul[b][b]][mul[c][c]]]
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
    # iii: the scaling rows of D^t, with pre[M][x] = {a : ax in M}, which xiv
    # reads too; e is found at the least failure only.
    pre = _CellUnion.over(list(zip(*_fibres(zip(*mul)))), elements)
    w3 = None
    if not _holds_at_generators(dt, mul):
        w3 = _least_failure(_scaling_failures(dt, mul, elements, pre))
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
    square_roots = _Unions(roots)
    rooted = {p: tuple(map(square_roots.__getitem__, map(d[p].__getitem__, squares)))
              for p in compress(cells, roots)}

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
    report("xvi-weak-associativity", _weak_associativity_failure(d))
    # xvii: D against the square-transversal rows of D^t.
    report("xvii-square-transversal", _least_failure(
        tuple(map(xor, row, lifted)) for row, lifted in zip(d, _lifted_rows(s))))
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
    cells = [(b, c) for b in range(3) for c in range(b, 3)]
    # D(b, c) holds b and c and any subset of the other elements.
    choices = [[m for m in range(8) if m >> b & m >> c & 1] for b, c in cells]
    survivors = []
    for chosen in itertools.product(*choices):
        d = [[0] * 3 for _ in range(3)]
        for (b, c), cell in zip(cells, chosen):
            d[b][c] = d[c][b] = cell
        cand = RealSemigroup(base.carrier, base.mul, base.one, base.zero,
                             base.minus_one, d)
        if check_rs(cand).overall:
            survivors.append(cand)
    return len(survivors), survivors[0] if survivors else None


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
    reduce to the morphisms h into the three-element structure.

    D and D^t through the morphisms are core's pointwise tables of the
    three-element D and D^t, one call for both; each witness is the least
    differing (a, b, c), a first.  a and b are separated unless every h
    sends them to one sign: the witness is the least a whose sign vector
    over the h recurs, with the least b above it that repeats it."""
    three = canonical_3()
    names = s.names
    maps = [f.mapping for f in hom_to_3(s)]
    via_d, via_dt = _pointwise_cells(s.size, maps, three.d, dt_table(three))

    def least_difference(table, via) -> Optional[tuple[str, str, str]]:
        found = _least_failure(tuple(map(xor, row, row_via))
                               for row, row_via in zip(table, via))
        return found and tuple(names[i] for i in found)

    w_d = least_difference(s.d, via_d)
    w_dt = least_difference(dt_table(s), via_dt)

    # the points by their sign vectors, in order of their least point
    classes: dict[tuple[int, ...], list[int]] = {}
    for x, vector in enumerate(zip(*maps) if maps else [()] * s.size):
        classes.setdefault(vector, []).append(x)
    same = next((c for c in classes.values() if len(c) > 1), None)
    w_sep = same and (names[same[0]], names[same[1]])

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


@_kept
def mrred_to_rs(a: FiniteMultiring) -> RealSemigroup:
    """Representation from scaled sums: d in D(x,y) iff d in d^2 x + d^2 y,
    the square-transversal rows of the addition; the derived transversal
    sets must reproduce the original addition.
    Kept on ``a``: ``diagram`` reads it after the round-trip."""
    if not is_real_reduced_mr(a).overall:
        raise InputError("semigroup construction requires a real reduced input")
    s = RealSemigroup(a.carrier, a.mul, a.one, a.zero, a.neg[a.one],
                      tuple(_square_transversals(a.add, a.mul)))
    if dt_table(s) != a.add:
        raise StructuralAnomaly(
            "derived transversal sets do not match the addition table")
    # D^t is the addition, so D, its square-transversal rows, are D^t's.
    _lifted_rows(s, s.d)
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
