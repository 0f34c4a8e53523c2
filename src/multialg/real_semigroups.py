"""Ternary and real semigroups: x^3 = x semigroups with constants 1, 0, -1
and a ternary representation relation D.

D is stored explicitly; the transversal relation D^t is always derived from
it, never stored, so the two can not drift apart.  The canonical three-element
structure and its uniqueness audit live here, as does the passage to and from
real reduced multirings (sums become transversal representation sets).

TS1's associativity is core's byte compare of multiplication rows,
``_associativity_defect``.  ``check_rs`` and ``check_rs_derived`` run on
cell masks.  RS2 images each distinct cell under every x -> xe once.
Strong associativity RS3 (on D^t) and weak associativity xvi (on D) read
core's O(n^3) reassociation scan through ``_reassociation_failures``; RS4,
RS5 and the monotonicity consequence xiii are mask tests over distinct
squares, agreement sets and distinct cells, and the arity-4 consequences
iii and v are O(n^3) scans of failure masks.  Each witness keeps the
lexicographic order of the quantifier it comes from;
tests/reference_audits.py keeps the nested loops they are pinned to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .core import (
    Carrier,
    CheckReport,
    FiniteMultiring,
    InputError,
    StructureMap,
    StructuralAnomaly,
    Verdict,
    _Elements,
    _associativity_defect,
    _lowest_bit,
    _map_defects,
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

    def in_d(self, a: int, b: int, c: int) -> bool:
        return bool((self.d[b][c] >> a) & 1)


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
    table = tuple(tuple(carrier.index(v) for v in row) for row in mul)
    d = [[0] * n for _ in range(n)]
    for (a, b, c) in d_triples:
        d[carrier.index(b)][carrier.index(c)] |= 1 << carrier.index(a)
    return RealSemigroup(carrier, table, carrier.index(one),
                         carrier.index(zero), carrier.index(minus_one),
                         tuple(tuple(r) for r in d))


@lru_cache(maxsize=None)
def dt_table(s: RealSemigroup) -> tuple[tuple[int, ...], ...]:
    """Transversal representation, derived: a in D^t(b,c) iff a in D(b,c),
    -b in D(-a,c) and -c in D(b,-a)."""
    n = s.size
    out = [[0] * n for _ in range(n)]
    for b, c in itertools.product(range(n), repeat=2):
        m = 0
        for a in bits(s.d[b][c]):
            if s.in_d(s.neg(b), s.neg(a), c) and s.in_d(s.neg(c), b, s.neg(a)):
                m |= 1 << a
        out[b][c] = m
    return tuple(tuple(r) for r in out)


def in_dt(s: RealSemigroup, a: int, b: int, c: int) -> bool:
    return bool((dt_table(s)[b][c] >> a) & 1)


# ---------------------------------------------------------------------------
# axiom audits

def check_ts(s: RealSemigroup) -> CheckReport:
    n = s.size
    names = s.names

    w_assoc = _associativity_defect(s.mul)
    w_assoc = w_assoc and tuple(names[i] for i in w_assoc)
    w_comm = None
    for a, b in itertools.combinations(range(n), 2):
        if s.mul[a][b] != s.mul[b][a]:
            w_comm = (names[a], names[b])
            break
    w_unit = None
    for a in range(n):
        if s.mul[s.one][a] != a:
            w_unit = (names[a],)
            break
    w_cube = None
    for a in range(n):
        if s.mul[s.mul[a][a]][a] != a:
            w_cube = (names[a],)
            break
    w_sign = None
    if s.minus_one == s.one or s.mul[s.minus_one][s.minus_one] != s.one:
        w_sign = (names[s.minus_one],)
    w_zero = None
    for a in range(n):
        if s.mul[a][s.zero] != s.zero:
            w_zero = (names[a],)
            break
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


def check_rs(s: RealSemigroup) -> CheckReport:
    """TS1-TS5 followed by RS0-RS8, with D^t derived internally."""
    ts = check_ts(s)
    n = s.size
    names = s.names
    d = s.d
    dt = dt_table(s)

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
    # x -> xe leaves D(be, ce).  Each distinct cell is imaged under every e
    # once; the first failing (b, c) is rescanned for the least a, then e.
    w2 = None
    columns = list(zip(*s.mul))
    elements = _Elements()
    images: dict[int, list[int]] = {}
    for b, c in itertools.product(range(n), repeat=2):
        cell = d[b][c]
        if cell not in images:
            images[cell] = [mask_of(col[a] for a in elements[cell])
                            for col in columns]
        if any(image & ~d[be][ce]
               for image, be, ce in zip(images[cell], s.mul[b], s.mul[c])):
            w2 = next((names[a], names[b], names[c], names[e])
                      for a in bits(cell) for e in range(n)
                      if not (d[s.mul[b][e]][s.mul[c][e]] >> s.mul[a][e]) & 1)
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

    # RS4: D(c^2 a, e^2 b) depends on (c, e) only through the distinct
    # squares, so their union is tested first and (c, e) scanned on failure.
    w4 = None
    squares = {s.mul[c][c] for c in range(n)}
    scaled = [{s.mul[q][x] for q in squares} for x in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        lhs = 0
        for u in scaled[a]:
            for v in scaled[b]:
                lhs |= d[u][v]
        if not lhs & ~d[a][b]:
            continue
        for c, e in itertools.product(range(n), repeat=2):
            missing = d[s.mul[s.mul[c][c]][a]][s.mul[s.mul[e][e]][b]] & ~d[a][b]
            if missing:
                w4 = (names[_lowest_bit(missing)], names[a], names[b],
                      names[c], names[e])
                break
        break

    # RS5: D(d, e) must stay inside the set where a and b agree whenever d
    # and e are in it.
    w5 = None
    for a, b in itertools.product(range(n), repeat=2):
        agree = mask_of(x for x in range(n) if s.mul[a][x] == s.mul[b][x])
        inside = tuple(bits(agree))
        found = next(((dd, e) for dd in inside for e in inside
                      if d[dd][e] & ~agree), None)
        if found:
            dd, e = found
            w5 = (names[a], names[b], names[_lowest_bit(d[dd][e] & ~agree)],
                  names[dd], names[e])
            break

    w6 = None
    for a, b in itertools.product(range(n), repeat=2):
        for c in bits(d[a][b]):
            c2 = s.mul[c][c]
            if not (dt[s.mul[c2][a]][s.mul[c2][b]] >> c) & 1:
                w6 = (names[c], names[a], names[b])
                break
        if w6:
            break

    w7 = None
    for a, b in itertools.product(range(n), repeat=2):
        if a != b and dt[a][s.neg(b)] & dt[b][s.neg(a)]:
            w7 = (names[a], names[b])
            break

    w8 = None
    for b, c in itertools.product(range(n), repeat=2):
        for a in bits(d[b][c]):
            if not (d[s.mul[b][b]][s.mul[c][c]] >> s.mul[a][a]) & 1:
                w8 = (names[a], names[b], names[c])
                break
        if w8:
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
    """Seventeen consequences that must hold in any real semigroup."""
    n = s.size
    names = s.names
    d = s.d
    dt = dt_table(s)
    mul = s.mul
    neg = s.neg
    elements = _Elements()
    verdicts = []

    def quantify(axiom: str, pred, arity: int) -> None:
        witness = None
        for combo in itertools.product(range(n), repeat=arity):
            if not pred(*combo):
                witness = tuple(names[i] for i in combo)
                break
        verdicts.append(Verdict(axiom, witness is None, witness))

    def least(axiom: str, witnesses: Iterable[tuple[int, ...]]) -> None:
        witness = min(witnesses, default=None)
        verdicts.append(Verdict(axiom, witness is None, None if witness is None
                                else tuple(names[i] for i in witness)))

    quantify("i-transversal-shift",
             lambda a, b, c: not (dt[b][c] >> a) & 1
             or (dt[neg(a)][c] >> neg(b)) & 1, 3)
    quantify("ii-zero-represented", lambda a, b: (d[a][b] >> s.zero) & 1, 2)
    # iii on masks: at (b, c, e) the failing a are D^t(b, c) less the
    # preimage under x -> xe of D^t(be, ce), kept per (e, target cell).
    # a leads the order (a, b, c, e), so the least failure leads with the
    # lowest failing bit.
    preimages: dict[tuple[int, int], int] = {}

    def preimage(e: int, cell: int) -> int:
        if (e, cell) not in preimages:
            preimages[e, cell] = mask_of(a for a in range(n)
                                         if (cell >> mul[a][e]) & 1)
        return preimages[e, cell]

    least("iii-transversal-scaling", (
        (_lowest_bit(bad), b, c, e)
        for b, c, e in itertools.product(range(n), repeat=3)
        if (bad := dt[b][c] & ~preimage(e, dt[mul[b][e]][mul[c][e]]))))
    quantify("iv-idempotent-on-0-1",
             lambda a: not ((d[s.zero][s.one] >> a) & 1
                            or (d[s.one][s.one] >> a) & 1)
             or mul[a][a] == a, 1)
    # v on masks: at (c, a, b) the failing dd are D(ca, cb) less the
    # elements that c^2 fixes; dd leads the order (dd, c, a, b).
    moved = [mask_of(x for x in range(n) if mul[mul[c][c]][x] != x)
             for c in range(n)]
    least("v-common-factor", (
        (_lowest_bit(bad), c, a, b)
        for c, a, b in itertools.product(range(n), repeat=3)
        if (bad := d[mul[c][a]][mul[c][b]] & moved[c])))
    quantify("vi-squares-represented",
             lambda a, b: (d[s.one][b] >> mul[a][a]) & 1, 2)
    idem = mask_of(a for a in range(n) if mul[a][a] == a)
    verdicts.append(Verdict("vi-idempotents-are-d11",
                            d[s.one][s.one] == idem,
                            None if d[s.one][s.one] == idem
                            else (s.carrier.labels(d[s.one][s.one]),
                                  s.carrier.labels(idem))))
    quantify("vii-transversal-diagonal",
             lambda a, b: ((dt[b][b] >> a) & 1) == (a == b), 2)
    quantify("viii-zero-zero", lambda a: ((d[s.zero][s.zero] >> a) & 1) == (a == s.zero), 1)
    quantify("ix-one-absorbs", lambda a: (dt[s.one][a] >> s.one) & 1, 1)
    verdicts.append(Verdict("x-full-opposite",
                            dt[s.one][s.minus_one] == full_mask(n),
                            None if dt[s.one][s.minus_one] == full_mask(n)
                            else s.carrier.labels(dt[s.one][s.minus_one])))
    quantify("xi-product-vs-minus-square",
             lambda a, b: (d[s.one][neg(mul[a][a])] >> mul[a][b]) & 1, 2)
    quantify("xii-zero-transversal",
             lambda a, b: ((dt[a][b] >> s.zero) & 1) == (a == neg(b)), 2)
    # xiii: every cell K = D(x, y) holds D(b, c) for b, c in K; each
    # distinct cell is tested once, at its first position.
    first_at: dict[int, tuple[int, int]] = {}
    for x, y in itertools.product(range(n), repeat=2):
        first_at.setdefault(d[x][y], (x, y))
    least("xiii-monotone", (
        (_lowest_bit(d[b][c] & ~cell), b, c) + first_at[cell]
        for cell in first_at for b in elements[cell]
        for c in elements[cell] if d[b][c] & ~cell))
    quantify("xiv-product-form",
             lambda a, b, c: ((d[b][c] >> a) & 1)
             == ((d[s.one][mul[b][c]] >> mul[a][b]) & 1
                 and (d[s.one][mul[b][c]] >> mul[a][c]) & 1
                 and (d[mul[b][b]][mul[c][c]] >> mul[a][a]) & 1), 3)
    quantify("xv-transversal-nonempty", lambda a, b: dt[a][b] != 0, 2)
    least("xvi-weak-associativity", _reassociation_failures(d, elements))
    quantify("xvii-square-transversal",
             lambda a, b, c: ((d[b][c] >> a) & 1)
             == ((dt[mul[mul[a][a]][b]][mul[mul[a][a]][c]] >> a) & 1), 3)

    return CheckReport("real semigroup consequences", tuple(verdicts))


# ---------------------------------------------------------------------------
# the canonical three-element structure

def canonical_3() -> RealSemigroup:
    """Unique real semigroup on the sign ternary semigroup {-1, 0, 1}."""
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
    reduce to the morphisms into the three-element structure."""
    three = canonical_3()
    homs = hom_to_3(s)
    n = s.size
    names = s.names
    dt = dt_table(s)
    dt3 = dt_table(three)

    w_d = None
    for a, b, c in itertools.product(range(n), repeat=3):
        direct = s.in_d(a, b, c)
        via = all((three.d[h.mapping[b]][h.mapping[c]] >> h.mapping[a]) & 1
                  for h in homs)
        if direct != via:
            w_d = (names[a], names[b], names[c])
            break

    w_dt = None
    for a, b, c in itertools.product(range(n), repeat=3):
        direct = bool((dt[b][c] >> a) & 1)
        via = all((dt3[h.mapping[b]][h.mapping[c]] >> h.mapping[a]) & 1
                  for h in homs)
        if direct != via:
            w_dt = (names[a], names[b], names[c])
            break

    w_sep = None
    for a, b in itertools.combinations(range(n), 2):
        if all(h.mapping[a] == h.mapping[b] for h in homs):
            w_sep = (names[a], names[b])
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
    for a, b in itertools.product(range(s.size), repeat=2):
        if dt[a][b] == 0:
            raise StructuralAnomaly(
                f"empty transversal set at ({s.names[a]},{s.names[b]}): "
                "the structure fails the real semigroup consequences")
    neg = tuple(s.neg(a) for a in range(s.size))
    return FiniteMultiring(s.carrier, dt, s.mul, neg, s.zero, s.one)


def mrred_to_rs(a: FiniteMultiring) -> RealSemigroup:
    """Representation from scaled sums: d in D(x,y) iff d in d^2 x + d^2 y;
    the derived transversal sets must reproduce the original addition."""
    if not is_real_reduced_mr(a).overall:
        raise InputError("semigroup construction requires a real reduced input")
    # Whether c is in D(x, y) depends on c only through q = c^2, so D(x, y)
    # is the union over the distinct squares q of q x + q y cut down to the
    # elements whose square is q.
    n = a.size
    roots: dict[int, int] = {}
    for c in range(n):
        q = a.mul[c][c]
        roots[q] = roots.get(q, 0) | 1 << c
    d = [[0] * n for _ in range(n)]
    for x, y in itertools.product(range(n), repeat=2):
        m = 0
        for q, root_mask in roots.items():
            m |= a.add[a.mul[q][x]][a.mul[q][y]] & root_mask
        d[x][y] = m
    s = RealSemigroup(a.carrier, a.mul, a.one, a.zero, a.neg[a.one],
                      tuple(tuple(r) for r in d))
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


def rs_product(factors: Sequence[RealSemigroup], sep: str = ",") -> RealSemigroup:
    """Componentwise product with componentwise representation."""
    if not factors:
        raise InputError("empty real semigroup product")
    index_tuples = list(itertools.product(*(range(f.size) for f in factors)))
    pos = {t: i for i, t in enumerate(index_tuples)}
    names = tuple("(" + sep.join(f.names[i] for f, i in zip(factors, t)) + ")"
                  for t in index_tuples)
    mul = tuple(tuple(pos[tuple(f.mul[x][y] for f, x, y in zip(factors, s, t))]
                      for t in index_tuples) for s in index_tuples)
    n = len(index_tuples)
    d = [[0] * n for _ in range(n)]
    for bi, b in enumerate(index_tuples):
        for ci, c in enumerate(index_tuples):
            m = 0
            for ai, a in enumerate(index_tuples):
                if all(f.in_d(x, y, z) for f, x, y, z in zip(factors, a, b, c)):
                    m |= 1 << ai
            d[bi][ci] = m
    return RealSemigroup(
        Carrier(names), mul,
        pos[tuple(f.one for f in factors)],
        pos[tuple(f.zero for f in factors)],
        pos[tuple(f.minus_one for f in factors)],
        tuple(tuple(r) for r in d))
