"""Sign-function spaces: abstract ordering spaces ({-1,1}-valued) and
abstract real spectra ({-1,0,1}-valued), with value sets, axiom audits, and
the constructions to and from real reduced multifields and multirings.

The value and transversal tables are core's pointwise tables
(``_pointwise_cells``, described there), with one map per point, each
function to its sign at the point; the point-map search and the point
cones of ``check_ars`` read the same maps' preimages, core's ``_Unions``
of their ``_fibres``.  Products, negations and positions are kept per space.
``aos_to_mfred`` hands the value table, as D, to the zero adjunction of
``constructions``.  ``mrred_to_ars`` reads the transversal table through
the evaluation index, rows and columns in one ``itemgetter`` each, and
compares it with the addition's cells imaged through that index a row at a
time; only a row that differs is walked for its witness.

The character condition AX2 is audited by exhaustive enumeration: characters
of the function group in the two-valued case, candidate cones over sign
pairs in the three-valued case.  Every admissible candidate must come from a
point.  A character is admissible when it sends -1 to -1 and its kernel is
closed under the value sets.  One generator, ``_admissible``, lists these
characters for AX2, over the basis of ``_echelon_basis``, and, with the
sums in place of the value sets, the points of a real reduced multifield's
space.  Its kernel test reads only the row of 1, which stands for every row
by translation on both inputs (see there).  The cones are searched by
``spectra._sign_cones``, the search that also yields the orderings of a
multiring and tests each leaf for closure; the cones' supports meet
``spectra._is_prime``, the prime test behind ``is_prime_mask``.

The associativity audits (AX3 of ``check_aos`` and ``check_ars``, and
``value_set_reassociation_check``) read core's O(n^3) reassociation scan
(``_reassociation_defects``, ``_reassociation_failures``) over the value or
transversal table; each witness is still the first failure in the
lexicographic order of the nested loops kept in tests/reference_audits.py.

Maps of sign spaces come from one search, ``_point_maps``.  It assigns the
source points in order and keeps, for each target function h, agree[h]: the
mask of the source functions equal to h o alpha on the points assigned so
far.  An empty mask cuts the branch.  The source functions are distinct, so
at a leaf each mask holds exactly one function, the pullback h o alpha:
every leaf is a morphism and needs no further check.  The induced point
maps of morphisms of multifields and multirings share one cone pullback,
the ``_Unions`` of the fibres of the map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterator, Optional, Sequence

from .constructions import _adjoin_zero
from .core import (
    Carrier,
    CheckReport,
    FiniteMultiring,
    InputError,
    StructureMap,
    Verdict,
    _SINGLETONS,
    _Unions,
    _fibres,
    _first_difference,
    _kept,
    _lowest_bit,
    _picker,
    _pointwise_cells,
    _reassociation_defects,
    _reassociation_failures,
    bits,
    find_isomorphism,
    full_mask,
    mask_of,
)
from .spectra import (
    _is_prime,
    _sign_cones,
    enumerate_orderings,
    is_real_reduced_mf,
    is_real_reduced_mr,
)

AOS = "aos"
ARS = "ars"


@dataclass(frozen=True)
class SignSpace:
    """Finite point set plus a set of sign-valued functions on it."""

    mode: str
    points: tuple[str, ...]
    functions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.mode not in (AOS, ARS):
            raise InputError(f"unknown sign space mode {self.mode!r}")
        if isinstance(self.points, str):
            raise InputError("points must be a sequence of labels, not a string")
        if not self.points:
            raise InputError("empty point set")
        if len(set(self.points)) != len(self.points):
            raise InputError("duplicate point labels")
        allowed = (-1, 1) if self.mode == AOS else (-1, 0, 1)
        seen: dict[tuple[int, ...], None] = {}
        for f in self.functions:
            if len(f) != len(self.points):
                raise InputError("function arity does not match points")
            f = _integers(f)
            if any(v not in allowed for v in f):
                raise InputError(f"function value outside {allowed}")
            if f in seen:
                raise InputError(f"duplicate function {f}")
            seen[f] = None
        if not seen:
            raise InputError("empty function set")
        # Lists are kept as tuples, in the given order, so that the space
        # stays hashable and its cached values can not go stale.
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "functions", tuple(seen))

    @property
    def npoints(self) -> int:
        return len(self.points)

    @property
    def nfunctions(self) -> int:
        return len(self.functions)

    @cached_property
    def _positions(self) -> dict[tuple[int, ...], int]:
        return {f: i for i, f in enumerate(self.functions)}

    @cached_property
    def _negations(self) -> tuple[Optional[int], ...]:
        """Index of each function's negation; None where it is missing."""
        return tuple(map(self.index, map(self.negation, range(self.nfunctions))))

    def index(self, f: tuple[int, ...]) -> Optional[int]:
        try:
            return self._positions.get(f)
        except TypeError:  # unhashable, a list say: no function
            return None

    def constant(self, v: int) -> Optional[int]:
        return self.index(tuple([v] * self.npoints))

    def pointwise_mul(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(a * b for a, b in zip(self.functions[i], self.functions[j]))

    def negation(self, i: int) -> tuple[int, ...]:
        return tuple(-v for v in self.functions[i])


def function_label(f: tuple[int, ...]) -> str:
    return "".join("+" if v > 0 else "-" if v < 0 else "0" for v in f)


def _integers(f: Sequence[int]) -> tuple[int, ...]:
    """f as a tuple, if every value has type int (a bool, float or str
    value is an input error)."""
    f = tuple(f)
    for v in f:
        if type(v) is not int:
            raise InputError(f"function value {v!r} is not an integer")
    return f


def make_sign_space(mode: str, points: Sequence[str],
                    functions: Sequence[Sequence[int]]) -> SignSpace:
    if isinstance(points, str):
        raise InputError("points must be a sequence of labels, not a string")
    return SignSpace(mode, tuple(points), sorted(map(_integers, functions)))


def fan_aos(k: int) -> SignSpace:
    """All sign vectors on k points: the direct sum of k one-point spaces.
    This is not Marshall's fan of rank k, which has 2^(k-1) points."""
    if k < 1:
        raise InputError("fan needs at least one point")
    pts = tuple(f"x{i}" for i in range(k))
    funcs = list(itertools.product((-1, 1), repeat=k))
    return make_sign_space(AOS, pts, funcs)


def one_point_ars() -> SignSpace:
    return make_sign_space(ARS, ("x0",), [(-1,), (0,), (1,)])


# ---------------------------------------------------------------------------
# value sets

def _sign_maps(s: SignSpace) -> list[tuple[int, ...]]:
    """For each point x, the map from function index k to s.functions[k][x]
    + 1, the index of that sign in the three-element structures."""
    return [tuple(v + 1 for v in column) for column in zip(*s.functions)]


def _pointwise_table(s: SignSpace, allowed) -> tuple[tuple[int, ...], ...]:
    """Cell (a, b) masks the functions c with c(x) in allowed(a(x), b(x)) at
    every point x, through core's ``_pointwise_cells``."""
    signs = (-1, 0, 1)
    cells = [[mask_of(w + 1 for w in allowed(u, v)) for v in signs] for u in signs]
    return _pointwise_cells(s.nfunctions, _sign_maps(s), cells)[0]


@_kept
def value_table(s: SignSpace) -> tuple[tuple[int, ...], ...]:
    """D(a,b) as masks over function indices: c takes a value of a or b at
    each point, or, in ars mode, zero."""
    if s.mode == AOS:
        return _pointwise_table(s, lambda u, v: {u, v})
    return _pointwise_table(s, lambda u, v: {0, u, v})


@_kept
def transversal_table(s: SignSpace) -> tuple[tuple[int, ...], ...]:
    """D^t(a,b): as D but a zero of c forces b = -a at that point."""
    if s.mode != ARS:
        raise InputError("transversal sets exist in ars mode only")
    return _pointwise_table(
        s, lambda u, v: {w for w in (u, v) if w} | ({0} if u == -v else set()))


@_kept
def _product_table(s: SignSpace) -> tuple[tuple[Optional[int], ...], ...]:
    """Index of the pointwise product of functions i and j; None where the
    product leaves the function set.  Each function is read as two masks
    over the points, its negative and its zero points: the product is zero
    where either factor is and negative where exactly one is."""
    signs = [(mask_of(x for x, v in enumerate(f) if v < 0),
              mask_of(x for x, v in enumerate(f) if v == 0)) for f in s.functions]
    index = {m: k for k, m in enumerate(signs)}.get
    return tuple(tuple([index(((ni ^ nj) & ~(zi | zj), zi | zj)) for nj, zj in signs])
                 for ni, zi in signs)


def value_set(s: SignSpace, a: tuple[int, ...],
              b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """D(a,b) as a tuple of functions."""
    i, j = s.index(a), s.index(b)
    if i is None or j is None:
        raise InputError("value set arguments must belong to the space")
    return tuple(s.functions[k] for k in bits(value_table(s)[i][j]))


def transversal_value_set(s: SignSpace, a: tuple[int, ...],
                          b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    i, j = s.index(a), s.index(b)
    if i is None or j is None:
        raise InputError("value set arguments must belong to the space")
    return tuple(s.functions[k] for k in bits(transversal_table(s)[i][j]))


# ---------------------------------------------------------------------------
# characters

def _admissible(mul: Sequence[Sequence[int]], one: int, minus: int,
                generators: Sequence[int],
                cells: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """The sign characters of the exponent-2 group that ``generators`` span
    under the product table ``mul``, with identity ``one``, that send
    ``minus`` to -1 and whose kernel is closed under ``cells``, each as its
    signs on the group's elements in increasing order.

    expr[x] holds, as bits, the basis elements whose product is x: a
    generator that no product of the basis so far reaches joins the basis.
    The basis signs run in ``itertools.product((1, -1))`` order, and the sign
    of x is the parity of its basis elements set to -1.  The kernel K is a
    group and the callers' cells are translates of the row of ``one``:
    D(a, b) = a D(1, ab) on a space whose functions form a group, and
    a + b = a(1 + a^-1 b) in a multifield.  So K is closed when that row
    sends K into K."""
    expr = {one: 0}
    dim = 0
    for x in generators:
        if x not in expr:
            expr.update({mul[y][x]: combo | (1 << dim) for y, combo in expr.items()})
            dim += 1
    group = sorted(expr)
    codes = [expr[x] for x in group]
    row = cells[one]
    for signs in itertools.product((0, 1), repeat=dim):
        down = mask_of(b for b, sign in enumerate(signs) if sign)
        if not (expr[minus] & down).bit_count() & 1:
            continue
        ker = mask_of(x for x, code in zip(group, codes)
                      if not (code & down).bit_count() & 1)
        if not reduce(or_, map(row.__getitem__, bits(ker))) & ~ker:
            yield tuple(1 if (ker >> x) & 1 else -1 for x in group)


def _echelon_basis(s: SignSpace) -> list[int]:
    """The basis AX2 runs the characters over, as function indices; AX1
    makes the functions a group.  Each function in index order is
    multiplied, pivot by pivot upwards, by the basis element of each pivot
    point where it is negative, and what is left, unless it is 1, joins the
    basis, pivoted at its least negative point: Gaussian elimination on the
    sign masks.  With the functions themselves as the basis, the characters
    come in another order, and AX2's witness changes where more than one
    character of closed kernel is no point."""
    mul = _product_table(s)
    basis: dict[int, int] = {}  # pivot point -> function index
    for f in range(s.nfunctions):
        for point in sorted(basis):
            if s.functions[f][point] < 0:
                f = mul[f][basis[point]]
        if -1 in s.functions[f]:
            basis[s.functions[f].index(-1)] = f
    return list(basis.values())


# ---------------------------------------------------------------------------
# axiom audits

def _ax1_verdicts(s: SignSpace) -> list[Verdict]:
    verdicts = []
    w_closed = None
    mul = _product_table(s)
    for i, j in itertools.product(range(s.nfunctions), repeat=2):
        if mul[i][j] is None:
            w_closed = (function_label(s.functions[i]),
                        function_label(s.functions[j]))
            break
    verdicts.append(Verdict("AX1-closed-under-product", w_closed is None, w_closed))
    needed = (1, -1) if s.mode == AOS else (1, 0, -1)
    w_const = None
    for v in needed:
        if s.constant(v) is None:
            w_const = (v,)
            break
    verdicts.append(Verdict("AX1-constants", w_const is None, w_const))
    w_sep = None
    for x, y in itertools.combinations(range(s.npoints), 2):
        if all(f[x] == f[y] for f in s.functions):
            w_sep = (s.points[x], s.points[y])
            break
    verdicts.append(Verdict("AX1-separates-points", w_sep is None, w_sep))
    return verdicts


def check_aos(s: SignSpace) -> CheckReport:
    if s.mode != AOS:
        raise InputError("two-valued audit on a three-valued space")
    verdicts = _ax1_verdicts(s)
    dtab = value_table(s)

    ax1_ok = all(v.passed for v in verdicts[:2])
    if ax1_ok:
        evaluations = {tuple(f[x] for f in s.functions) for x in range(s.npoints)}
        w2 = next((("character " + function_label(chi),)
                   for chi in _admissible(_product_table(s), s.constant(1),
                                          s.constant(-1), _echelon_basis(s), dtab)
                   if chi not in evaluations), None)
        verdicts.append(Verdict("AX2-characters-are-points", w2 is None, w2))
    else:
        verdicts.append(Verdict("AX2-characters-are-points", False, None,
                                "skipped: AX1 failed"))

    # AX3: a(bc) inside (ab)c; the witness is the least element outside.
    w3 = next((tuple(function_label(s.functions[i])
                     for i in (a, b, c, _lowest_bit(right & ~left)))
               for a, b, c, left, right in _reassociation_defects(dtab)
               if right & ~left), None)
    verdicts.append(Verdict("AX3-associativity", w3 is None, w3))
    return CheckReport("abstract ordering space", tuple(verdicts))


def _ars_point_cones(s: SignSpace) -> set[int]:
    """Each point's cone: the functions in {0, +1} there (values 1 and 2 of
    its sign map)."""
    return {_Unions(pre)[0b110] for pre in _fibres(_sign_maps(s))}


def _enumerate_ars_cones(s: SignSpace) -> list[int]:
    """The sign cones of ``spectra._sign_cones`` over the function group,
    closed under products and value sets, with -1 outside, 1 inside and a
    prime support, in the search's depth-first order.  Needs AX1: closure
    under products and the constants."""
    dtab = value_table(s)
    mul = _product_table(s)
    neg = s._negations
    one = s.constant(1)
    minus = s.constant(-1)

    def is_cone(p: int) -> bool:
        return not (p >> minus) & 1 and (p >> one) & 1 \
            and _is_prime(mul, one, p & mask_of(neg[i] for i in bits(p)))

    return list(filter(is_cone, _sign_cones(neg, mul, dtab)))


def check_ars(s: SignSpace) -> CheckReport:
    if s.mode != ARS:
        raise InputError("three-valued audit on a two-valued space")
    verdicts = _ax1_verdicts(s)
    ax1_ok = all(v.passed for v in verdicts[:2])

    if ax1_ok:
        cones = _enumerate_ars_cones(s)
        point_cones = _ars_point_cones(s)
        w2 = None
        for p in cones:
            if p not in point_cones:
                w2 = tuple(function_label(s.functions[i]) for i in bits(p))
                break
        if w2 is None:
            for p in point_cones:
                if p not in cones:
                    w2 = ("missing point cone",) + tuple(
                        function_label(s.functions[i]) for i in bits(p))
                    break
        verdicts.append(Verdict("AX2-cones-are-points", w2 is None, w2))
    else:
        verdicts.append(Verdict("AX2-cones-are-points", False, None,
                                "skipped: AX1 failed"))

    # AX3: a(bc) inside (ab)c; the witness p is the least element of D^t(a, q)
    # outside (ab)c for the least q in D^t(b, c) that has one.
    w3 = next((tuple(function_label(s.functions[i]) for i in (a, b, c, p))
               for p, a, _, b, c in _reassociation_failures(transversal_table(s))), None)
    verdicts.append(Verdict("AX3-strong-associativity", w3 is None, w3))
    return CheckReport("abstract real spectrum", tuple(verdicts))


def value_set_reassociation_check(s: SignSpace) -> CheckReport:
    """Union re-association of value sets, the inductive step behind the
    associativity of the derived multifield sums.  The value table is
    symmetric, so the unions are (ab)c and a(bc) of the scan."""
    w = next((tuple(function_label(s.functions[i]) for i in (a, b, c))
              for a, b, c, _, _ in _reassociation_defects(value_table(s))),
             None)
    return CheckReport("value set reassociation",
                       (Verdict("union-reassociation", w is None, w),))


def ars_bridge_check(s: SignSpace) -> CheckReport:
    """Transversal sets refine value sets; scaling by c^2 lifts membership."""
    dtab = value_table(s)
    dt = transversal_table(s)
    mul = _product_table(s)
    n = s.nfunctions
    w_sub = None
    for a, b in itertools.product(range(n), repeat=2):
        if dt[a][b] & ~dtab[a][b]:
            w_sub = (function_label(s.functions[a]),
                     function_label(s.functions[b]))
            break
    # A product that leaves the function set before the first failure
    # skips the lift, as AX2 is skipped when AX1 fails.
    w_lift = note = None
    for a, b in itertools.product(range(n), repeat=2):
        for c in bits(dtab[a][b]):
            c2 = mul[c][c]
            ac2, bc2 = (None, None) if c2 is None else (mul[a][c2], mul[b][c2])
            if ac2 is None or bc2 is None:
                note = "skipped: AX1 failed"
                break
            if not (dt[ac2][bc2] >> c) & 1:
                w_lift = (function_label(s.functions[c]),
                          function_label(s.functions[a]),
                          function_label(s.functions[b]))
                break
        if w_lift or note:
            break
    return CheckReport(
        subject="value set bridges",
        verdicts=(
            Verdict("transversal-refines", w_sub is None, w_sub),
            Verdict("square-scaling-lifts", w_lift is None and note is None,
                    w_lift, note or ""),
        ),
    )


# ---------------------------------------------------------------------------
# spaces to multifields / multirings

def aos_to_mfred(s: SignSpace) -> FiniteMultiring:
    """Adjoin a zero to the function group; sums are value sets except in the
    forced zero and opposite cases."""
    if s.mode != AOS:
        raise InputError("multifield construction needs a two-valued space")
    neg_index = s._negations
    if None in neg_index:
        raise InputError("function set is not closed under negation")
    prod = _product_table(s)
    if any(k is None for row in prod for k in row):
        raise InputError("function set is not closed under products")
    one = s.constant(1)
    if one is None:
        raise InputError("function set lacks the constant 1")
    return _adjoin_zero(tuple(map(function_label, s.functions)) + ("0",),
                        prod, neg_index, one, value_table(s))


@_kept
def mfred_to_aos(f: FiniteMultiring) -> tuple[SignSpace, CheckReport]:
    """Points are the characters of the nonzero part whose kernel swallows
    sums; functions are the element evaluations.  The bijection audits
    compare the points with the orderings and the functions with the
    nonzero elements.  Kept on ``f``: ``diagram`` reads it after the
    round-trip."""
    if not is_real_reduced_mf(f).overall:
        raise InputError("space construction requires a real reduced multifield")
    nz = [x for x in range(f.size) if x != f.zero]
    pos = {x: i for i, x in enumerate(nz)}
    chars = _admissible_characters(f)
    points = tuple(f"P{i}" for i in range(len(chars)))
    functions = sorted(tuple(chi[pos[x]] for chi in chars) for x in nz)
    space = SignSpace(AOS, points, functions)

    orderings = enumerate_orderings(f)
    signs_from_orderings = sorted(
        tuple(1 if (o.positive >> x) & 1 else -1 for x in nz)
        for o in orderings)
    w_points = None if signs_from_orderings == sorted(chars) \
        else (len(chars), len(orderings))
    w_funcs = None if len(set(functions)) == len(nz) else (len(nz),)
    report = CheckReport(
        subject="character/ordering bijections",
        verdicts=(
            Verdict("points-match-orderings", w_points is None, w_points),
            Verdict("functions-match-elements", w_funcs is None, w_funcs),
        ),
    )
    return space, report


def _admissible_characters(f: FiniteMultiring) -> list[tuple[int, ...]]:
    """The characters of ``_admissible`` on the nonzero part, the sums as
    cells, sorted; these are the points of the derived space.  The row of 1
    stands for all since f is a real reduced multifield."""
    nz = [x for x in range(f.size) if x != f.zero]
    return sorted(_admissible(f.mul, f.one, f.neg[f.one], nz, f.add))


def ars_to_mrred(s: SignSpace) -> FiniteMultiring:
    """Sums are the transversal value sets."""
    if s.mode != ARS:
        raise InputError("multiring construction needs a three-valued space")
    n = s.nfunctions
    dt = transversal_table(s)
    for i, j in itertools.product(range(n), repeat=2):
        if dt[i][j] == 0:
            raise InputError(
                f"empty transversal set at ({function_label(s.functions[i])},"
                f"{function_label(s.functions[j])}): not a space of signs")
    names = tuple(function_label(f) for f in s.functions)
    mul = _product_table(s)
    if any(k is None for row in mul for k in row):
        raise InputError("function set is not closed under products")
    neg = s._negations
    if None in neg:
        raise InputError("function set is not closed under negation")
    zero = s.constant(0)
    one = s.constant(1)
    if zero is None or one is None:
        raise InputError("function set lacks a constant")
    return FiniteMultiring(Carrier(names), dt, mul,
                           neg, zero, one)  # type: ignore[arg-type]


def mrred_to_ars(a: FiniteMultiring) -> tuple[SignSpace, CheckReport]:
    """Points are the orderings, functions the element evaluations; the
    transversal sets of the space must reproduce the addition table."""
    if not is_real_reduced_mr(a).overall:
        raise InputError("space construction requires a real reduced multiring")
    orderings = enumerate_orderings(a)
    if not orderings:
        raise InputError("empty real spectrum")
    sigmas = [o.sign_map().mapping for o in orderings]
    tovals = {0: -1, 1: 0, 2: 1}
    vectors = [tuple(tovals[s[x]] for s in sigmas) for x in range(a.size)]
    w_inj = None if len(set(vectors)) == a.size else (a.size, len(set(vectors)))
    points = tuple(f"P{i}" for i in range(len(orderings)))
    space = SignSpace(ARS, points, sorted(set(vectors)))

    # Element x evaluates to function index[x]: the transversal table read
    # through the index, rows and columns, against the addition's cells
    # imaged through it, a row at a time; only a differing row is walked.
    index = list(map(space._positions.__getitem__, vectors))
    pick = _picker(index)
    image = _Unions(list(map(_SINGLETONS.__getitem__, index)))
    w_dt = next(((a.names[x], a.names[_first_difference(got, want)])
                 for x, (got, want) in enumerate(zip(
                     map(pick, pick(transversal_table(space))),
                     (tuple(map(image.__getitem__, row)) for row in a.add)))
                 if got != want), None)
    report = CheckReport(
        subject="evaluation space",
        verdicts=(
            Verdict("evaluations-injective", w_inj is None, w_inj),
            Verdict("transversal-matches-addition", w_dt is None, w_dt),
        ),
    )
    return space, report


# ---------------------------------------------------------------------------
# space morphisms and functoriality

@dataclass(frozen=True)
class SpaceMap:
    """Point map between sign spaces, source points into target points."""

    source: SignSpace
    target: SignSpace
    point_map: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.point_map) != self.source.npoints:
            raise InputError("point map not total")
        if any(not 0 <= v < self.target.npoints for v in self.point_map):
            raise InputError("point map image outside target")

    def pullback(self, h: int) -> tuple[int, ...]:
        """h o alpha for a target function index h."""
        f = self.target.functions[h]
        return tuple(f[self.point_map[x]] for x in range(self.source.npoints))


def space_morphism_check(m: SpaceMap) -> CheckReport:
    """Pullbacks of target functions must lie in the source function set;
    surjectivity on points is audited, not assumed."""
    w_pull = None
    for h in range(m.target.nfunctions):
        if m.source.index(m.pullback(h)) is None:
            w_pull = (function_label(m.target.functions[h]),)
            break
    surjective = len(set(m.point_map)) == m.target.npoints
    return CheckReport(
        subject="sign space morphism",
        verdicts=(
            Verdict("pullbacks-land-in-source", w_pull is None, w_pull),
            Verdict("surjective-on-points", surjective, None,
                    "audited, not required", informational=True),
        ),
    )


def _point_maps(s: SignSpace, t: SignSpace,
                bijective: bool = False) -> Iterator[tuple[int, ...]]:
    """The point maps s -> t whose pullbacks all lie in s, injective ones
    only if ``bijective``, in lexicographic order (see the module docstring)."""
    # cols[x][y][h]: the functions of s equal to h(y) at x
    cols = [[tuple(pre[1 << (h[y] + 1)] for h in t.functions)
             for y in range(t.npoints)]
            for pre in map(_Unions, _fibres(_sign_maps(s)))]
    alpha: list[int] = []

    def extend(agree: list[int]) -> Iterator[tuple[int, ...]]:
        if len(alpha) == s.npoints:
            yield tuple(alpha)
            return
        for y, col in enumerate(cols[len(alpha)]):
            if bijective and y in alpha:
                continue
            narrowed = [a & m for a, m in zip(agree, col)]
            if all(narrowed):
                alpha.append(y)
                yield from extend(narrowed)
                alpha.pop()

    yield from extend([full_mask(s.nfunctions)] * t.nfunctions)


def enumerate_space_morphisms(s: SignSpace, t: SignSpace) -> list[SpaceMap]:
    """All point maps whose pullbacks land in the source function set."""
    return [SpaceMap(s, t, p) for p in _point_maps(s, t)]


def _induced_point_map(sigma: StructureMap, space, cones,
                       kind: str) -> SpaceMap:
    """Contravariant induced point map: each cone of the target, pulled back
    along sigma, must be a cone of the source.  ``space`` builds a
    structure's sign space, ``cones`` lists its cones in point order."""
    a, b = sigma.source, sigma.target
    space_a, _ = space(a)
    space_b, _ = space(b)
    a_index = {p: i for i, p in enumerate(cones(a))}
    pullback = _Unions(_fibres([sigma.mapping])[0])
    point_map = []
    for pre in map(pullback.__getitem__, cones(b)):
        if pre not in a_index:
            raise InputError("preimage of an ordering is not an ordering; "
                             f"the map is not a morphism of real reduced {kind}")
        point_map.append(a_index[pre])
    return SpaceMap(space_b, space_a, tuple(point_map))


def _character_cones(f: FiniteMultiring) -> list[int]:
    """Positive cone of each admissible character's ordering, zero included."""
    nz = [x for x in range(f.size) if x != f.zero]
    return [(1 << f.zero) | mask_of(x for x, v in zip(nz, chi) if v == 1)
            for chi in _admissible_characters(f)]


def mf_map_to_aos_map(sigma: StructureMap) -> SpaceMap:
    """Induced point map on the spaces of orderings of multifields."""
    return _induced_point_map(sigma, mfred_to_aos, _character_cones,
                              "multifields")


def mr_map_to_ars_map(sigma: StructureMap) -> SpaceMap:
    """Induced point map on the sign spectra of multirings."""
    return _induced_point_map(
        sigma, mrred_to_ars,
        lambda a: [o.positive for o in enumerate_orderings(a)], "multirings")


def induced_function_map(m: SpaceMap) -> dict[int, int]:
    """Target function index to source function index, by pullback."""
    out = {}
    for h in range(m.target.nfunctions):
        idx = m.source.index(m.pullback(h))
        if idx is None:
            raise InputError("not a space morphism")
        out[h] = idx
    return out


def space_map_to_mf_map(m: SpaceMap, mf_target_space: FiniteMultiring,
                        mf_source_space: FiniteMultiring) -> StructureMap:
    """Contravariant induced morphism between the derived multifields: takes
    the multifield of the target space into the multifield of the source
    space, functions by pullback and zero to zero."""
    pull = induced_function_map(m)
    mapping = [0] * (m.target.nfunctions + 1)
    for h, g in pull.items():
        mapping[h] = g
    mapping[m.target.nfunctions] = m.source.nfunctions
    return StructureMap(mf_target_space, mf_source_space, tuple(mapping))


def find_space_isomorphism(s: SignSpace, t: SignSpace) -> Optional[tuple[int, ...]]:
    """Point bijection whose pullback matches the function sets exactly: with
    as many points and functions on both sides, h -> h o alpha is injective,
    so the pullbacks fill the source function set."""
    if s.mode != t.mode or s.npoints != t.npoints \
            or s.nfunctions != t.nfunctions:
        return None
    return next(_point_maps(s, t, bijective=True), None)


# ---------------------------------------------------------------------------
# round-trips

def aos_mf_roundtrip(s: SignSpace) -> CheckReport:
    """Space -> multifield -> space closes up to exhibited isomorphism."""
    f = aos_to_mfred(s)
    rr = is_real_reduced_mf(f)
    s2, bij = mfred_to_aos(f)
    iso = find_space_isomorphism(s, s2)
    return CheckReport(
        subject="ordering space round-trip",
        verdicts=(
            Verdict("image-real-reduced", rr.overall, None),
            Verdict("bijections", bij.overall, None),
            Verdict("space-isomorphic", iso is not None, iso,
                    "exhibited point bijection" if iso else ""),
        ),
    )


def mf_aos_roundtrip(f: FiniteMultiring) -> CheckReport:
    s, bij = mfred_to_aos(f)
    aos = check_aos(s)
    f2 = aos_to_mfred(s)
    iso = find_isomorphism(f, f2)
    return CheckReport(
        subject="real reduced multifield round-trip",
        verdicts=(
            Verdict("space-passes-audit", aos.overall,
                    None if aos.overall else tuple(v.axiom for v in aos.failures())),
            Verdict("bijections", bij.overall, None),
            Verdict("multifield-isomorphic", iso is not None,
                    None if iso else (f.names,)),
        ),
    )


def ars_mr_roundtrip(s: SignSpace) -> CheckReport:
    a = ars_to_mrred(s)
    rr = is_real_reduced_mr(a)
    s2, audit = mrred_to_ars(a)
    iso = find_space_isomorphism(s, s2)
    return CheckReport(
        subject="sign spectrum round-trip",
        verdicts=(
            Verdict("image-real-reduced", rr.overall, None),
            Verdict("evaluation-audit", audit.overall, None),
            Verdict("space-isomorphic", iso is not None, iso,
                    "exhibited point bijection" if iso else ""),
        ),
    )


def mr_ars_roundtrip(a: FiniteMultiring) -> CheckReport:
    s, audit = mrred_to_ars(a)
    ars = check_ars(s)
    a2 = ars_to_mrred(s)
    iso = find_isomorphism(a, a2)
    return CheckReport(
        subject="real reduced multiring round-trip",
        verdicts=(
            Verdict("space-passes-audit", ars.overall,
                    None if ars.overall else tuple(v.axiom for v in ars.failures())),
            Verdict("evaluation-audit", audit.overall, None),
            Verdict("multiring-isomorphic", iso is not None,
                    None if iso else (a.names,)),
        ),
    )
