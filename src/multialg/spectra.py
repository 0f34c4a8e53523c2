"""Ideal and ordering spectra of finite multirings.

The ideal list is kept on the structure object (``_ideals``, through
core's ``_kept``) and shared by its four consumers: ``enumerate_primes``,
``enumerate_maximals``, ``check_quotient_characterizations`` and
``spec_topology``.  The ideal closure it joins with and the sums of
squares are core's ``_closure``.  One walk, ``_closed_sets``, gives the
ideals and the preorderings: the closed sets of the ideal closure and of
the closure of the squares under sums and products.

Prime/maximal enumeration, the patch-topology relations of the spectrum
embedding into {0,1}^A, orderings and their bijection with morphisms to the
sign multifield, preorderings, real and real-reduced characterizations, and
the componentwise evaluation embedding into a power of the sign multifield.

Orderings come from ``_sign_cones``, a depth-first search over the pairs
{x, -x} that ordering_spaces shares for the cones of abstract real spectra.
It tests each leaf for closure under products and sums in full and yields
each mask once, and its callers test only the support: the orderings through ``Ideal`` and
``is_prime_mask``, the cones of a sign space through ``_is_prime``, the one
prime test, on the space's product table.  Like the ideal list, the
orderings are kept on the structure (``_orderings``), however many of
the checks and functors that read them run.  The evaluation embedding
reads core's pointwise table of the sign sums (``_pointwise_cells``), with
one map per ordering, its sign map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .core import (
    CARRIER_CAP,
    CheckReport,
    FiniteMultiring,
    InputError,
    StructureMap,
    Verdict,
    _audit,
    _closure,
    _cube_defect,
    _kept,
    _lowest_bit,
    _pointwise_cells,
    _table_maps,
    bits,
    check_morphism,
    classify,
    embedding_kind,
    enumerate_multiring_morphisms,
    full_mask,
    mask_of,
    q2,
)
from .constructions import (
    Ideal,
    MultiplicativeSet,
    _ideal_closure,
    marshall_quotient,
    product,
    q_red,
    quotient_by_ideal,
)


# ---------------------------------------------------------------------------
# ideal enumeration

def _closed_sets(close: Callable[..., int], n: int) -> set[int]:
    """The masks on n elements that ``close`` fixes, by joining each one
    reached, C, with each distinct principal P(x), the closure of {x}, that
    it does not hold.  Closing C and x is closing C and P(x), as ``close``
    is a closure operator, and a P(x) that holds C is the join."""
    bottom = close(0)
    principals = dict.fromkeys(close(1 << x, bottom) for x in range(n))
    seen = {bottom}
    queue = [bottom]
    while queue:
        current = queue.pop()
        for p in principals:
            if not p & ~current:
                continue
            grown = close(p, current) if current & ~p else p
            if grown not in seen:
                seen.add(grown)
                queue.append(grown)
    return seen


@_kept
def _ideals(a: FiniteMultiring) -> tuple[Ideal, ...]:
    """All ideals in (popcount, mask) order: the ideal closure's closed sets."""
    masks = sorted(_closed_sets(_ideal_closure(a), a.size),
                   key=lambda m: (m.bit_count(), m))
    return tuple(Ideal(a, m) for m in masks)


def enumerate_ideals(a: FiniteMultiring) -> list[Ideal]:
    """All ideals, in (popcount, mask) order."""
    return list(_ideals(a))


def _is_prime(mul: Sequence[Sequence[int]], one: int, members: int) -> bool:
    """True when ``members`` misses ``one`` and no product xy of two
    elements outside it falls inside it."""
    outside = [x for x in range(len(mul)) if not (members >> x) & 1]
    return not (members >> one) & 1 and not any(
        (members >> mul[x][y]) & 1 for x in outside for y in outside)


def is_prime_mask(a: FiniteMultiring, members: int) -> bool:
    return _is_prime(a.mul, a.one, members)


def enumerate_primes(a: FiniteMultiring) -> list[Ideal]:
    return [i for i in enumerate_ideals(a) if is_prime_mask(a, i.members)]


def _maximal_ideals(ideals: list[Ideal]) -> list[Ideal]:
    proper = [i for i in ideals if i.is_proper()]
    out = []
    for i in proper:
        if not any(j.members != i.members and j.is_proper()
                   and (i.members & ~j.members) == 0 for j in proper):
            out.append(i)
    return out


def enumerate_maximals(a: FiniteMultiring) -> list[Ideal]:
    return _maximal_ideals(enumerate_ideals(a))


def check_quotient_characterizations(a: FiniteMultiring) -> CheckReport:
    """prime iff quotient is a multidomain, maximal iff multifield, with the
    quotient additionally required to be nondegenerate (1 != 0)."""
    ideals = enumerate_ideals(a)
    primes = {i.members for i in ideals if is_prime_mask(a, i.members)}
    maximals = {i.members for i in _maximal_ideals(ideals)}
    w_prime = w_max = w_chain = None
    for ideal in ideals:
        if ideal.members == 1 << a.zero and _audit(a).overall:
            # x + 0 = {x}: a/{0} is a relabelled copy of a, and fails as a does
            kind, nondeg = classify(a), a.one != a.zero
        else:
            q, _ = quotient_by_ideal(a, ideal)
            kind, nondeg = classify(q), q.one != q.zero
        if w_prime is None and ((ideal.members in primes)
                                != (kind.multidomain and nondeg)):
            w_prime = ideal.labels
        if w_max is None and ((ideal.members in maximals)
                              != (kind.multifield and nondeg)):
            w_max = ideal.labels
        if w_chain is None and ideal.members in maximals \
                and ideal.members not in primes:
            w_chain = ideal.labels
    return CheckReport(
        subject="quotient characterizations",
        verdicts=(
            Verdict("prime-iff-multidomain", w_prime is None, w_prime),
            Verdict("maximal-iff-multifield", w_max is None, w_max),
            Verdict("maximal-implies-prime", w_chain is None, w_chain),
        ),
    )


# ---------------------------------------------------------------------------
# patch topology of Spec

@dataclass(frozen=True)
class SpectrumReport:
    parent: FiniteMultiring
    primes: tuple[Ideal, ...]
    basic_opens: dict[str, tuple[int, ...]]
    report: CheckReport


def _enumerate_relation_vectors(a: FiniteMultiring) -> list[tuple[int, ...]]:
    """The vectors in {0,1}^A that satisfy the relations of the closed image,
    in lexicographic order: x_0=0, x_1=1, x_ab = x_a and x_b, and x_a=x_b=0
    forces x_c=0 on every c in a+b.  A vector satisfies them iff its zero set
    is a prime ideal."""
    return list(_table_maps(a.size, 2, ((a.zero, 0), (a.one, 1)),
                            ops=((a.mul, ((0, 0), (0, 1))),),
                            cells=((a.add, ((1, 3), (3, 3))),)))


def spec_topology(a: FiniteMultiring) -> SpectrumReport:
    """Basic opens D(a) on the prime spectrum plus the finite-instance audit
    of the {0,1}^A embedding: every prime vector satisfies the relations and
    every relation vector comes from a prime; T0 separation."""
    primes = enumerate_primes(a)
    opens = {name: tuple(i for i, p in enumerate(primes)
                         if not (p.members >> idx) & 1)
             for idx, name in enumerate(a.names)}

    def vector(p: Ideal) -> tuple[int, ...]:
        return tuple(0 if (p.members >> i) & 1 else 1 for i in range(a.size))

    prime_vectors = [vector(p) for p in primes]
    relation_vectors = _enumerate_relation_vectors(a)
    satisfying = set(relation_vectors)
    w_fwd = next((p.labels for p, v in zip(primes, prime_vectors)
                  if v not in satisfying), None)
    w_bwd = None
    for v in relation_vectors:
        if v not in prime_vectors:
            w_bwd = v
            break
    w_t0 = None
    for (i, u), (j, v) in itertools.combinations(enumerate(prime_vectors), 2):
        if u == v:
            w_t0 = (primes[i].labels, primes[j].labels)
            break
    report = CheckReport(
        subject="spectrum topology",
        verdicts=(
            Verdict("prime-vectors-satisfy-relations", w_fwd is None, w_fwd),
            Verdict("relation-vectors-are-primes", w_bwd is None, w_bwd),
            Verdict("t0-separation", w_t0 is None, w_t0),
        ),
    )
    return SpectrumReport(a, tuple(primes), opens, report)


# ---------------------------------------------------------------------------
# orderings and morphisms to the sign multifield

@dataclass(frozen=True)
class Ordering:
    """Positive cone: sum- and product-closed, P or -P is everything, and the
    support P intersect -P is a prime ideal."""

    parent: FiniteMultiring
    positive: int

    def __post_init__(self) -> None:
        a = self.parent
        p = self.positive
        if p & ~full_mask(a.size):
            raise InputError("cone outside carrier")
        for x in bits(p):
            for y in bits(p):
                if a.add[x][y] & ~p:
                    raise InputError("cone not closed under sums")
                if not (p >> a.mul[x][y]) & 1:
                    raise InputError("cone not closed under products")
        if p | a.neg_mask(p) != full_mask(a.size):
            raise InputError("cone union its negative misses elements")
        supp = self.support
        Ideal(a, supp)
        if not is_prime_mask(a, supp):
            raise InputError("support is not a prime ideal")

    @property
    def support(self) -> int:
        return self.positive & self.parent.neg_mask(self.positive)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.parent.carrier.labels(self.positive)

    def sign_map(self) -> StructureMap:
        """The morphism to the sign multifield this cone corresponds to."""
        a = self.parent
        target = q2()
        zero_i, one_i, minus_i = (target.carrier.index(l) for l in ("0", "1", "-1"))
        supp = self.support
        mapping = tuple(zero_i if (supp >> x) & 1
                        else one_i if (self.positive >> x) & 1
                        else minus_i
                        for x in range(a.size))
        return StructureMap(a, target, mapping)


def hom_to_q2(a: FiniteMultiring) -> list[StructureMap]:
    """All multiring morphisms into the sign multifield, exhaustively."""
    return enumerate_multiring_morphisms(a, q2())


def ordering_of_sign_map(f: StructureMap) -> Ordering:
    a: FiniteMultiring = f.source  # type: ignore[assignment]
    t: FiniteMultiring = f.target  # type: ignore[assignment]
    keep = mask_of(i for i in (t.carrier.index("0"), t.carrier.index("1")))
    positive = mask_of(x for x in range(a.size) if (keep >> f.mapping[x]) & 1)
    return Ordering(a, positive)


def _sign_cones(neg: Sequence[int], mul: Sequence[Sequence[int]],
                cell: Sequence[Sequence[int]]) -> Iterator[int]:
    """The masks P closed under ``mul`` and the cells of ``cell`` that hold
    x or -x for each x, and x whenever x = -x, in depth-first order.

    P holds every fixed point of ``neg``; the pairs {x, -x} are walked in
    ascending order, and each adds x, -x or both.  A branch is cut when a
    decided product u*v or a cell of u+v (in either order), for u, v in P,
    falls outside P.  That sees a violation only once both sides of a cell
    are decided, so each leaf is tested in full once; the callers test the
    support.  Each mask is yielded once (overlapping pairs, where ``neg`` is
    no involution, can reach it twice)."""
    n = len(neg)
    found: set[int] = set()
    singles = mask_of(x for x in range(n) if neg[x] == x)
    pairs = sorted({(min(x, neg[x]), max(x, neg[x]))
                    for x in range(n) if neg[x] != x})

    def compatible(p: int, decided: int, new: int) -> bool:
        for u in bits(new):
            for v in bits(p):
                w = mul[u][v]
                if (decided >> w) & 1 and not (p >> w) & 1:
                    return False
                if (cell[u][v] | cell[v][u]) & decided & ~p:
                    return False
        return True

    def dfs(i: int, p: int, decided: int) -> Iterator[int]:
        if i == len(pairs):
            members = tuple(bits(p))
            if p not in found and not any(cell[u][v] & ~p or not (p >> mul[u][v]) & 1
                                          for u in members for v in members):
                found.add(p)
                yield p
            return
        x, y = pairs[i]
        d = decided | (1 << x) | (1 << y)
        for extra in (1 << x, 1 << y, (1 << x) | (1 << y)):
            q = p | extra
            if compatible(q, d, extra):
                yield from dfs(i + 1, q, d)

    if compatible(singles, singles, singles):
        yield from dfs(0, singles, singles)


@_kept
def _orderings(a: FiniteMultiring) -> tuple[Ordering, ...]:
    """The sign cones of ``_sign_cones`` whose support is a prime ideal,
    in ascending mask order."""

    def prime_support(p: int) -> bool:
        supp = p & a.neg_mask(p)
        try:
            Ideal(a, supp)
        except InputError:
            return False
        return is_prime_mask(a, supp)

    return tuple(Ordering(a, p) for p in sorted(filter(prime_support,
                                                       _sign_cones(a.neg, a.mul, a.add))))


def enumerate_orderings(a: FiniteMultiring) -> list[Ordering]:
    """All orderings, in ascending mask order."""
    return list(_orderings(a))


def ordering_hom_bijection_check(a: FiniteMultiring) -> CheckReport:
    """Orderings and morphisms to the sign multifield correspond bijectively
    via P = preimage of {0,1}; both directions are exercised."""
    orderings = enumerate_orderings(a)
    homs = hom_to_q2(a)
    hom_maps = sorted(f.mapping for f in homs)
    from_orderings = sorted(o.sign_map().mapping for o in orderings)
    w_count = None if len(orderings) == len(homs) else (len(orderings), len(homs))
    w_match = None if hom_maps == from_orderings else (hom_maps, from_orderings)
    w_inv = None
    for o in orderings:
        if ordering_of_sign_map(o.sign_map()).positive != o.positive:
            w_inv = o.labels
            break
    if w_inv is None:
        for f in homs:
            if ordering_of_sign_map(f).sign_map().mapping != f.mapping:
                w_inv = f.mapping
                break
    return CheckReport(
        subject="ordering/hom bijection",
        verdicts=(
            Verdict("counts-equal", w_count is None, w_count),
            Verdict("same-sign-maps", w_match is None, w_match),
            Verdict("mutually-inverse", w_inv is None, w_inv),
        ),
    )


# ---------------------------------------------------------------------------
# preorderings

@dataclass(frozen=True)
class Preordering:
    """Sum- and product-closed cone containing all squares."""

    parent: FiniteMultiring
    cone: int

    def __post_init__(self) -> None:
        a = self.parent
        t = self.cone
        if t & ~full_mask(a.size):
            raise InputError("cone outside carrier")
        for x in range(a.size):
            if not (t >> a.mul[x][x]) & 1:
                raise InputError("cone misses a square")
        for x in bits(t):
            for y in bits(t):
                if a.add[x][y] & ~t:
                    raise InputError("cone not closed under sums")
                if not (t >> a.mul[x][y]) & 1:
                    raise InputError("cone not closed under products")

    @property
    def proper(self) -> bool:
        a = self.parent
        return not (self.cone >> a.neg[a.one]) & 1

    @property
    def labels(self) -> tuple[str, ...]:
        return self.parent.carrier.labels(self.cone)


def enumerate_preorderings(a: FiniteMultiring) -> list[Preordering]:
    """All preorderings: the closed sets of the squares' closure under sums
    and products, by size, then by their non-squares in lexicographic order."""
    squares = mask_of(a.mul[x][x] for x in range(a.size))
    products = [tuple(map((1).__lshift__, row)) for row in a.mul]
    cones = _closed_sets(_closure((a.add, products), base=squares), a.size)
    return [Preordering(a, t) for t in sorted(
        cones, key=lambda t: (t.bit_count(), tuple(bits(t & ~squares))))]


def preordering_intersection_check(f: FiniteMultiring,
                                   t: Preordering) -> CheckReport:
    """A proper preordering equals the intersection of the orderings
    containing it."""
    if t.parent is not f and t.parent != f:
        raise InputError("preordering does not belong to this multiring")
    if not t.proper:
        return CheckReport(
            subject="preordering intersection",
            verdicts=(Verdict("proper", True, None,
                              "improper cone: check skipped",
                              informational=True),),
        )
    containing = [o for o in enumerate_orderings(f)
                  if not (t.cone & ~o.positive)]
    if not containing:
        return CheckReport(
            subject="preordering intersection",
            verdicts=(Verdict("extends-to-ordering", False, t.labels,
                              "no ordering contains this proper cone"),),
        )
    meet = full_mask(f.size)
    for o in containing:
        meet &= o.positive
    ok = meet == t.cone
    witness = None if ok else (t.labels, f.carrier.labels(meet))
    return CheckReport(
        subject="preordering intersection",
        verdicts=(Verdict("equals-intersection", ok, witness),),
    )


# ---------------------------------------------------------------------------
# real and real reduced

def sums_of_squares_set(a: FiniteMultiring) -> int:
    """All elements reachable from squares by set-valued sums (0 included):
    core's closure of the squares under the addition cells."""
    return _closure((a.add,))(mask_of(a.mul[x][x] for x in range(a.size)))


def is_real(a: FiniteMultiring) -> bool:
    return not (sums_of_squares_set(a) >> a.neg[a.one]) & 1


@_kept
def is_real_reduced_mf(f: FiniteMultiring) -> CheckReport:
    """Multifield form: a^3 = a, and membership in 1+1 pins the element to 1.
    Kept on ``f``, like the multiring form: ``check`` and ``diagram`` read
    each more than once."""
    if not classify(f).multifield:
        raise InputError("real reduced multifield check requires a multifield")
    names = f.names
    w_cube = _cube_defect(f.mul, names)
    w_sum = None
    for c in bits(f.add[f.one][f.one]):
        if c != f.one:
            w_sum = (names[c],)
            break
    return CheckReport(
        subject="real reduced multifield",
        verdicts=(
            Verdict("cube-identity", w_cube is None, w_cube),
            Verdict("one-plus-one-rigid", w_sum is None, w_sum),
        ),
    )


@_kept
def is_real_reduced_mr(a: FiniteMultiring) -> CheckReport:
    """Multiring form: 1 != 0, a^3 = a, a + a b^2 = {a}, and a^2 + b^2 is a
    singleton.  Kept on ``a``."""
    names = a.names
    w_nz = None if a.one != a.zero else (names[a.one],)
    w_cube = _cube_defect(a.mul, names)
    w_rigid = None
    for x, y in itertools.product(range(a.size), repeat=2):
        cell = a.add[x][a.mul[x][a.mul[y][y]]]
        if cell != 1 << x:
            c = next(iter(bits(cell ^ (cell & (1 << x)))))
            w_rigid = (names[x], names[y], names[c])
            break
    w_sq = None
    for x, y in itertools.product(range(a.size), repeat=2):
        cell = a.add[a.mul[x][x]][a.mul[y][y]]
        if cell.bit_count() != 1:
            w_sq = (names[x], names[y], a.carrier.labels(cell))
            break
    return CheckReport(
        subject="real reduced multiring",
        verdicts=(
            Verdict("one-nonzero", w_nz is None, w_nz),
            Verdict("cube-identity", w_cube is None, w_cube),
            Verdict("rigid-sums", w_rigid is None, w_rigid),
            Verdict("squares-sum-singleton", w_sq is None, w_sq),
        ),
    )


def reduced_characterizations_check(f: FiniteMultiring) -> CheckReport:
    """Three equivalent ways of saying a multifield is real reduced: the
    projection onto its reduced quotient is an isomorphism, the sums of
    squares are exactly {0,1}, and the elementwise conditions; evaluated
    independently and checked for agreement."""
    if not classify(f).multifield:
        raise InputError("reduced characterization check requires a multifield")
    proj_iso = False
    try:
        q, proj = q_red(f)
        if proj.is_injective() and proj.is_surjective():
            inverse = [0] * q.size
            for i, v in enumerate(proj.mapping):
                inverse[v] = i
            proj_iso = check_morphism(
                StructureMap(q, f, tuple(inverse))).overall
    except InputError:
        proj_iso = False
    sos = sums_of_squares_set(f)
    sos_small = sos == (1 << f.zero) | (1 << f.one)
    elementwise = is_real_reduced_mf(f).overall
    agree = proj_iso == sos_small == elementwise
    real = is_real(f)
    return CheckReport(
        subject="reduced characterizations",
        verdicts=(
            Verdict("projection-is-isomorphism", proj_iso, None,
                    "evaluated", informational=True),
            Verdict("sums-of-squares-are-0-1", sos_small,
                    None if sos_small else f.carrier.labels(sos),
                    "evaluated", informational=True),
            Verdict("elementwise-conditions", elementwise, None,
                    "evaluated", informational=True),
            # the equivalence is asserted for real multifields only
            Verdict("three-way-agreement", agree if real else True,
                    None if agree else (proj_iso, sos_small, elementwise),
                    "asserted" if real else
                    f"not real; observed agreement: {agree}"),
            Verdict("is-real", real, None, "informational",
                    informational=True),
        ),
    )


# ---------------------------------------------------------------------------
# local-global evaluation embedding

def _evaluation_defects(a: FiniteMultiring, sigmas: Sequence[Sequence[int]]
                        ) -> tuple[Optional[tuple[int, int, int]],
                                   Optional[tuple[int, int, int]]]:
    """The least (x, y, c) with c in x + y but outside E(x, y), where the
    evaluation at the sign maps ``sigmas`` is not a morphism, and the least
    with c in E(x, y) but outside x + y, where it is not strong.  E(x, y) is
    the set of c whose sign lies in sigma(x) + sigma(y) at every sigma,
    core's pointwise table of the sign sums (``_pointwise_cells``)."""
    (within,) = _pointwise_cells(a.size, sigmas, q2().add)
    w_mor = w_strong = None
    for x, y in itertools.product(range(a.size), repeat=2):
        agree = within[x][y]
        cell = a.add[x][y]
        if w_mor is None and cell & ~agree:
            w_mor = x, y, _lowest_bit(cell & ~agree)
        if w_strong is None and agree & ~cell:
            w_strong = x, y, _lowest_bit(agree & ~cell)
        if w_mor and w_strong:
            break
    return w_mor, w_strong


def sper_embedding_check(a: FiniteMultiring) -> CheckReport:
    """Evaluation a -> (sign of a at each ordering): injective, a morphism,
    and strong (componentwise sums reflect back), checked componentwise.
    When the full power structure fits under the carrier cap the embedding is
    cross-checked against it."""
    if not is_real_reduced_mr(a).overall:
        raise InputError("evaluation embedding requires a real reduced input")
    orderings = enumerate_orderings(a)
    sigmas = [o.sign_map().mapping for o in orderings]
    names = a.names
    if not sigmas:
        return CheckReport(
            subject="evaluation embedding",
            verdicts=(Verdict("sper-nonempty", False, None,
                              "no orderings: evaluation undefined"),),
        )
    vectors = [tuple(s[x] for s in sigmas) for x in range(a.size)]

    w_inj = None
    seen: dict[tuple[int, ...], int] = {}
    for x, v in enumerate(vectors):
        if v in seen:
            w_inj = (names[seen[v]], names[x])
            break
        seen[v] = x

    w_mor, w_strong = (w and tuple(names[i] for i in w)
                       for w in _evaluation_defects(a, sigmas))

    verdicts = [
        Verdict("sper-nonempty", True, None),
        Verdict("injective", w_inj is None, w_inj),
        Verdict("morphism", w_mor is None, w_mor),
        Verdict("strong", w_strong is None, w_strong),
    ]
    if 3 ** len(sigmas) <= CARRIER_CAP:
        target = q2()
        power = product([target] * len(sigmas))
        mapping = tuple(
            power.carrier.index("(" + ",".join(target.names[v] for v in vec) + ")")
            for vec in vectors)
        f = StructureMap(a, power, mapping)
        try:
            kind = embedding_kind(f)
        except InputError:
            kind = "not-a-morphism"
        verdicts.append(Verdict(
            "materialized-embedding",
            kind in ("strongly_embedded", "submultiring"),
            None if kind in ("strongly_embedded", "submultiring") else (kind,),
            f"embedding kind: {kind}", informational=False))
    return CheckReport("evaluation embedding", tuple(verdicts))


def q_t(a: FiniteMultiring, t: Preordering) -> tuple[FiniteMultiring, StructureMap]:
    """Marshall quotient at the nonzero part of a proper preordering.

    q_T needs the nonzero part of T to be multiplicatively closed.  On a
    ring with zero divisors it need not be, and ``MultiplicativeSet`` then
    refuses it with ``InputError`` "not multiplicatively closed at (x,y)",
    as for every preordering of q2^3 and the one of Z/64."""
    if t.parent is not a and t.parent != a:
        raise InputError("preordering does not belong to this multiring")
    s_mask = t.cone & ~(1 << a.zero)
    s = MultiplicativeSet(a, s_mask)
    return marshall_quotient(a, s)
