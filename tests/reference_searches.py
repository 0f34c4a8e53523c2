"""Searches and comparisons as they were before the shared kernels.

The five backtracking searches ``enumerate_multiring_morphisms``,
``find_isomorphism``, ``enumerate_sg_morphisms``, ``enumerate_rs_morphisms``
and ``_enumerate_relation_vectors`` are kept verbatim, each with its own
assign/consistent/extend loop, as the reference that
``tests/test_search_kernel.py`` pins the library's searches to: the same
result lists in the same order, and the same first isomorphism.
``_satisfies_spec_relations``, the relations of the spectrum embedding
stated as a predicate on one vector, is kept verbatim too: the last of the
five tests its leaves with it, the brute force of the same test file
filters every vector with it, and ``reference_audits.spec_topology`` reads
it.  Their
leaves are checked by the old morphism audits of ``reference_audits``, not
by the library's.

``_table_maps`` is the library's search kernel as it was when each value
tried ran every narrowing before its one test for an empty domain, and the
bijective reverse pass walked every later element outside each cell.  It is
kept verbatim as the reference that ``tests/test_search_kernel.py`` pins the
kernel to: the same maps in the same order from the same search tree.

The per-kind equalities ``sg_equal``, ``multiring_equal`` and ``rs_equal``,
the canonical keys ``multiring_canonical_key`` and
``multigroup_canonical_key`` with ``_inv_perm_order``, and the two sign-cone
searches ``enumerate_orderings`` and ``_enumerate_ars_cones`` are kept
verbatim too, as the reference that ``tests/test_relabel_and_cones.py`` pins
``core.same_tables``, the library's canonical keys and ``spectra._sign_cones``
to.

``_addition_tables`` is the addition-table generator as it was before it
pruned on full reversibility.  It prunes less, so it still yields the
failing candidate tables that the audit and search tests run on, and
``tests/test_enumeration_pruning.py`` pins the pruned generator, after the
full audit, to it.  ``_monoid_tables`` is the multiplication-table
generator as it was when its leaves ran the associativity triple loop, and
``_involutions_fixing`` the involution generator as it was when it built
each involution by a recursive depth-first pairing; the generators here
read both, and ``tests/test_enumeration_pruning.py`` pins the library's
``itertools`` filters to them, order included.  ``candidate_multirings`` builds those candidates, and
``every_map`` lists every map between two structures for brute-force pins.

``_pruned_addition_tables`` is the library's addition-table generator as
it was when it pruned on full reversibility only, before it took the
relabelings that commute with the involution and cut the subtrees they send
lower; it is kept verbatim except for its name.  ``_multigroup_slice`` is
the multigroup slice as it was when it audited every candidate the search
reached, not one per orbit of the relabelings that fix the identity.  It is
kept verbatim, except that it calls ``_pruned_addition_tables`` in place of
the library's generator, as the reference that
``tests/test_enumeration_pruning.py`` pins the library's slice to, order
included.

``generate_multirings``, ``generate_multigroups`` and ``_canonical_key`` are
the generators and canonical key as they were when the generators searched
and audited every placement of the constants, and the key tried every
relabeling that sends the constants to the least indices.  They are kept
verbatim, except that they call ``_pruned_addition_tables`` in place of the
library's addition-table generator, as the reference that
``tests/test_enumeration_pruning.py`` pins the relabelled placements, the
slice-only ``enumerate_structures`` and the narrowed key to.  That key reads
``_relabel``, the table mover as it was when it gathered each row through
a Python comprehension, and ``_Moved``, the memo of mask images it built
per call; both are kept verbatim here.  ``_rowwise_canonical_key`` and
``_relabelings`` are the key as it was when it narrowed its relabelings one
row at a time, kept verbatim except for the key's name, as the reference
that ``tests/test_relabel_and_cones.py`` pins the library's key to past
order 4.

The sign-space searches ``enumerate_space_morphisms`` (every point map, each
audited by ``space_morphism_check``) and ``find_space_isomorphism`` (its own
backtracking over point bijections, pruned on sorted value signatures and
tested at the leaves), and the induced point maps ``mf_map_to_aos_map`` with
``_ordering_mask_to_point`` and ``mr_map_to_ars_map``, are kept verbatim as
the reference that ``tests/test_space_maps.py`` pins the library's one
point-map search and one cone pullback to.  ``mr_map_to_ars_map`` here reads
this module's ``enumerate_orderings``, which gives the library's orderings
in the same order.

``_sign_cones`` is the cone search as it was when it yielded every leaf
untested, and ``sign_cone_orderings`` and ``sign_cone_ars_cones`` are
``spectra._orderings`` and ``ordering_spaces._enumerate_ars_cones`` as they
were when each re-tested closure at the leaves itself, the second with its
own inline prime test.  ``is_prime_mask`` is the prime test as it was
before it became the table-level ``spectra._is_prime``; this module's
``enumerate_orderings`` reads it.  ``_admissible_characters`` and
``_GroupView`` are the characters of a real reduced multifield as they were
before the group view was folded into the function, with its own kernel
loop; ``mf_map_to_aos_map`` here reads them.  All are kept verbatim except
for the names of the two callers, and ``tests/test_shared_predicates.py``
pins the library's search, its callers and characters to them.

``enumerate_preorderings`` is the preordering search as it was before it
walked the closed sets of the closure of the squares: it tried every set of
non-squares, smallest first and each size in lexicographic order, and kept
those that the ``Preordering`` constructor accepts.  It is kept verbatim as
the reference that ``tests/test_ideal_lattice.py`` pins the library's walk
to: the same preorderings in the same order.
"""

import itertools
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from multialg.constructions import Ideal
from multialg.core import (
    Carrier,
    FiniteMultigroup,
    FiniteMultiring,
    InputError,
    StructureMap,
    _Elements,
    _fibres,
    _Table,
    bits,
    check_multigroup,
    check_multiring,
    full_mask,
    mask_of,
)
from multialg.enumeration import _carrier, _labels
from multialg.ordering_spaces import (
    SignSpace,
    SpaceMap,
    _product_table,
    mfred_to_aos,
    mrred_to_ars,
    space_morphism_check,
    value_table,
)
from multialg.real_semigroups import RealSemigroup
from multialg.spectra import Ordering, Preordering
from multialg.special_groups import SpecialGroup
from reference_audits import check_morphism, check_rs_morphism, is_sg_morphism


def enumerate_multiring_morphisms(a: FiniteMultiring,
                                  b: FiniteMultiring) -> list[StructureMap]:
    """All morphisms a -> b, by backtracking in canonical element order."""
    n, m = a.size, b.size
    assign = [-1] * n
    out: list[StructureMap] = []

    def consistent(i: int) -> bool:
        v = assign[i]
        if i == a.zero and v != b.zero:
            return False
        if i == a.one and v != b.one:
            return False
        for j in range(n):
            w = assign[j]
            if w < 0:
                continue
            if a.neg[j] == i and b.neg[w] != v:
                return False
            if a.neg[i] == j and b.neg[v] != w:
                return False
            p = a.mul[i][j]
            if assign[p] >= 0 and b.mul[v][w] != assign[p]:
                return False
            for k in range(n):
                u = assign[k]
                if u < 0:
                    continue
                if a.mul[j][k] == i and b.mul[w][u] != v:
                    return False
                if (a.add[j][k] >> i) & 1 and not (b.add[w][u] >> v) & 1:
                    return False
        return True

    def extend(i: int) -> None:
        if i == n:
            f = StructureMap(a, b, tuple(assign))
            if check_morphism(f).overall:
                out.append(f)
            return
        for v in range(m):
            assign[i] = v
            if consistent(i):
                extend(i + 1)
        assign[i] = -1

    extend(0)
    return out


def find_isomorphism(a: FiniteMultiring,
                     b: FiniteMultiring) -> Optional[StructureMap]:
    """First isomorphism in backtracking order over canonical element order,
    or None.  Label-insensitive: only the tables must match."""
    n = a.size
    if n != b.size:
        return None
    assign = [-1] * n
    used = [False] * b.size

    def consistent(i: int) -> bool:
        v = assign[i]
        if (i == a.zero) != (v == b.zero):
            return False
        if (i == a.one) != (v == b.one):
            return False
        for j in range(n):
            w = assign[j]
            if w < 0:
                continue
            if a.neg[i] == j and b.neg[v] != w:
                return False
            if a.neg[j] == i and b.neg[w] != v:
                return False
            p = a.mul[i][j]
            if assign[p] >= 0 and b.mul[v][w] != assign[p]:
                return False
            q = a.mul[j][i]
            if assign[q] >= 0 and b.mul[w][v] != assign[q]:
                return False
            if a.add[i][j].bit_count() != b.add[v][w].bit_count():
                return False
        return True

    def full_match() -> bool:
        for x, y in itertools.product(range(n), repeat=2):
            if mask_of(assign[c] for c in bits(a.add[x][y])) != b.add[assign[x]][assign[y]]:
                return False
            if assign[a.mul[x][y]] != b.mul[assign[x]][assign[y]]:
                return False
        return True

    def extend(i: int) -> Optional[StructureMap]:
        if i == n:
            if full_match():
                return StructureMap(a, b, tuple(assign))
            return None
        for v in range(n):
            if used[v]:
                continue
            assign[i] = v
            used[v] = True
            if consistent(i):
                found = extend(i + 1)
                if found is not None:
                    return found
            used[v] = False
        assign[i] = -1
        return None

    return extend(0)


def enumerate_sg_morphisms(g: SpecialGroup, h: SpecialGroup) -> list[StructureMap]:
    n, m = g.size, h.size
    assign = [-1] * n
    out: list[StructureMap] = []

    def consistent(i: int) -> bool:
        v = assign[i]
        if i == g.one and v != h.one:
            return False
        if i == g.minus_one and v != h.minus_one:
            return False
        for j in range(n):
            w = assign[j]
            if w < 0:
                continue
            p = g.mul[i][j]
            if assign[p] >= 0 and h.mul[v][w] != assign[p]:
                return False
        return True

    def extend(i: int) -> None:
        if i == n:
            f = StructureMap(g, h, tuple(assign))
            if is_sg_morphism(f):
                out.append(f)
            return
        for v in range(m):
            assign[i] = v
            if consistent(i):
                extend(i + 1)
        assign[i] = -1

    extend(0)
    return out


def enumerate_rs_morphisms(s: RealSemigroup, t: RealSemigroup) -> list[StructureMap]:
    n, m = s.size, t.size
    assign = [-1] * n
    out: list[StructureMap] = []
    consts = {s.one: t.one, s.zero: t.zero, s.minus_one: t.minus_one}

    def consistent(i: int) -> bool:
        v = assign[i]
        if i in consts and v != consts[i]:
            return False
        for j in range(n):
            w = assign[j]
            if w < 0:
                continue
            p = s.mul[i][j]
            if assign[p] >= 0 and t.mul[v][w] != assign[p]:
                return False
        return True

    def extend(i: int) -> None:
        if i == n:
            f = StructureMap(s, t, tuple(assign))
            if check_rs_morphism(f).overall:
                out.append(f)
            return
        for v in range(m):
            assign[i] = v
            if consistent(i):
                extend(i + 1)
        assign[i] = -1

    extend(0)
    return out


def _satisfies_spec_relations(a: FiniteMultiring, vec: tuple[int, ...]) -> bool:
    """vec in {0,1}^A belongs to the closed image iff its zero set is a prime
    ideal: x_0=0, x_1=1, x_ab = x_a and x_b, and x_a=x_b=0 forces x_c=0 on
    every c in a+b."""
    if vec[a.zero] != 0 or vec[a.one] != 1:
        return False
    for x, y in itertools.product(range(a.size), repeat=2):
        if vec[a.mul[x][y]] != (vec[x] & vec[y]):
            return False
        if vec[x] == 0 and vec[y] == 0:
            for c in bits(a.add[x][y]):
                if vec[c] != 0:
                    return False
    return True


def _enumerate_relation_vectors(a: FiniteMultiring) -> list[tuple[int, ...]]:
    n = a.size
    out: list[tuple[int, ...]] = []
    vec = [-1] * n

    def consistent(i: int) -> bool:
        if i == a.zero and vec[i] != 0:
            return False
        if i == a.one and vec[i] != 1:
            return False
        for j in range(n):
            if vec[j] < 0:
                continue
            for x, y in ((i, j), (j, i)):
                p = a.mul[x][y]
                if vec[p] >= 0 and vec[p] != (vec[x] & vec[y]):
                    return False
                if vec[x] == 0 and vec[y] == 0:
                    for c in bits(a.add[x][y]):
                        if vec[c] == 0 or vec[c] < 0:
                            continue
                        return False
        return True

    def extend(i: int) -> None:
        if i == n:
            t = tuple(vec)
            if _satisfies_spec_relations(a, t):
                out.append(t)
            return
        for v in (0, 1):
            vec[i] = v
            if consistent(i):
                extend(i + 1)
        vec[i] = -1

    extend(0)
    return out


def _table_maps(n: int, m: int, fixed: Sequence[tuple[int, int]],
                unary: Sequence[tuple[Sequence[int], Sequence[int]]] = (),
                ops: Sequence[tuple[_Table, _Table]] = (),
                cells: Sequence[tuple[_Table, _Table]] = (),
                bijective: bool = False) -> Iterator[tuple[int, ...]]:
    """Candidate maps {0..n-1} -> {0..m-1} in lexicographic order, as tuples.

    Each (source, target) pair of tables is a condition every wanted map
    meets: ``fixed`` pins f(i) = v, ``unary`` asks f(u(x)) = u'(f(x)),
    ``ops`` asks f(xy) = f(x)f(y) on value tables and ``cells`` asks
    f(cell(x, y)) <= cell'(f(x), f(y)) on mask tables; ``bijective`` adds
    injectivity and f(c) in cell'(f(x), f(y)) only if c in cell(x, y).
    The maps yielded are exactly those meeting every condition: each pair
    condition is applied when the later of its two variables is assigned and
    narrows every variable it names, assigned or not; an empty domain cuts
    the branch.  With ``bijective``, equal popcounts plus injectivity give
    f(cell) = cell'.
    """
    start = [(1 << m) - 1] * n
    for i, v in fixed:
        start[i] &= 1 << v
    if bijective:
        for i, v in fixed:
            for j in range(n):
                if j != i:
                    start[j] &= ~(1 << v)
    elements = _Elements()
    # Each unary pair with its source preimage lists and target preimage masks.
    unaries = [(src, tgt, list(map(elements.__getitem__, back)), pre)
               for (src, tgt), back, pre in zip(unary, _fibres(s for s, _ in unary),
                                                _fibres(t for _, t in unary))]
    outside = full_mask(n)
    vals = [0] * n

    def extend(i: int, dom: list[int]) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(vals)
            return
        choices = dom[i]
        while choices:
            low = choices & -choices
            choices ^= low
            v = low.bit_length() - 1
            vals[i] = v
            d = dom.copy()
            d[i] = low
            if bijective:
                for j in range(i + 1, n):
                    d[j] &= ~low
            for src, tgt, back, pre in unaries:
                d[src[i]] &= 1 << tgt[v]
                for x in back[i]:
                    d[x] &= pre[v]
            for src, tgt in ops:
                src_i, tgt_v = src[i], tgt[v]
                for j in range(i + 1):
                    w = vals[j]
                    d[src_i[j]] &= 1 << tgt_v[w]
                    d[src[j][i]] &= 1 << tgt[w][v]
            later = outside >> (i + 1) << (i + 1)
            for src, tgt in cells:
                src_i, tgt_v = src[i], tgt[v]
                for j in range(i + 1):
                    w = vals[j]
                    # Both orders; a set, as the tables are mostly commutative.
                    for cell, image in {(src_i[j], tgt_v[w]), (src[j][i], tgt[w][v])}:
                        for c in elements[cell]:
                            d[c] &= image
                        if bijective:
                            if cell.bit_count() != image.bit_count():
                                d[i] = 0  # no bijection matches the two cells
                            for c in elements[later & ~cell]:
                                d[c] &= ~image
            if 0 not in d:
                yield from extend(i + 1, d)

    return extend(0, start)


def sg_equal(g: SpecialGroup, h: SpecialGroup) -> bool:
    """Same labels and identical tables under the label identification."""
    if set(g.names) != set(h.names):
        return False
    to_h = [h.carrier.index(name) for name in g.names]
    if to_h[g.one] != h.one or to_h[g.minus_one] != h.minus_one:
        return False
    for a, b in itertools.product(range(g.size), repeat=2):
        if to_h[g.mul[a][b]] != h.mul[to_h[a]][to_h[b]]:
            return False
    mapped = {(to_h[a], to_h[b], to_h[c], to_h[d]) for (a, b, c, d) in g.iso}
    return mapped == set(h.iso)


def multiring_equal(a: FiniteMultiring, b: FiniteMultiring) -> bool:
    """Table-level equality under the label identification."""
    if set(a.names) != set(b.names):
        return False
    to_b = [b.carrier.index(name) for name in a.names]
    if to_b[a.zero] != b.zero or to_b[a.one] != b.one:
        return False
    for x in range(a.size):
        if to_b[a.neg[x]] != b.neg[to_b[x]]:
            return False
        for y in range(a.size):
            if to_b[a.mul[x][y]] != b.mul[to_b[x]][to_b[y]]:
                return False
            if mask_of(to_b[c] for c in bits(a.add[x][y])) \
                    != b.add[to_b[x]][to_b[y]]:
                return False
    return True


def rs_equal(s: RealSemigroup, t: RealSemigroup) -> bool:
    if set(s.names) != set(t.names):
        return False
    to_t = [t.carrier.index(name) for name in s.names]
    if (to_t[s.one], to_t[s.zero], to_t[s.minus_one]) != (t.one, t.zero, t.minus_one):
        return False
    for x, y in itertools.product(range(s.size), repeat=2):
        if to_t[s.mul[x][y]] != t.mul[to_t[x]][to_t[y]]:
            return False
        if mask_of(to_t[c] for c in bits(s.d[x][y])) != t.d[to_t[x]][to_t[y]]:
            return False
    return True


def _addition_tables(n: int, zero: int,
                     neg: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Commutative set-valued tables with the zero row forced, zero membership
    exactly at opposite pairs, and partial reversibility pruning."""
    nonzero = [x for x in range(n) if x != zero]
    cells = [(x, y) for i, x in enumerate(nonzero) for y in nonzero[i:]]
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        table[zero][a] = 1 << a
        table[a][zero] = 1 << a

    def candidates(x: int, y: int) -> Iterator[int]:
        others = [e for e in nonzero]
        for sub in range(1 << len(others)):
            m = mask_of(others[i] for i in bits(sub))
            if y == neg[x]:
                yield m | (1 << zero)
            elif m:
                yield m

    def partial_ok(upto: int) -> bool:
        x, y = cells[upto]
        cell = table[x][y]
        for z in bits(cell):
            if z == zero:
                continue
            # reversibility: x in z + neg(y), y in neg(x) + z, when decided
            for (p, q, want) in ((z, neg[y], x), (neg[x], z, y)):
                if table[p][q] and not (table[p][q] >> want) & 1:
                    return False
        return True

    def fill(idx: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if idx == len(cells):
            yield tuple(tuple(r) for r in table)
            return
        x, y = cells[idx]
        for cell in candidates(x, y):
            table[x][y] = cell
            table[y][x] = cell
            if partial_ok(idx):
                yield from fill(idx + 1)
        table[x][y] = table[y][x] = 0

    yield from fill(0)


def _pruned_addition_tables(n: int, zero: int,
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



def every_map(s, t) -> Iterator[StructureMap]:
    """Every map s -> t, in ``itertools.product`` order: no search at all."""
    for mp in itertools.product(range(t.size), repeat=s.size):
        yield StructureMap(s, t, mp)


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


def candidate_multirings(orders: Sequence[int] = (1, 2, 3)) -> Iterator[FiniteMultiring]:
    """Every candidate multiring table of the given orders that
    ``_addition_tables`` yields, failing ones included (616 up to order 3)."""
    for n in orders:
        carrier = Carrier(_labels(n))
        for zero, one in itertools.permutations(range(n), 2):
            for neg in _involutions_fixing(n, zero):
                for mul in _monoid_tables(n, zero, one):
                    for add in _addition_tables(n, zero, neg):
                        yield FiniteMultiring(carrier, add, mul, neg, zero, one)


def generate_multirings(n: int) -> Iterator[FiniteMultiring]:
    """All labeled multirings on n elements passing the full audit."""
    if n == 1:
        yield FiniteMultiring(Carrier(_labels(1)), ((1,),), ((0,),), (0,), 0, 0)
        return
    carrier = Carrier(_labels(n))
    for zero, one in itertools.permutations(range(n), 2):
        for neg in _involutions_fixing(n, zero):
            for mul in _monoid_tables(n, zero, one):
                for add in _pruned_addition_tables(n, zero, neg):
                    cand = FiniteMultiring(carrier, add, mul, neg, zero, one)
                    if check_multiring(cand).overall:
                        yield cand


def _multigroup_slice(n: int) -> Iterator[FiniteMultigroup]:
    """The labeled multigroups on n elements with identity 0 passing the
    full audit, in depth-first order."""
    carrier = _carrier(n)
    for inv in _involutions_fixing(n, 0):
        for op in _pruned_addition_tables(n, 0, inv):
            cand = FiniteMultigroup(carrier, op, inv, 0)
            if check_multigroup(cand).overall:
                yield cand


def generate_multigroups(n: int) -> Iterator[FiniteMultigroup]:
    """All labeled commutative multigroups on n elements."""
    carrier = Carrier(_labels(n))
    for identity in range(n):
        for inv in _involutions_fixing(n, identity):
            for op in _pruned_addition_tables(n, identity, inv):
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


class _Moved(dict):
    """Mask -> its image under the map f, computed on first use."""

    def __init__(self, f: Sequence[int]) -> None:
        super().__init__()
        self.f = f

    def __missing__(self, mask: int) -> int:
        out = self[mask] = mask_of(self.f[c] for c in bits(mask))
        return out


def _relabel(f: Sequence[int], tables: tuple) -> tuple:
    """``tables`` moved along the bijection f, element x becoming f[x], with
    rows in the new index order: the constants, the unary, value and cell
    (mask) tables, and any relations given as sets of tuples after them."""
    constants, unary, values, cells, *relations = tables
    order = [0] * len(f)
    for old, new in enumerate(f):
        order[new] = old

    def table(t: _Table, image: Sequence[int] | _Moved) -> tuple:
        rows = [t[x] for x in order]
        return tuple(tuple([image[row[y]] for y in order]) for row in rows)

    moved = _Moved(f)
    return (tuple([f[c] for c in constants]),
            tuple(tuple([f[u[x]] for x in order]) for u in unary),
            tuple(table(t, f) for t in values),
            tuple(table(t, moved) for t in cells),
            *(frozenset(tuple(f[v] for v in q) for q in rel) for rel in relations))


def _rowwise_canonical_key(s) -> tuple:
    """Lexicographically least (size, relabelled tables) over all
    relabelings.

    The relabelled tables start with the images of the constants, so only
    the relabelings sending the distinct constants, in order, to 0, 1, ...
    can give the least; the other elements run over every order.  Those are
    narrowed to the ones giving the least unary tables, then the least rows
    of the value tables and of the cell tables, one row at a time, until
    one is left or the rows run out."""
    n, tables = s.size, s.tables
    _, unary, values, cells = tables

    def rows(order: list[int], f: list[int], moved: _Moved) -> Iterator[list]:
        yield from ([f[u[x]] for x in order] for u in unary)
        for t in values:
            yield from ([f[t[x][y]] for y in order] for x in order)
        for t in cells:
            yield from ([moved[t[x][y]] for y in order] for x in order)

    candidates = [(f, rows(order, f, moved)) for order, f, moved
                  in _relabelings(n, tuple(dict.fromkeys(tables[0])))]
    while len(candidates) > 1:
        images = [next(r, None) for _, r in candidates]
        if images[0] is None:
            break
        least = min(images)
        candidates = [c for c, image in zip(candidates, images) if image == least]
    return (n,) + _relabel(candidates[0][0], tables)


@lru_cache(maxsize=64)
def _relabelings(n: int, fixed: tuple[int, ...]) -> list[tuple]:
    """(order, f, mask images under f) for each relabeling f that sends the
    fixed elements, in order, to 0, 1, ...; order lists the old elements by
    their new index.  The images fill in as the keys ask for them."""
    out = []
    for rest in itertools.permutations([x for x in range(n) if x not in fixed]):
        order, f = list(fixed + rest), [0] * n
        for new, old in enumerate(order):
            f[old] = new
        out.append((order, f, _Moved(f)))
    return out


def multiring_canonical_key(r: FiniteMultiring) -> tuple:
    """Lexicographically least serialization over all relabelings."""
    n = r.size
    best: Optional[tuple] = None
    for perm in itertools.permutations(range(n)):
        add = tuple(tuple(mask_of(perm[c] for c in bits(r.add[x][y]))
                          for y in _inv_perm_order(perm, n))
                    for x in _inv_perm_order(perm, n))
        mul = tuple(tuple(perm[r.mul[x][y]] for y in _inv_perm_order(perm, n))
                    for x in _inv_perm_order(perm, n))
        neg = tuple(perm[r.neg[x]] for x in _inv_perm_order(perm, n))
        key = (n, perm[r.zero], perm[r.one], neg, mul, add)
        if best is None or key < best:
            best = key
    return best  # type: ignore[return-value]


def _inv_perm_order(perm: Sequence[int], n: int) -> list[int]:
    """Old indices listed in order of their new names."""
    out = [0] * n
    for old, new in enumerate(perm):
        out[new] = old
    return out


def multigroup_canonical_key(m: FiniteMultigroup) -> tuple:
    n = m.size
    best: Optional[tuple] = None
    for perm in itertools.permutations(range(n)):
        order = _inv_perm_order(perm, n)
        op = tuple(tuple(mask_of(perm[c] for c in bits(m.op[x][y]))
                         for y in order) for x in order)
        inv = tuple(perm[m.inv[x]] for x in order)
        key = (n, perm[m.identity], inv, op)
        if best is None or key < best:
            best = key
    return best  # type: ignore[return-value]


def enumerate_orderings(a: FiniteMultiring) -> list[Ordering]:
    """Subset scan over positive cones, pruned pair-by-pair on {x,-x} orbits
    with incremental sum/product closure."""
    n = a.size
    neg = a.neg
    singles = mask_of(x for x in range(n) if neg[x] == x)
    pairs = sorted({(min(x, neg[x]), max(x, neg[x]))
                    for x in range(n) if neg[x] != x})
    found: list[int] = []

    def compatible(p: int, decided: int, new_elems: int) -> bool:
        for u in bits(new_elems):
            for v in bits(p):
                w = a.mul[u][v]
                if (decided >> w) & 1 and not (p >> w) & 1:
                    return False
                cell = a.add[u][v] | a.add[v][u]
                if cell & decided & ~p:
                    return False
        return True

    def closed(p: int) -> bool:
        # full re-verification: the incremental pruning sees a violation
        # only once both sides of a cell are decided
        for x in bits(p):
            for y in bits(p):
                if a.add[x][y] & ~p or not (p >> a.mul[x][y]) & 1:
                    return False
        return True

    def dfs(i: int, p: int, decided: int) -> None:
        if i == len(pairs):
            if not closed(p):
                return
            supp = p & a.neg_mask(p)
            try:
                Ideal(a, supp)
            except InputError:
                return
            if is_prime_mask(a, supp):
                found.append(p)
            return
        x, y = pairs[i]
        for extra in (1 << x, 1 << y, (1 << x) | (1 << y)):
            q = p | extra
            d = decided | (1 << x) | (1 << y)
            if compatible(q, d, extra):
                dfs(i + 1, q, d)

    if not compatible(singles, singles, singles):
        return []
    dfs(0, singles, singles)
    return [Ordering(a, p) for p in sorted(found)]


def _enumerate_ars_cones(s: SignSpace) -> list[int]:
    """Submonoids P with P u -P = G, -1 not in P, D-closure and the prime
    support condition, enumerated over sign pairs {a,-a}."""
    n = s.nfunctions
    dtab = value_table(s)
    neg_index = [s.index(s.negation(i)) for i in range(n)]
    if any(v is None for v in neg_index):
        return []
    singles = mask_of(i for i in range(n) if neg_index[i] == i)
    one = s.constant(1)
    minus = s.constant(-1)
    pairs = sorted({(min(i, neg_index[i]), max(i, neg_index[i]))
                    for i in range(n) if neg_index[i] != i})
    out: list[int] = []

    def compatible(p: int, decided: int, new: int) -> bool:
        for u in bits(new):
            for v in bits(p):
                w = s.index(s.pointwise_mul(u, v))
                if w is None or ((decided >> w) & 1 and not (p >> w) & 1):
                    return False
                if dtab[u][v] & decided & ~p or dtab[v][u] & decided & ~p:
                    return False
        return True

    def leaf(p: int) -> None:
        if (p >> minus) & 1 or not (p >> one) & 1:
            return
        # full re-verification of closure and value-set stability
        for i in bits(p):
            for j in bits(p):
                w = s.index(s.pointwise_mul(i, j))
                if w is None or not (p >> w) & 1:
                    return
                if dtab[i][j] & ~p:
                    return
        supp = p & mask_of(neg_index[i] for i in bits(p))
        for i, j in itertools.product(range(n), repeat=2):
            w = s.index(s.pointwise_mul(i, j))
            if (supp >> w) & 1 and not (supp >> i) & 1 and not (supp >> j) & 1:
                return
        out.append(p)

    def dfs(k: int, p: int, decided: int) -> None:
        if k == len(pairs):
            leaf(p)
            return
        i, j = pairs[k]
        for extra in (1 << i, 1 << j, (1 << i) | (1 << j)):
            q = p | extra
            d = decided | (1 << i) | (1 << j)
            if compatible(q, d, extra):
                dfs(k + 1, q, d)

    if compatible(singles, singles, singles):
        dfs(0, singles, singles)
    return out


def enumerate_space_morphisms(s: SignSpace, t: SignSpace) -> list[SpaceMap]:
    """All point maps whose pullbacks land in the source function set."""
    out = []
    for point_map in itertools.product(range(t.npoints), repeat=s.npoints):
        m = SpaceMap(s, t, point_map)
        if space_morphism_check(m).overall:
            out.append(m)
    return out


def _ordering_mask_to_point(f: FiniteMultiring, chars: list) -> dict[int, int]:
    """Positive-cone mask of each character's ordering, to its point index."""
    nz = [x for x in range(f.size) if x != f.zero]
    out = {}
    for j, chi in enumerate(chars):
        pmask = (1 << f.zero) | mask_of(x for i, x in enumerate(nz)
                                        if chi[i] == 1)
        out[pmask] = j
    return out


def mf_map_to_aos_map(sigma: StructureMap) -> SpaceMap:
    """Contravariant induced point map: orderings of the target pull back
    along the morphism to orderings of the source."""
    f: FiniteMultiring = sigma.source  # type: ignore[assignment]
    k: FiniteMultiring = sigma.target  # type: ignore[assignment]
    space_f, _ = mfred_to_aos(f)
    space_k, _ = mfred_to_aos(k)
    f_points = _ordering_mask_to_point(f, _admissible_characters(f))
    k_points = _ordering_mask_to_point(k, _admissible_characters(k))
    point_map = [0] * space_k.npoints
    for pmask, j in k_points.items():
        pre = mask_of(x for x in range(f.size)
                      if (pmask >> sigma.mapping[x]) & 1)
        if pre not in f_points:
            raise InputError("preimage of an ordering is not an ordering; "
                             "the map is not a morphism of real reduced "
                             "multifields")
        point_map[j] = f_points[pre]
    return SpaceMap(space_k, space_f, tuple(point_map))


def mr_map_to_ars_map(sigma: StructureMap) -> SpaceMap:
    """Contravariant induced point map on the sign spectra."""
    a: FiniteMultiring = sigma.source  # type: ignore[assignment]
    b: FiniteMultiring = sigma.target  # type: ignore[assignment]
    space_a, _ = mrred_to_ars(a)
    space_b, _ = mrred_to_ars(b)
    a_index = {o.positive: i for i, o in enumerate(enumerate_orderings(a))}
    point_map = []
    for o in enumerate_orderings(b):
        pre = mask_of(x for x in range(a.size)
                      if (o.positive >> sigma.mapping[x]) & 1)
        if pre not in a_index:
            raise InputError("preimage of an ordering is not an ordering; "
                             "the map is not a morphism of real reduced "
                             "multirings")
        point_map.append(a_index[pre])
    return SpaceMap(space_b, space_a, tuple(point_map))


def find_space_isomorphism(s: SignSpace, t: SignSpace) -> Optional[tuple[int, ...]]:
    """Point bijection whose pullback matches the function sets exactly."""
    if s.mode != t.mode or s.npoints != t.npoints \
            or s.nfunctions != t.nfunctions:
        return None

    def signature(space: SignSpace, x: int) -> tuple[int, ...]:
        return tuple(sorted(f[x] for f in space.functions))

    sig_s = [signature(s, x) for x in range(s.npoints)]
    sig_t = [signature(t, x) for x in range(t.npoints)]
    assign: list[int] = [-1] * s.npoints
    used = [False] * t.npoints

    def extend(x: int) -> Optional[tuple[int, ...]]:
        if x == s.npoints:
            pulled = {tuple(f[assign[i]] for i in range(s.npoints))
                      for f in t.functions}
            if pulled == set(s.functions):
                return tuple(assign)
            return None
        for y in range(t.npoints):
            if used[y] or sig_s[x] != sig_t[y]:
                continue
            assign[x] = y
            used[y] = True
            found = extend(x + 1)
            if found is not None:
                return found
            used[y] = False
        assign[x] = -1
        return None

    return extend(0)


# ---------------------------------------------------------------------------
# the sign-cone leaf tests and the characters of a multifield, as they were
# before _sign_cones tested its leaves and _GroupView was folded away


def is_prime_mask(a: FiniteMultiring, members: int) -> bool:
    if (members >> a.one) & 1:
        return False
    for x, y in itertools.product(range(a.size), repeat=2):
        if (members >> a.mul[x][y]) & 1:
            if not (members >> x) & 1 and not (members >> y) & 1:
                return False
    return True


def _sign_cones(neg: Sequence[int], mul: Sequence[Sequence[int]],
                cell: Sequence[Sequence[int]]) -> Iterator[int]:
    """Candidate positive cones P as masks, in depth-first order.

    P holds every fixed point of ``neg``; the pairs {x, -x} are walked in
    ascending order, and each adds x, -x or both.  A branch is cut when a
    decided product u*v or a cell of u+v (in either order), for u, v in P,
    falls outside P.  The callers keep their own full leaf test."""
    n = len(neg)
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


def sign_cone_orderings(a: FiniteMultiring) -> tuple[Ordering, ...]:
    """The sign cones of ``_sign_cones`` that are closed under sums and
    products and whose support is a prime ideal, in ascending mask order."""

    def is_ordering(p: int) -> bool:
        # full re-verification: the search sees a violation only once both
        # sides of a cell are decided
        for x in bits(p):
            for y in bits(p):
                if a.add[x][y] & ~p or not (p >> a.mul[x][y]) & 1:
                    return False
        supp = p & a.neg_mask(p)
        try:
            Ideal(a, supp)
        except InputError:
            return False
        return is_prime_mask(a, supp)

    return tuple(Ordering(a, p) for p in sorted(filter(is_ordering,
                                                       _sign_cones(a.neg, a.mul, a.add))))


def sign_cone_ars_cones(s: SignSpace) -> list[int]:
    """The sign cones of ``spectra._sign_cones`` over the function group with
    -1 outside, 1 inside, closure under products and value sets, and a prime
    support, in the search's depth-first order.  Needs AX1: closure under
    products and the constants."""
    n = s.nfunctions
    dtab = value_table(s)
    mul = _product_table(s)
    neg = [s.index(s.negation(i)) for i in range(n)]
    one = s.constant(1)
    minus = s.constant(-1)

    def is_cone(p: int) -> bool:
        if (p >> minus) & 1 or not (p >> one) & 1:
            return False
        # full re-verification of closure and value-set stability
        for i in bits(p):
            for j in bits(p):
                if not (p >> mul[i][j]) & 1 or dtab[i][j] & ~p:
                    return False
        supp = p & mask_of(neg[i] for i in bits(p))
        return not any((supp >> mul[i][j]) & 1 and not (supp >> i) & 1
                       and not (supp >> j) & 1
                       for i, j in itertools.product(range(n), repeat=2))

    return list(filter(is_cone, _sign_cones(neg, mul, dtab)))


def _admissible_characters(f: FiniteMultiring) -> list[tuple[int, ...]]:
    """Sign characters of the nonzero part sending -1 to -1 whose kernel
    swallows sums, sorted; these are the points of the derived space."""
    nz = [x for x in range(f.size) if x != f.zero]
    pos = {x: i for i, x in enumerate(nz)}
    minus = f.neg[f.one]
    chars = []
    for chi in _GroupView(f, nz).characters():
        if chi[pos[minus]] != -1:
            continue
        ker = [nz[i] for i, v in enumerate(chi) if v == 1]
        kmask = mask_of(ker)
        closed = True
        for a in ker:
            for b in ker:
                if f.add[a][b] & ~kmask:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            chars.append(chi)
    chars.sort()
    return chars


class _GroupView:
    """Exponent-2 group structure on the nonzero part of a multifield."""

    def __init__(self, f: FiniteMultiring, nz: list[int]) -> None:
        self.f = f
        self.nz = nz
        self.pos = {x: i for i, x in enumerate(nz)}

    def characters(self) -> list[tuple[int, ...]]:
        f, nz, pos = self.f, self.nz, self.pos
        basis: list[tuple[int, int]] = []
        decomp = []
        # represent each element by which basis elements multiply to it
        expr: dict[int, int] = {f.one: 0}
        order = []
        for x in nz:
            if x in expr:
                order.append(x)
                continue
            # new basis element
            bid = len(basis)
            basis.append((x, bid))
            new_expr = dict(expr)
            for y, combo in expr.items():
                new_expr[f.mul[y][x]] = combo | (1 << bid)
            expr = new_expr
            order.append(x)
        out = []
        dim = len(basis)
        for assign in itertools.product((1, -1), repeat=dim):
            chi = []
            for x in nz:
                v = 1
                for b in bits(expr[x]):
                    v *= assign[b]
                chi.append(v)
            out.append(tuple(chi))
        return out


def enumerate_preorderings(a: FiniteMultiring) -> list[Preordering]:
    squares = mask_of(a.mul[x][x] for x in range(a.size))
    out = []
    n = a.size
    free = [x for x in range(n) if not (squares >> x) & 1]
    for extra in itertools.chain.from_iterable(
            itertools.combinations(free, k) for k in range(len(free) + 1)):
        t = squares | mask_of(extra)
        try:
            out.append(Preordering(a, t))
        except InputError:
            continue
    return out
