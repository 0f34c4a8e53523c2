"""The five backtracking searches as they were before the search kernel.

``enumerate_multiring_morphisms``, ``find_isomorphism``,
``enumerate_sg_morphisms``, ``enumerate_rs_morphisms`` and
``_enumerate_relation_vectors`` are kept verbatim, each with its own
assign/consistent/extend loop, as the reference that
``tests/test_search_kernel.py`` pins the library's searches to: the same
result lists in the same order, and the same first isomorphism.
"""

import itertools
from typing import Optional

from multialg.core import FiniteMultiring, StructureMap, bits, check_morphism, mask_of
from multialg.real_semigroups import RealSemigroup, is_rs_morphism
from multialg.spectra import _satisfies_spec_relations
from multialg.special_groups import SpecialGroup, is_sg_morphism


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
            if is_rs_morphism(f):
                out.append(f)
            return
        for v in range(m):
            assign[i] = v
            if consistent(i):
                extend(i + 1)
        assign[i] = -1

    extend(0)
    return out


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
