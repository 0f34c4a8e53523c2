"""Independent brute-force enumeration of multirings, multidomains and
multifields with up to 3 elements.

Deliberately self-contained: no imports from the package under test.  Tables
are generated by raw loops (commutativity enters as symmetric generation and
two axiom filters are applied eagerly to keep the loop count sane: the forced
identity row of + and the forced unit row / absorbing row of *).  Everything
else is filtered by direct axiom checks, and no isomorphism pruning happens
during generation; classes are collapsed only at the end by lexicographically
least relabeling.

Structures are tuples (n, zero, one, neg, mul, add) with add cells as
frozensets of indices.
"""

from __future__ import annotations

import itertools


def subsets(xs):
    for k in range(len(xs) + 1):
        yield from itertools.combinations(xs, k)


def check_multifield(n, zero, one, neg, mul, add) -> bool:
    # nonzero elements invertible
    for a in range(n):
        if a != zero and not any(mul[a][b] == one for b in range(n)):
            return False
    return check_multiring(n, zero, one, neg, mul, add)


def check_multidomain(n, zero, one, neg, mul, add) -> bool:
    # no zero divisors
    for a in range(n):
        for b in range(n):
            if a != zero and b != zero and mul[a][b] == zero:
                return False
    return check_multiring(n, zero, one, neg, mul, add)


def check_multiring(n, zero, one, neg, mul, add) -> bool:
    rng = range(n)
    # multiplication: commutative monoid with absorbing zero
    for a in rng:
        if mul[one][a] != a or mul[a][zero] != zero:
            return False
        for b in rng:
            if mul[a][b] != mul[b][a]:
                return False
            for c in rng:
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return False
    # addition: commutative multigroup
    for a in rng:
        if add[zero][a] != frozenset([a]):
            return False
        for b in rng:
            if not add[a][b] or add[a][b] != add[b][a]:
                return False
            for z in add[a][b]:
                if a not in add[z][neg[b]] or b not in add[neg[a]][z]:
                    return False
            for c in rng:
                left = frozenset().union(*(add[a][w] for w in add[b][c]))
                right = frozenset().union(*(add[t][c] for t in add[a][b]))
                if left != right:
                    return False
    # weak distributivity (a + b)d <= ad + bd, the multiring axiom
    for a in rng:
        for b in rng:
            for d in rng:
                if not {mul[z][d] for z in add[a][b]} <= add[mul[a][d]][mul[b][d]]:
                    return False
    return True


def canonical(n, zero, one, neg, mul, add) -> str:
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        key = (
            n, perm[zero], perm[one],
            tuple(perm[neg[inv[i]]] for i in range(n)),
            tuple(tuple(perm[mul[inv[i]][inv[j]]] for j in range(n))
                  for i in range(n)),
            tuple(tuple(tuple(sorted(perm[c] for c in add[inv[i]][inv[j]]))
                        for j in range(n)) for i in range(n)),
        )
        if best is None or key < best:
            best = key
    return repr(best)


def enumerate_multifields(max_order: int) -> set[str]:
    return enumerate_classes(max_order, check_multifield)


def enumerate_classes(max_order: int, check) -> set[str]:
    """The canonical keys of the structures with up to max_order elements
    passing check, one of the three checks above."""
    found = set()
    for n in range(1, max_order + 1):
        rng = list(range(n))
        nonzero_cells = None
        for zero in rng:
            for one in rng:
                nonzero = [x for x in rng if x != zero]
                # symmetric multiplication tables, unit and zero rows forced
                free_mul = [(x, y) for i, x in enumerate(nonzero)
                            for y in nonzero[i:]
                            if x != one and y != one]
                for mvals in itertools.product(rng, repeat=len(free_mul)):
                    mul = [[None] * n for _ in rng]
                    for a in rng:
                        mul[zero][a] = mul[a][zero] = zero
                        mul[one][a] = mul[a][one] = a
                    if zero == one and n > 1:
                        continue
                    ok = True
                    for (x, y), v in zip(free_mul, mvals):
                        mul[x][y] = mul[y][x] = v
                    if any(None in row for row in mul):
                        # happens only when zero == one overwrote; n == 1 fine
                        ok = n == 1
                    if not ok:
                        continue
                    for neg in itertools.product(rng, repeat=n):
                        # symmetric addition tables, zero row forced
                        cells = [(x, y) for i, x in enumerate(nonzero)
                                 for y in nonzero[i:]]
                        options = []
                        for (x, y) in cells:
                            cands = []
                            for sub in subsets(nonzero):
                                s = set(sub)
                                if y == neg[x]:
                                    s.add(zero)
                                if s:
                                    cands.append(frozenset(s))
                            options.append(cands)
                        for combo in itertools.product(*options):
                            add = [[frozenset()] * n for _ in rng]
                            for a in rng:
                                add[zero][a] = frozenset([a])
                                add[a][zero] = frozenset([a])
                            for (x, y), s in zip(cells, combo):
                                add[x][y] = s
                                add[y][x] = s
                            if check(n, zero, one, tuple(neg), mul, add):
                                found.add(canonical(n, zero, one, tuple(neg),
                                                    mul, add))
    return found


if __name__ == "__main__":
    for check in (check_multiring, check_multidomain, check_multifield):
        result = enumerate_classes(3, check)
        print(check.__name__, len(result))
        for key in sorted(result):
            print(key)
