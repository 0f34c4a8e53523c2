"""The two row builders of the real-semigroup layer, row by row.

``_scaling_failures(T, mul, elements, pre)`` gives, for every row b, the masks
bad(b, c) = {a in T(b, c) : ae not in T(be, ce) for some e}, and
``_square_transversals(T, mul)`` gives {a : a in T(a^2 b, a^2 c)}.  RS2 and
iii read the first, ``mrred_to_rs``, RS6 and xvii the second; their
witness pins reach only the rows up to the first failure.  Here every row
of both builders, on T = D and T = D^t, must equal the set recomputed by
plain loops, on the corpus, rs3^3, the real semigroups of q2^2, q2^3 and
the fan-4 and fan-5 multifields, every structure on one element, the 512
symmetric, reflexive candidates on the sign semigroup and seeded mutants of
rs3 x rs3.  Failing scaling rows must occur next to passing ones in one
table, and passing cells next to failing ones in a failing row, so that
both branches of the whole-row test and of the cell test are compared.
"""

import dataclasses

from multialg.core import Carrier, _CellUnion, _Elements, _fibres
from multialg.corpus import corpus_real_semigroups, q2cube, q2xq2
from multialg.ordering_spaces import aos_to_mfred, fan_aos
from multialg.real_semigroups import (
    RealSemigroup,
    _scaling_failures,
    _square_transversals,
    canonical_3,
    dt_table,
    mrred_to_rs,
    rs_product,
)
from test_rs_masks import rs3x3_mutants, sum4_multifield


def naive_scaling(table, mul):
    n = len(mul)
    return [tuple(sum(1 << a for a in range(n) if (table[b][c] >> a) & 1 and any(
        not (table[mul[b][e]][mul[c][e]] >> mul[a][e]) & 1 for e in range(n)))
        for c in range(n)) for b in range(n)]


def naive_square_transversals(table, mul):
    n = len(mul)
    return [tuple(sum(1 << a for a in range(n)
                      if (table[mul[mul[a][a]][b]][mul[mul[a][a]][c]] >> a) & 1)
                  for c in range(n)) for b in range(n)]


def sign_candidates():
    base = canonical_3()
    pairs = [(b, c) for b in range(3) for c in range(b, 3)]
    choices = [(b, c, a) for b, c in pairs for a in range(3) if a not in (b, c)]
    for chosen in range(1 << len(choices)):
        d = [[(1 << b) | (1 << c) for c in range(3)] for b in range(3)]
        for k, (b, c, a) in enumerate(choices):
            if (chosen >> k) & 1:
                d[b][c] |= 1 << a
                d[c][b] |= 1 << a
        yield dataclasses.replace(base, d=tuple(map(tuple, d)))


def structures():
    yield from corpus_real_semigroups().values()
    yield rs_product([canonical_3()] * 3)
    for a in (q2xq2(), q2cube(), sum4_multifield(), aos_to_mfred(fan_aos(5))):
        yield mrred_to_rs(a)
    carrier = Carrier(("0",))
    for cell in (0, 1):
        yield RealSemigroup(carrier, ((0,),), 0, 0, 0, ((cell,),))
    yield from sign_candidates()
    yield from rs3x3_mutants(200, 18)


def test_every_row_of_both_builders():
    failing = passing = mixed = split = 0
    for s in structures():
        for table in (s.d, dt_table(s)):
            elements = _Elements()
            pre = _CellUnion.over(list(zip(*_fibres(zip(*s.mul)))), elements)
            rows = list(_scaling_failures(table, s.mul, elements, pre))
            assert rows == naive_scaling(table, s.mul)
            assert list(_square_transversals(table, s.mul)) == \
                naive_square_transversals(table, s.mul)
            failed = [any(row) for row in rows]
            failing += sum(failed)
            passing += failed.count(False)
            mixed += any(failed) and not all(failed)
            # nonempty cells that pass, in rows that fail
            split += sum(bool(cell) and not bad for row, bad_row, fails
                         in zip(table, rows, failed) if fails
                         for cell, bad in zip(row, bad_row))
    # 3,627 failing and 3,323 passing rows, in 905 tables that hold both;
    # 13,483 nonempty cells that pass inside failing rows
    assert failing >= 3000 and passing >= 3000 and mixed >= 800 and split >= 10000, \
        (failing, passing, mixed, split)
