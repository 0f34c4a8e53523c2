"""The row-at-a-time reassociation scan and multiring audit agree with the
cell-at-a-time versions they replaced.

``reference_audits.cellwise_reassociation_defects`` and
``cellwise_check_multiring`` are the scan and the audit as they were when
each (x, y, z), (a, b, c) and (a, b, d) was probed on its own.  Here
``core._reassociation_defects`` must yield the same defects in the same
order -- every tuple, not only the first -- and ``core.check_multiring``
must return an equal ``CheckReport``: on Z/n for n <= 64, on K^k for
k <= 6, on every candidate table of order <= 3 and on seeded single-cell
``add`` and ``mul`` mutants of Z/8, q2 x K^2 and the fan-3 multifield.
The mutants include non-commutative cells and, for the scan alone, emptied
cells, which relational tables have.
"""

import dataclasses
import itertools
import random

import reference_audits as reference
import reference_searches
from multialg import core
from multialg.constructions import product
from multialg.enumeration import _involutions_fixing, _labels, _monoid_tables
from multialg.ordering_spaces import aos_to_mfred, fan_aos


def defects(scan, table):
    return list(scan(table, core._Elements()))


def assert_scan_agrees(table):
    assert defects(core._reassociation_defects, table) \
        == defects(reference.cellwise_reassociation_defects, table)


def shifted(mul):
    """The value table as a table of singleton masks."""
    return tuple(tuple(1 << v for v in row) for row in mul)


def assert_multiring_agrees(r):
    assert core.check_multiring(r) == reference.cellwise_check_multiring(r)
    assert_scan_agrees(r.add)
    assert_scan_agrees(shifted(r.mul))


def test_cyclic_rings():
    """Every Z/n through the scan; whole reports up to Z/32 and at Z/48 and
    Z/64, as the reference's naive additive audit takes 10 s over all 64."""
    for n in range(1, 65):
        r = core.ring_multiring(n)
        if n <= 32 or n in (48, 64):
            assert_multiring_agrees(r)
        else:
            assert_scan_agrees(r.add)
            assert_scan_agrees(shifted(r.mul))


def test_krasner_powers():
    k = core.krasner()
    for power in range(1, 7):
        assert_multiring_agrees(product([k] * power))


def test_every_candidate_of_order_at_most_three():
    """All candidate tables of the generators, failing ones included, from
    the reference addition-table generator, which prunes less."""
    seen = 0
    for n in (1, 2, 3):
        carrier = core.Carrier(_labels(n))
        for identity in range(n):
            for inv in _involutions_fixing(n, identity):
                for op in reference_searches._addition_tables(n, identity, inv):
                    assert_scan_agrees(op)
                    seen += 1
        for zero, one in itertools.permutations(range(n), 2):
            for neg in _involutions_fixing(n, zero):
                for mul in _monoid_tables(n, zero, one):
                    for add in reference_searches._addition_tables(n, zero, neg):
                        assert_multiring_agrees(core.FiniteMultiring(
                            carrier, add, mul, neg, zero, one))
                        seen += 1
    assert seen == 107 + 616


def _replace_cell(table, i, j, value):
    rows = [list(row) for row in table]
    rows[i][j] = value
    return tuple(tuple(row) for row in rows)


def test_single_cell_mutants():
    """Seeded one-cell changes of add and mul; a flip that empties an
    addition cell is checked on the scan alone, with list rows as in the
    relational tables."""
    rng = random.Random(10)
    q2, k = core.q2(), core.krasner()
    bases = (core.ring_multiring(8), product([q2, k, k]), aos_to_mfred(fan_aos(3)))
    emptied = multirings = 0
    for base in bases:
        n = base.size
        for _ in range(60):
            i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            flipped = base.add[i][j] ^ (1 << v)
            if flipped:
                multirings += 1
                assert_multiring_agrees(dataclasses.replace(
                    base, add=_replace_cell(base.add, i, j, flipped)))
            mul = _replace_cell(base.mul, i, j, v)
            assert_multiring_agrees(dataclasses.replace(base, mul=mul))
        for _ in range(10):
            i, j = rng.randrange(n), rng.randrange(n)
            table = [list(row) for row in base.add]
            table[i][j] = 0
            assert_scan_agrees(table)
            emptied += 1
    assert multirings > 150 and emptied == 30
