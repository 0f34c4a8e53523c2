"""The row-at-a-time reassociation scan, the byte-compare associativity
audit and the multiring audit agree with the versions they replaced.

``reference_audits.cellwise_reassociation_defects`` and
``cellwise_check_multiring`` are the scan and the audit as they were when
each (x, y, z), (a, b, c) and (a, b, d) was probed on its own, and
``rowwise_reassociation_defects`` is the scan as it was when x(yz) was read
entry by entry through an ``itemgetter``.  Here
``core._reassociation_defects`` must yield the same defects in the same
order -- every tuple, not only the first, and the first alone to a consumer
that stops there -- and ``core.check_multiring`` must return an equal
``CheckReport``: on Z/n for n <= 64, on K^k for k <= 6, on every candidate
table of order <= 3 and on seeded single-cell ``add`` and ``mul`` mutants
of Z/8, q2 x K^2 and the fan-3 multifield.  The mutants include
non-commutative cells and, for the scan alone, emptied cells, which
relational tables have.

``core._associativity_defect`` must give the witness of the moved triple
loop ``reference_audits.associativity_defect``, and its four callers the
results of their moved versions: on every leaf of the monoid-table search
of order <= 4, on the multiplications above and on seeded single-cell
``mul`` mutants up to Z/64, whose entries reach 63, the top of the byte
range.
"""

import dataclasses
import itertools
import random

import reference_audits as reference
import reference_searches
from multialg import core
from multialg.constructions import product
from multialg.corpus import corpus_real_semigroups, corpus_special_groups
from multialg.enumeration import _involutions_fixing, _labels, _monoid_tables
from multialg.ordering_spaces import aos_to_mfred, fan_aos
from multialg.real_semigroups import canonical_3, check_ts, rs_product
from multialg.special_groups import SpecialGroup, mf_to_sg


def defects(scan, table):
    return list(scan(table, core._Elements()))


def assert_scan_agrees(table):
    found = defects(core._reassociation_defects, table)
    assert found == defects(reference.cellwise_reassociation_defects, table)
    assert found == defects(reference.rowwise_reassociation_defects, table)
    # A consumer that stops at the first defect, then a whole scan that
    # shares its cell expansions.
    elements = core._Elements()
    assert next(core._reassociation_defects(table, elements), None) \
        == (found[0] if found else None)
    assert list(core._reassociation_defects(table, elements)) == found


def shifted(mul):
    """The value table as a table of singleton masks."""
    return tuple(tuple(1 << v for v in row) for row in mul)


def assert_associativity_agrees(r):
    found = core._associativity_defect(r.mul)
    assert found == reference.associativity_defect(r.mul)
    assert reference.rowwise_mul_associativity(r) \
        == (found and tuple(r.names[i] for i in found))


def assert_multiring_agrees(r):
    assert core.check_multiring(r) == reference.cellwise_check_multiring(r)
    assert_associativity_agrees(r)
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
            assert_associativity_agrees(r)
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


def monoid_leaves(n, zero, one):
    """Every table the monoid-table search audits at a leaf: the unit and
    zero rows forced, the other cells filled symmetrically in every way."""
    free = [x for x in range(n) if x not in (zero, one)]
    cells = [(x, y) for i, x in enumerate(free) for y in free[i:]]
    for values in itertools.product(range(n), repeat=len(cells)):
        table = [[-1] * n for _ in range(n)]
        for a in range(n):
            table[zero][a] = table[a][zero] = zero
            table[one][a] = table[a][one] = a
        for (x, y), v in zip(cells, values):
            table[x][y] = table[y][x] = v
        yield table


def test_associativity_on_every_monoid_leaf():
    leaves = passing = 0
    for n in (1, 2, 3, 4):
        for zero, one in itertools.permutations(range(n), 2) if n > 1 else [(0, 0)]:
            for table in monoid_leaves(n, zero, one):
                found = core._associativity_defect(table)
                assert found == reference.associativity_defect(table)
                leaves += 1
                passing += found is None
            assert list(_monoid_tables(n, zero, one)) \
                == list(reference_searches._monoid_tables(n, zero, one))
    assert leaves == 1 + 2 + 6 * 3 + 12 * 64 and 0 < passing < leaves


def test_associativity_on_mul_mutants_up_to_the_byte_range():
    """Seeded one-cell changes of mul, on bases up to 64 elements, and the
    value 63 written into Z/64 and K^6."""
    rng = random.Random(16)
    k = core.krasner()
    bases = (core.ring_multiring(64), product([k] * 6), core.ring_multiring(12),
             product([core.q2(), k, k]), aos_to_mfred(fan_aos(3)))
    failing = 0
    for base in bases:
        n = base.size
        cells = [(rng.randrange(n), rng.randrange(n)) for _ in range(40)]
        for i, j in cells:
            for v in {rng.randrange(n), n - 1}:
                mutant = dataclasses.replace(
                    base, mul=_replace_cell(base.mul, i, j, v))
                assert_associativity_agrees(mutant)
                failing += core._associativity_defect(mutant.mul) is not None
    assert failing > 300


def _mul_mutants(base, rng, count, symmetric=False):
    """Seeded copies of base with one mul cell changed, or with one
    off-diagonal pair of cells outside the row of ``base.one`` changed
    alike when ``symmetric``, so that the unit and the squares stay."""
    n = base.size
    others = [x for x in range(n) if x != base.one]
    for _ in range(count):
        if symmetric and len(others) > 1:
            i, j = rng.sample(others, 2)
            mul = _replace_cell(base.mul, i, j, v := rng.randrange(n))
            yield _replace_cell(mul, j, i, v)
        else:
            yield _replace_cell(base.mul, rng.randrange(n), rng.randrange(n),
                                rng.randrange(n))


def test_check_ts_matches_the_moved_audit():
    rng = random.Random(17)
    bases = list(corpus_real_semigroups().values())
    bases.append(rs_product([canonical_3()] * 3))
    failing = 0
    for base in bases:
        assert check_ts(base) == reference.check_ts(base)
        for symmetric in (False, True):
            for mul in _mul_mutants(base, rng, 30, symmetric):
                s = dataclasses.replace(base, mul=mul)
                report = check_ts(s)
                assert report == reference.check_ts(s)
                failing += not report.verdict("TS1-assoc").passed
    assert failing > 100


def _outcome(cls, g, mul):
    """The fields of the group built, or the message of its InputError."""
    try:
        built = cls(g.carrier, mul, g.one, g.minus_one, g.iso)
    except core.InputError as error:
        return str(error)
    return [getattr(built, f.name) for f in dataclasses.fields(built)]


def test_special_group_validation_matches_the_moved_one():
    rng = random.Random(18)
    bases = list(corpus_special_groups().values())
    bases.append(mf_to_sg(aos_to_mfred(fan_aos(4))))
    outcomes = []
    for g in bases:
        for symmetric in (False, True):
            for mul in _mul_mutants(g, rng, 30, symmetric):
                got = _outcome(SpecialGroup, g, mul)
                assert got == _outcome(reference.LoopCheckedSpecialGroup, g, mul)
                outcomes.append(got if isinstance(got, str) else "valid")
    assert outcomes.count("multiplication is not associative") > 50
    assert "valid" in outcomes
