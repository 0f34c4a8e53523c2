"""The reassociation scan, the byte-compare associativity audit and the
multiring audit agree with the versions they replaced.

``reference_audits.cellwise_reassociation_defects`` and
``cellwise_check_multiring`` are the scan and the audit as they were when
each (x, y, z), (a, b, c) and (a, b, d) was probed on its own,
``rowwise_reassociation_defects`` is the scan as it was when x(yz) was read
entry by entry through an ``itemgetter``, and
``transposed_reassociation_defects`` the scan as it was when x(yz) over z
came from lazily transposed column unions.  Here
``core._reassociation_defects`` must yield the same defects in the same
order -- every tuple, not only the first, and the first alone to a consumer
that stops there -- and ``core.check_multiring`` must return an equal
``CheckReport``: on Z/n for n <= 64, on K^k for k <= 6, on every candidate
table of order <= 3 and on seeded single-cell ``add`` and ``mul`` mutants
of Z/8, q2 x K^2 and the fan-3 multifield.  The mutants include
non-commutative cells and, for the scan alone, emptied cells, which
relational tables have.  At the cap, seeded flips of K^6's addition, which
are not symmetric, and K^6 with an emptied cell reach the scan's joined
row unions and its stride over 64 elements; sign spaces of more than 64
functions give entries of two 64-bit words.

``core._CellUnion`` packs lines into ints, and ``core._PackedUnion`` ORs
packed lines; on every table scanned, each union of every cell, rows and
columns, must equal that of the moved tuple version
``reference_audits._CellUnion``.
``check_multiring``'s distributivity witnesses, now the least (b, d) over
rows for each (a, d), must equal those of the moved per-(a, b) loop
``reference_audits.rowwise_distributivity`` on the inputs above, on
two-cell mutants and on tables given as list rows, which a multiring keeps
as tuples.

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
from array import array

import reference_audits as reference
import reference_searches
from multialg import core, spectra
from multialg.constructions import product
from multialg.corpus import corpus_real_semigroups, corpus_special_groups
from multialg.enumeration import _involutions_fixing, _labels, _monoid_tables
from multialg.ordering_spaces import (
    ARS,
    aos_to_mfred,
    check_aos,
    check_ars,
    fan_aos,
    function_label,
    make_sign_space,
    transversal_table,
    value_set_reassociation_check,
    value_table,
)
from multialg.real_semigroups import canonical_3, check_ts, rs_product
from multialg.special_groups import SpecialGroup, mf_to_sg


def defects(scan, table):
    """The defects of a scan; the moved scans take an ``_Elements``."""
    if scan is core._reassociation_defects:
        return list(scan(table))
    return list(scan(table, core._Elements()))


def assert_unions_agree(lines, cells):
    """The cell unions, as tuples and as packed lines, equal the moved tuple
    unions on every cell and on the cell of all lines."""
    elements = core._Elements()
    unions = core._CellUnion.over(lines, elements)
    packed = core._PackedUnion.over([core._CODECS[len(line)].pack(*line) for line in lines])
    moved = reference._CellUnion(zip(core._SINGLETONS, map(tuple, lines)))
    moved.lines, moved.elements = lines, elements
    for cell in [*cells, (1 << len(lines)) - 1]:
        assert unions[cell] == moved[cell] == tuple(array("Q", packed[cell]))


def assert_scan_agrees(table):
    cells = {cell for row in table for cell in row} | {0}
    assert_unions_agree(table, cells)
    assert_unions_agree(list(zip(*table)), cells)
    found = defects(core._reassociation_defects, table)
    assert found == defects(reference.cellwise_reassociation_defects, table)
    assert found == defects(reference.rowwise_reassociation_defects, table)
    assert found == defects(reference.transposed_reassociation_defects, table)
    # The scan as the audits call it, on byte rows for a table of
    # singletons: a consumer that stops at the first defect, then a whole
    # scan.
    rows = core._byte_rows(table)
    assert next(core._reassociation_defects(table, rows), None) \
        == (found[0] if found else None)
    assert list(core._reassociation_defects(table, rows)) == found


def shifted(mul):
    """The value table as a table of singleton masks."""
    return tuple(tuple(1 << v for v in row) for row in mul)


def assert_associativity_agrees(r):
    found = core._associativity_defect(r.mul)
    assert found == reference.associativity_defect(r.mul)
    assert reference.rowwise_mul_associativity(r) \
        == (found and tuple(r.names[i] for i in found))


def assert_distributivity_agrees(r, report=None):
    report = report or core.check_multiring(r)
    assert (report.verdict("distributivity-weak").witness,
            report.verdict("distributivity-full").witness) \
        == reference.rowwise_distributivity(r)


def assert_multiring_agrees(r):
    report = core.check_multiring(r)
    assert report == reference.cellwise_check_multiring(r)
    assert_distributivity_agrees(r, report)
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
            assert_distributivity_agrees(r)
            assert_associativity_agrees(r)
            assert_scan_agrees(r.add)
            assert_scan_agrees(shifted(r.mul))


def single_valued_tables(rng):
    """(r, table) for tables of singletons of 16 to 64 elements: the
    additions of Z/n and Z/2 x Z/32, as shifted value tables, and seeded
    random value tables, neither commutative nor associative, each with the
    ring r whose addition it is or, if random, with Z/n of its size."""
    for n in (16, 17, 24, 32, 48, 64):
        r = core.ring_multiring(n)
        yield r, shifted([[(x + y) % n for y in range(n)] for x in range(n)])
        yield r, shifted([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    r = product([core.ring_multiring(2), core.ring_multiring(32)])
    yield r, r.add


def test_single_valued_tables():
    """A table of singletons is scanned as byte rows: the
    whole defect stream must equal the references' on each table of
    ``single_valued_tables`` and on two one-cell value moves of it.  One
    empty cell, or one cell of two elements, sends the table back to the
    masks."""
    rng = random.Random(38)
    singletons = 0
    for r, table in single_valued_tables(rng):
        n = len(table)
        if table != r.add:
            assert table != tuple(zip(*table)) and defects(core._reassociation_defects, table)
        assert_scan_agrees(table)
        singletons += core._byte_rows(table) is not None
        for _ in range(2):
            i, j = rng.randrange(n), rng.randrange(n)
            value = rng.choice([v for v in range(n) if 1 << v != table[i][j]])
            moved = _replace_cell(table, i, j, 1 << value)
            assert_scan_agrees(moved)
            singletons += core._byte_rows(moved) is not None
            v = moved[j][i].bit_length() - 1
            for cell in (0, moved[j][i] | 1 << (v + 1) % n):
                t = _replace_cell(moved, j, i, cell)
                assert core._byte_rows(t) is None
                assert_scan_agrees(t)
    assert singletons == 13 * 3


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


def test_two_cell_mutants():
    """Seeded two-cell changes of add and mul.  At the first a with a weak
    distributivity failure, a later d row can fail at a smaller b than an
    earlier one; single-cell mutants of these bases never show that, and
    about one in twelve of these does."""
    rng = random.Random(23)
    q2, k = core.q2(), core.krasner()
    bases = (core.ring_multiring(8), product([q2, k, k]), aos_to_mfred(fan_aos(3)))
    failing = 0
    for base in bases:
        n = base.size
        for _ in range(100):
            r = base
            for _ in range(2):
                i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                if rng.random() < 0.5:
                    if r.add[i][j] ^ (1 << v):
                        r = dataclasses.replace(
                            r, add=_replace_cell(r.add, i, j, r.add[i][j] ^ (1 << v)))
                else:
                    r = dataclasses.replace(r, mul=_replace_cell(r.mul, i, j, v))
            assert_distributivity_agrees(r)
            failing += not core.check_multiring(r).verdict("distributivity-weak").passed
    assert failing > 250


def test_tables_as_list_rows():
    """Rows given as lists, as a caller may build them, are kept as tuples,
    so the structure equals and hashes as the tuple one does and the cached
    orderings read it; Z/1 and the one-element candidates cover n = 1."""
    rng = random.Random(17)
    k = core.krasner()
    bases = [core.ring_multiring(n) for n in (1, 2, 3, 8)]
    bases += [k, core.q2(), product([core.q2(), k, k])]
    for base in bases:
        n = base.size
        mutants = [base] + [dataclasses.replace(
            base, mul=_replace_cell(base.mul, rng.randrange(n), rng.randrange(n),
                                    rng.randrange(n))) for _ in range(10)]
        for r in mutants:
            listed = dataclasses.replace(r, add=[list(row) for row in r.add],
                                         mul=[list(row) for row in r.mul],
                                         neg=list(r.neg))
            assert listed == r and hash(listed) == hash(r)
            assert core.check_multiring(listed) == core.check_multiring(r)
            assert_multiring_agrees(listed)
        assert spectra.enumerate_orderings(dataclasses.replace(
            base, add=[list(row) for row in base.add])) == spectra.enumerate_orderings(base)


def assert_full_scan_agrees(table, *scans):
    """The scan equals the moved transposed scan and ``scans``, whole, and
    gives its first defect alone to a consumer that stops there."""
    found = defects(core._reassociation_defects, table)
    for scan in (reference.transposed_reassociation_defects, *scans):
        assert found == defects(scan, table)
    assert next(core._reassociation_defects(table), None) \
        == (found[0] if found else None)
    return found


def test_krasner_power_six_mutants():
    """Twenty seeded flips of one off-diagonal cell of K^6's addition, which
    leave it not symmetric, and K^6 with one emptied cell: 64 elements, the
    cap, so the stride runs over every element and each block x is joined
    from the row unions.  Every mutant fails; the emptied one and the first
    flip are also scanned row by row and cell by cell."""
    rng = random.Random(54)
    add = product([core.krasner()] * 6).add
    mutants = []
    for _ in range(20):
        i, j = rng.sample(range(64), 2)
        mutants.append(_replace_cell(add, i, j, add[i][j] ^ 1 << rng.randrange(64)))
    mutants.append(_replace_cell(add, *rng.sample(range(64), 2), 0))
    for i, table in enumerate(mutants):
        assert table != tuple(zip(*table))
        assert assert_full_scan_agrees(table, *(
            (reference.rowwise_reassociation_defects,
             reference.cellwise_reassociation_defects) if i in (0, 20) else ()))


def test_sign_space_tables_beyond_the_cap():
    """A sign space may have more functions than the carrier cap, and its
    tables masks wider than 64 bits: entries of two 64-bit words.  The fan
    on seven points (128 functions) passes, and its whole value table
    scans clean, but not with one bit past 64 flipped.  On two of its
    subsets of more than 64 functions the scan equals the moved scans, and
    the AX3 and value-set witnesses come from its first defects; on the
    three-valued space of all 81 sign vectors on four points less one, the
    transversal scan equals them and AX3 fails."""
    fan = fan_aos(7)
    assert fan.nfunctions > core.CARRIER_CAP
    assert check_aos(fan).overall and value_set_reassociation_check(fan).overall
    table = value_table(fan)
    assert assert_full_scan_agrees(table) == []
    # Bit 100 flipped in one cell: at 64 of the 112 x that fail, the two
    # sides differ in the high word alone.
    assert assert_full_scan_agrees(_replace_cell(table, 3, 5, table[3][5] ^ 1 << 100))
    for keep in (fan.functions[1:73], fan.functions[:5] + fan.functions[6:80]):
        s = make_sign_space(fan.mode, fan.points, keep)
        found = assert_full_scan_agrees(value_table(s), reference.rowwise_reassociation_defects)
        assert found
        ax3 = next(((a, b, c, core._lowest_bit(right & ~left))
                    for a, b, c, left, right in found if right & ~left), None)
        for verdict, want in ((check_aos(s).verdict("AX3-associativity"), ax3),
                              (value_set_reassociation_check(s).verdicts[0], found[0][:3])):
            assert verdict.witness == (want and tuple(
                function_label(s.functions[i]) for i in want))

    vectors = list(itertools.product((-1, 0, 1), repeat=4))
    s = make_sign_space(ARS, ["p0", "p1", "p2", "p3"], vectors[:40] + vectors[41:])
    assert_full_scan_agrees(transversal_table(s), reference.rowwise_reassociation_defects)
    assert not check_ars(s).verdict("AX3-strong-associativity").passed


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
