"""Distributivity checked at the generators of the multiplication.

With mul associative, write m_d(x) = xd; then m_de = m_e after m_d, so
(a+b)de = m_e((a+b)d) lies in m_e(ad+bd), which lies in ade+bde, and each
inclusion is an equality in the full case.  Both distributivity verdicts
therefore pass as soon as they pass at a set of elements that generates
(R, .).  ``core.check_multiring`` runs the distributivity scan
``_distributivity_defects`` over the columns of such a set, given by
``core._generators``, above 16 elements when its own mul-associativity
verdict passed, and reads a ``(None, None)`` result as a pass; otherwise,
and whenever that pre-check fails, the scan over every column names the
witnesses.

Pinned here:
- on every (mul, add) pair of orders 2-4 (``_monoid_tables`` x
  ``_multigroup_slice``), the pre-check, called below its threshold, gives
  the verdict of the moved pre-check ``reference_audits._distributes_at``
  and passes exactly when the full scan finds no defect;
- the scaling rows over given columns (single ones, all of them reversed
  and the generators) are the images and gathered sums they stand for;
- ``_generators`` is the greedy choice it documents, recomputed with a
  naive product closure, and its products reach every element, on Z/17 to
  Z/64, K^5, K^6, q2^3 and the fan-4 and fan-5 multifields;
- ``check_multiring`` gives the distributivity witnesses of the rowwise
  reference and, where it is fast enough, the reports of the cellwise one,
  on those structures and on seeded single-cell mutants of Z/32, q2^3 and
  the fan-5 multifield.  The ``add`` mutants keep mul associative and reach the full
  scan when the pre-check fails; the ``mul`` mutants that break
  associativity never call the pre-check, and neither does an addition
  read as byte rows (every cell a singleton, as in Z/64 and F_64), where
  the full scan costs no more than the pre-check.
"""

import dataclasses
import random

import reference_audits as reference
from test_finite_fields import finite_fields
from multialg import core
from multialg.constructions import product
from multialg.corpus import q2cube
from multialg.enumeration import _monoid_tables, _multigroup_slice
from multialg.ordering_spaces import aos_to_mfred, fan_aos

K = core.krasner()
STRUCTURES = {
    **{f"Z/{n}": core.ring_multiring(n) for n in range(17, 65)},
    "K^5": product([K] * 5),
    "K^6": product([K] * 6),
    "q2^3": q2cube(),
    "fan4mf": aos_to_mfred(fan_aos(4)),
    "fan5mf": aos_to_mfred(fan_aos(5)),
}
# The full reference audit costs 0.4-0.8 s on K^6 and Z/64; every structure
# is checked against the rowwise distributivity reference, these against the
# whole reference report too.
CELLWISE = ("Z/17", "Z/32", "K^5", "q2^3", "fan4mf", "fan5mf")


def _products(mul, members: set) -> set:
    """The least set holding ``members`` and xy for x, y in it."""
    out = set(members)
    while True:
        grown = out | {mul[x][y] for x in out for y in out}
        if grown == out:
            return out
        out = grown


def _naive_generators(mul) -> list:
    n = len(mul)
    taken, reached = [], set()
    for d in sorted(range(n), key=lambda d: (-len(set(mul[d])), d)):
        if len(reached) == n:
            break
        if d not in reached:
            taken.append(d)
            reached = _products(mul, set(taken))
    return taken


def test_pre_check_decides_full_distributivity_on_small_pairs():
    outcomes = {True: 0, False: 0}
    for n in (2, 3, 4):
        adds = [m.op for m in _multigroup_slice(n)]
        for mul in _monoid_tables(n, 0, 1):
            gens = core._generators(mul)
            for add in adds:
                passed = core._distributivity_defects(
                    add, mul, gens, core._Elements()) == (None, None)
                assert passed == reference._distributes_at(add, mul, gens,
                                                           core._Elements())
                assert passed == (core._distributivity_defects(add, mul)
                                  == (None, None))
                outcomes[passed] += 1
    assert outcomes == {True: 38, False: 7419}


def test_scaling_rows_over_given_columns():
    """The kernel's rows over a given list of columns, a single column
    included, are (T(b, c)e)_c and (T(be, ce))_c for each e in that order."""
    tables = [(m.op, mul) for n in (2, 3) for mul in _monoid_tables(n, 0, 1)
              for m in _multigroup_slice(n)]
    tables += [(r.add, r.mul) for r in (core.ring_multiring(1), STRUCTURES["Z/17"],
                                        STRUCTURES["q2^3"])]
    for add, mul in tables:
        n = len(mul)
        for columns in ([e] for e in range(n)), [list(range(n))[::-1]], [core._generators(mul)]:
            for cols in columns:
                rows = [(list(lefts), rights) for lefts, rights in
                        core._scaling_rows(add, mul, cols, core._Elements())]
                assert rows == [(
                    [tuple(sum({1 << mul[x][e] for x in range(n) if add[b][c] >> x & 1})
                           for c in range(n)) for e in cols],
                    [tuple(add[mul[b][e]][mul[c][e]] for c in range(n)) for e in cols])
                    for b in range(n)]


def test_generators_reach_every_element():
    for name, r in STRUCTURES.items():
        gens = core._generators(r.mul)
        assert gens == _naive_generators(r.mul), name
        assert _products(r.mul, set(gens)) == set(range(r.size)), name
    named = {name: [STRUCTURES[name].names[g] for g in core._generators(
        STRUCTURES[name].mul)] for name in ("Z/64", "K^6")}
    assert named["Z/64"] == ["1", "3", "5", "2"]
    assert len(named["K^6"]) == 7
    assert [len(core._generators(STRUCTURES[name].mul)) for name in
            ("Z/32", "q2^3", "fan4mf", "fan5mf")] == [4, 6, 5, 6]


def _witnesses(report: core.CheckReport) -> tuple:
    return (report.verdict("distributivity-weak").witness,
            report.verdict("distributivity-full").witness)


def test_reports_match_the_references():
    for name, r in STRUCTURES.items():
        report = core.check_multiring(r)
        assert report.overall, name
        assert _witnesses(report) == reference.rowwise_distributivity(r), name
        if name in CELLWISE:
            assert report == reference.cellwise_check_multiring(r), name


def _mutant(base, rng):
    """One seeded single-cell change of ``add`` (a bit flipped, the cell
    kept nonempty) or ``mul`` (a product replaced), as (table, multiring)."""
    n = base.size
    while True:
        i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        table = rng.choice(("add", "mul"))
        rows = [list(row) for row in getattr(base, table)]
        cell = rows[i][j] ^ (1 << v) if table == "add" else v
        if cell and cell != rows[i][j]:
            rows[i][j] = cell
            return table, dataclasses.replace(base, **{table: tuple(map(tuple, rows))})


def test_mutants_match_the_references(monkeypatch):
    calls = []  # the pass or fail of each pre-check, a scan over given columns
    scan = core._distributivity_defects

    def counted(add, mul, columns=None, elements=None, rows=None):
        found = scan(add, mul, columns, elements, rows)
        if columns is not None:
            calls.append(found == (None, None))
        return found

    monkeypatch.setattr(core, "_distributivity_defects", counted)
    for r in (STRUCTURES["Z/64"], finite_fields.finite_field(64)):
        report = core.check_multiring(r)
        assert report.overall and calls == []
        assert _witnesses(report) == reference.rowwise_distributivity(r)
    rng = random.Random(34)
    seen = {"add": 0, "mul": 0, "fallback": 0, "bytes": 0}
    for name in ("Z/32", "q2^3", "fan5mf"):
        for i in range(30):
            table, r = _mutant(STRUCTURES[name], rng)
            calls.clear()
            report = core.check_multiring(r)
            assert _witnesses(report) == reference.rowwise_distributivity(r)
            # The cellwise reference takes 20-90 ms a mutant.
            if i < 6:
                assert report == reference.cellwise_check_multiring(r)
            associative = report.verdict("mul-associativity").passed
            singletons = all(c & (c - 1) == 0 for row in r.add for c in row)
            assert len(calls) == (associative and not singletons)
            if table == "add":
                assert associative
                seen["add"] += 1
                seen["fallback"] += calls == [False]
            else:
                seen["mul"] += not associative
            seen["bytes"] += singletons
    assert seen["add"] > 30 and seen["mul"] > 30 and seen["fallback"] > 20
    assert seen["bytes"] > 5
