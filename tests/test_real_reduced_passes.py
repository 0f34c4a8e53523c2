"""Passes on the real reduced path decided by one table-level test.

The library decides each of these passes by one exact test on whole tables
or rows, and walks elements only to name a failure:
- RS2 in ``check_rs`` and iii in ``check_rs_derived`` pass, above 16
  elements with an associative multiplication, when the scaling condition
  holds at the generators of the multiplication
  (``core._holds_at_generators``);
- RS4 compares one row of unions per a with row a of D;
- RS6 and xvii read the square-transversal rows of D^t kept on the
  structure (``_lifted_rows``), which ``mrred_to_rs`` keeps as D itself;
- xvi takes the least failing a from one mask per row of the reassociation
  scan of D;
- ``mrred_to_ars`` compares the transversal table, read through the
  evaluation index, with the addition a row at a time;
- ``Ordering`` and ``Preordering`` test closure under sums and products on
  whole rows.

Pinned here, on every real semigroup above 16 elements that the tests
build (rs3^3 and the images of q2^3 and of the sum-4 and sum-5
multifields), their seeded one-cell D mutants and multiplication mutants
that break TS1-assoc: each report equals the one with the generator test
turned off, and the affected verdicts equal the naive ones of
``reference_audits`` (RS2, RS6, iii and xvii verbatim; RS4 and xvi through
naive loops over the cells that can fail, which the rs3 x rs3 mutant pool
pins to the verbatim loops).  ``mrred_to_ars`` and the cones are pinned to
the moved loops ``reference_audits.pairwise_mrred_to_ars``,
``LoopCheckedOrdering`` and ``LoopCheckedPreordering``.
"""

import collections
import dataclasses
import random
from functools import lru_cache

import pytest

import reference_audits as reference
from test_audit_kernel import DERIVED_MUTANTS, _edited
from test_distributivity_generators import _naive_generators
from test_rs_masks import rs3x3_mutants
from multialg import core, ordering_spaces, real_semigroups
from multialg.core import InputError, krasner, q2, ring_multiring
from multialg.corpus import corpus_real_reduced_multirings, q2cube, q2xq2
from multialg.ordering_spaces import aos_to_mfred, fan_aos
from multialg.real_semigroups import (
    _lifted_rows,
    _square_transversals,
    canonical_3,
    check_rs,
    check_rs_derived,
    dt_table,
    mrred_to_rs,
    rs_product,
)
from multialg.spectra import Ordering, Preordering, enumerate_orderings

GATED = ("RS2-scaling", "iii-transversal-scaling")


@lru_cache(maxsize=None)
def bases():
    return {"rs3^3": rs_product([canonical_3()] * 3),
            "q2^3": mrred_to_rs(q2cube()),
            "sum-4": mrred_to_rs(aos_to_mfred(fan_aos(4))),
            "sum-5": mrred_to_rs(aos_to_mfred(fan_aos(5)))}


def _with(table, b, c, v):
    return tuple(row if x != b else row[:c] + (v,) + row[c + 1:]
                 for x, row in enumerate(table))


def mutants(s, seed, d_count, mul_count):
    """One-cell D mutants, every other one mirrored so that RS0 can hold,
    and commutative multiplication mutants that break TS1-assoc."""
    rng = random.Random(seed)
    n = s.size
    out = []
    for k in range(d_count):
        b, c, a = (rng.randrange(n) for _ in range(3))
        d = _with(s.d, b, c, s.d[b][c] ^ (1 << a))
        if k % 2:
            d = _with(d, c, b, d[b][c])
        out.append(dataclasses.replace(s, d=d))
    while len(out) < d_count + mul_count:
        b, c, x = (rng.randrange(n) for _ in range(3))
        mul = _with(_with(s.mul, b, c, x), c, b, x)
        if core._associativity_defect(mul) is not None:
            out.append(dataclasses.replace(s, mul=mul))
    return out


def test_pass_decisions_equal_the_full_scans(monkeypatch):
    """Every report equals the one whose RS2 and iii scan every column; the
    generator test passes on the bases, fails on mutants that break the
    condition, and finds no generators when TS1-assoc fails."""
    gate = real_semigroups._holds_at_generators
    generators = core._generators
    decided = collections.Counter()
    found = []

    def recorded(*args, **kwargs):
        held = gate(*args, **kwargs)
        decided[held] += 1
        return held

    def counted(mul):
        found.append(mul)
        return generators(mul)

    monkeypatch.setattr(core, "_generators", counted)
    failed = collections.Counter()
    for name, base in bases().items():
        for i, s in enumerate([base] + mutants(base, len(name), 10, 3)):
            decided.clear()
            found.clear()
            monkeypatch.setattr(real_semigroups, "_holds_at_generators", recorded)
            fast = check_rs(s), check_rs_derived(s)
            monkeypatch.setattr(real_semigroups, "_holds_at_generators",
                                lambda *args, **kwargs: False)
            assert (check_rs(s), check_rs_derived(s)) == fast, (name, i)
            associative = fast[0].verdict("TS1-assoc").passed
            if i == 0:
                assert fast[0].overall and fast[1].overall
                assert decided == {True: 2} and len(found) == 2
            elif i > 10:
                assert not associative and not found and decided == {False: 2}
            for report in fast:
                failed.update(v.axiom for v in report.failures()
                              if v.axiom in GATED and associative)
    assert failed["RS2-scaling"] >= 10 and failed["iii-transversal-scaling"] >= 10


def closed_flip(s, b, c, a, kept):
    """s with a added to D(b, c) and then am to D(bm, cm) for every m of
    the monoid that ``kept`` generates: RS2 holds at every column of that
    monoid, and can fail only at the others."""
    mul = s.mul
    monoid = new = {s.one}
    while new:
        new = {mul[m][g] for m in new for g in kept} - monoid
        monoid = monoid | new
    rows = [list(row) for row in s.d]
    for m in monoid:
        rows[mul[b][m]][mul[c][m]] |= 1 << mul[a][m]
    return dataclasses.replace(s, d=tuple(map(tuple, rows)))


def test_failures_outside_the_closure_of_all_but_one_generator():
    """D mutants that meet RS2 at every product of all generators but the
    last: the generator test must fail them, and RS2 names the naive
    witness."""
    rng = random.Random(55)
    missed = 0
    for name in ("rs3^3", "q2^3"):
        s = bases()[name]
        gens = _naive_generators(s.mul)
        for _ in range(8):
            b, c, a = (rng.randrange(s.size) for _ in range(3))
            mutant = closed_flip(s, b, c, a, gens[:-1])
            witness = check_rs(mutant).verdict("RS2-scaling").witness
            assert witness == reference._rs2_witness(mutant)
            missed += witness is not None and core._distributivity_defects(
                mutant.d, s.mul, gens[:-1])[0] is None
    assert missed >= 5


def assert_naive_verdicts(s):
    rs, derived = check_rs(s), check_rs_derived(s)
    assert rs.verdict("RS2-scaling").witness == reference._rs2_witness(s)
    assert rs.verdict("RS4-square-cancel").witness == reference.squarewise_rs4_witness(s)
    assert rs.verdict("RS6-transversal-lift").witness == reference._rs6_witness(s)
    for verdict in reference.check_rs_derived(
            s, only={"iii-transversal-scaling", "xvii-square-transversal"}).verdicts:
        assert derived.verdict(verdict.axiom) == verdict
    assert derived.verdict("xvi-weak-associativity").witness \
        == reference.cellwise_xvi_witness(s)
    return rs, derived


@pytest.mark.parametrize("name", ["rs3^3", "q2^3", "sum-4", "sum-5"])
def test_pass_decisions_match_the_naive_verdicts(name):
    base = bases()[name]
    failed = collections.Counter()
    for s in [base] + mutants(base, len(name) + 1, 3, 1):
        for report in assert_naive_verdicts(s):
            failed.update(v.axiom for v in report.failures())
    assert failed["RS2-scaling"] and failed["xvi-weak-associativity"]


def test_naive_loops_over_cells_on_the_small_pool():
    """The RS4 and xvi loops over the cells that can fail give the verbatim
    loops' witnesses, and the library's xvi gives them too, on the rs3 x
    rs3 mutant pool and the pinned consequence mutants.  The verbatim RS4
    is the library's there (``test_rs_masks.test_rs3x3_mutants``)."""
    pool = list(rs3x3_mutants(200, 18))
    three = canonical_3()
    pool += [_edited(three, edits) for edits in DERIVED_MUTANTS["rs3"]]
    pool += [_edited(rs_product([three] * 2), edits) for edits in DERIVED_MUTANTS["rs3x3"]]
    witnesses = set()
    for s in pool:
        (naive,) = reference.check_rs_derived(s, only={"xvi-weak-associativity"}).verdicts
        assert reference.cellwise_xvi_witness(s) == naive.witness
        assert check_rs_derived(s).verdict(naive.axiom) == naive
        assert reference.squarewise_rs4_witness(s) \
            == check_rs(s).verdict("RS4-square-cancel").witness
        witnesses.add(naive.witness)
    # failures at several least a, the least at a = 0 among them
    assert len({w[0] for w in witnesses if w}) >= 4 and len(witnesses) >= 30


def test_kept_square_transversal_rows():
    """``mrred_to_rs`` keeps D as the square-transversal rows of D^t; they
    are those rows, recomputed on a copy that keeps nothing."""
    for name in ("q2^3", "sum-4", "sum-5"):
        s = bases()[name]
        assert _lifted_rows(s) is s.d
        fresh = dataclasses.replace(s)
        assert _lifted_rows(fresh) == tuple(_square_transversals(dt_table(fresh), s.mul)) \
            == s.d


def test_rows_are_kept_only_after_the_transversal_check(monkeypatch):
    """D stands for the rows only once D^t is checked to be the addition:
    an image whose check fails (here through a D^t made to differ) keeps
    nothing."""
    built = []

    class Recorded(real_semigroups.RealSemigroup):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(real_semigroups, "RealSemigroup", Recorded)
    monkeypatch.setattr(real_semigroups, "dt_table", lambda s: ())
    with pytest.raises(core.StructuralAnomaly):
        mrred_to_rs(dataclasses.replace(q2cube()))  # a copy that keeps no image
    assert len(built) == 1 and not [key for key in vars(built[0]) if "." in key]


def real_reduced_rings():
    rings = list(corpus_real_reduced_multirings().values())
    return rings + [q2(), q2xq2(), q2cube()] + [aos_to_mfred(fan_aos(k)) for k in (3, 4, 5)]


def test_evaluation_space_rows(monkeypatch):
    """``mrred_to_ars`` equals the moved pair loop on the real reduced
    multirings and, with one seeded cell of the transversal table flipped,
    names the same first (x, y)."""
    rng = random.Random(55)
    table = ordering_spaces.transversal_table
    witnesses = set()
    for a in real_reduced_rings():
        assert ordering_spaces.mrred_to_ars(a) == reference.pairwise_mrred_to_ars(a)
        for _ in range(6):
            i, j, k = (rng.randrange(64) for _ in range(3))

            def flipped(space, i=i, j=j, k=k):
                rows = [list(row) for row in table(space)]
                m = len(rows)
                rows[i % m][j % m] ^= 1 << (k % m)
                return tuple(map(tuple, rows))

            monkeypatch.setattr(ordering_spaces, "transversal_table", flipped)
            space, report = ordering_spaces.mrred_to_ars(a)
            assert (space, report) == reference.pairwise_mrred_to_ars(a)
            witnesses.add(report.verdict("transversal-matches-addition").witness)
            monkeypatch.setattr(ordering_spaces, "transversal_table", table)
    assert None not in witnesses and len(witnesses) >= 40


def outcome(build, a, mask):
    try:
        build(a, mask)
    except InputError as exc:
        return str(exc)
    return None


def test_cones_by_rows():
    """Ordering and Preordering accept and refuse exactly the masks the
    moved pair loops do, with the same message, on every mask of the
    smaller multirings and seeded masks and the orderings of the larger."""
    rng = random.Random(55)
    rings = real_reduced_rings() + [krasner()] + [ring_multiring(n) for n in (4, 6, 12)]
    messages = collections.Counter()
    for a in rings:
        n = a.size
        masks = range(1 << n) if n <= 9 else [rng.getrandbits(n) for _ in range(300)]
        grown = [o.positive for o in enumerate_orderings(a)]
        # each ordering with one element added or removed
        grown += [p ^ (1 << rng.randrange(n)) for p in grown]
        for p in [*masks, *grown]:
            for library, moved in ((Ordering, reference.LoopCheckedOrdering),
                                   (Preordering, reference.LoopCheckedPreordering)):
                message = outcome(library, a, p)
                assert message == outcome(moved, a, p), (a.names, p)
                messages[message] += 1
    assert messages["cone not closed under sums"] > 1000
    assert messages["cone not closed under products"] > 100
    assert messages[None] > 20
