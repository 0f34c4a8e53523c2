"""check_smf on group lookups and mf_to_sg on product-fiber masks agree with
the quadruple scan.

``reference_audits`` holds ``check_smf`` as it was when properties iii-v
scanned every quadruple of nonzero elements, v through ``_smf_block`` with up
to n^3 steps per quadruple, and ``mf_to_sg`` as it was when it scanned every
quadruple for its isometry list.  The library's versions must give equal
``CheckReport``s -- verdicts and first witnesses -- and equal special groups,
closure counts and raw relations, element for element, on the corpus
multifields, the fan multifields on 1-4 points, the multifields of the
square classes of F_p for p <= 13, Z/p for p <= 13 and every multifield of
order <= 3.  The same holds on mutants: the multifields of special groups
whose isometry relation gained one seeded quadruple and was closed again,
and every symmetric single-cell change of the addition (one bit) or of the
multiplication (one product) of the fan-1..3 multifields and of Z/3, Z/5
and Z/7.  Where a mutant is no multiring, or no multifield, both sides must
raise the same ``InputError``; ``mf_to_sg`` still runs on those, and on the
changed products its fibers hold more than one element.  Each raw relation
``mf_to_sg`` closes is also closed by the union-find ``_close_iso`` of
``reference_audits``, with the same relation and count of added quadruples.

At the cap the quadruple scan is out of reach, so ``check_smf`` is also
pinned to ``reference_audits.split_row_check_smf``, which read iii and iv
from the fiber and membership masks, built property v's split masks per
(a, c) from them and scanned every (a, b, c).  The inputs are F_32, F_49 and F_64 from the fixture, Z/p for
every prime p <= 61, the sum-5 multifield, every multifield of order 4
with zero e0 and one e1 (the enumeration's slice: every class of order 4 has
a member there), and seeded shuffles of F_49, Z/61 and the sum-5 multifield,
whose first nonzero element is not 1, so that the product fibres come in
another order.  Between them they give 21 distinct property-v witnesses.
"""

import dataclasses
import itertools

import pytest

import reference_audits as reference
from multialg import special_groups as spg
from multialg.core import InputError, classify, ring_multiring
from multialg.corpus import corpus_multifields, corpus_special_groups
from multialg.enumeration import _multiring_slice, enumerate_structures
from multialg.ordering_spaces import aos_to_mfred, fan_aos
from test_finite_fields import finite_fields
from test_search_kernel import shuffled
from test_triple_relation import _mutants

PRIMES = (2, 3, 5, 7, 11, 13)


def _multifields() -> dict:
    named = {f"fan{k}": aos_to_mfred(fan_aos(k)) for k in (1, 2, 3, 4)}
    named.update(corpus_multifields())
    for name, g in corpus_special_groups().items():
        named[f"mf_{name}"] = spg.sg_to_mf(g)
    for p in PRIMES[1:]:
        named[f"mf_f{p}"] = spg.sg_to_mf(spg.sg_of_finite_field(p))
    for p in PRIMES:
        named[f"z{p}"] = ring_multiring(p)
    for order in (1, 2, 3):
        for up_to_iso in (True, False):
            for i, f in enumerate(enumerate_structures("multifield", order,
                                                       up_to_iso=up_to_iso)):
                named[f"mf{order}{'iso' if up_to_iso else ''}_{i}"] = f
    first: dict = {}
    for name, f in named.items():
        first.setdefault(f, name)
    return {name: f for f, name in first.items()}


MULTIFIELDS = _multifields()


def _iso_mutants() -> list:
    """The multifields of re-closed isometry mutants of the corpus groups,
    the fan-1..3 groups and the square classes of F_p, p <= 13."""
    groups = dict(corpus_special_groups())
    for k in (1, 2, 3):
        groups[f"fan{k}"] = spg.mf_to_sg(aos_to_mfred(fan_aos(k)))
    for p in PRIMES[1:]:
        groups[f"f{p}"] = spg.sg_of_finite_field(p)
    return [spg.sg_to_mf(h) for name, g in sorted(groups.items())
            for h in _mutants(g, name, 20)]


def _cell_mutants(base) -> list:
    """Every symmetric single-cell change: one bit of an addition cell
    flipped, leaving it nonempty, or one product replaced."""
    out = []
    for i, j in itertools.combinations_with_replacement(range(base.size), 2):
        flips = (base.add[i][j] ^ (1 << v) for v in range(base.size))
        changes = [("add", cell) for cell in flips if cell] \
            + [("mul", v) for v in range(base.size) if v != base.mul[i][j]]
        for table, cell in changes:
            rows = [list(row) for row in getattr(base, table)]
            rows[i][j] = rows[j][i] = cell
            out.append(dataclasses.replace(base, **{table: tuple(map(tuple, rows))}))
    return out


def _outcome(call, f):
    try:
        return call(f)
    except InputError as exc:
        return "InputError", str(exc)


def _sg_outcome(module, f, monkeypatch) -> tuple:
    """mf_to_sg's group, closure count and the relations it hands to
    ``special_groups._close_iso``, each with its size and as index
    quadruples in scan order, or its InputError.  The reference reaches
    ``_close_iso`` through the library's ``make_special_group``.  The library
    keeps one group per structure object, so f is a fresh equal copy."""
    f = dataclasses.replace(f)
    raws: list = []
    close = spg._close_iso

    def capture(n, raw):
        raws.append((n, list(raw)))
        return close(*raws[-1])

    monkeypatch.setattr(spg, "_close_iso", capture)
    g = _outcome(module.mf_to_sg, f)
    monkeypatch.undo()
    if isinstance(g, spg.SpecialGroup):
        return g, g.closure_added, raws
    return g, raws


def _assert_agrees(f, label, monkeypatch):
    report = _outcome(spg.check_smf, f)
    assert report == _outcome(reference.check_smf, f), label
    outcome = _sg_outcome(spg, f, monkeypatch)
    assert outcome == _sg_outcome(reference, f, monkeypatch), label
    for n, raw in outcome[-1]:
        assert spg._close_iso(n, raw) == reference._close_iso(n, raw), label
    return report


@pytest.mark.parametrize("name", sorted(MULTIFIELDS))
def test_reports_and_groups_match_reference(name, monkeypatch):
    report = _assert_agrees(MULTIFIELDS[name], name, monkeypatch)
    assert not isinstance(report, tuple), name


def test_iso_mutants_match_reference(monkeypatch):
    for i, f in enumerate(_iso_mutants()):
        _assert_agrees(f, i, monkeypatch)


@pytest.mark.parametrize("name", ["fan1", "fan2", "fan3", "z3", "z5", "z7"])
def test_cell_mutants_match_reference(name, monkeypatch):
    raised = 0
    for i, f in enumerate(_cell_mutants(MULTIFIELDS[name])):
        raised += isinstance(_assert_agrees(f, (name, i), monkeypatch), tuple)
    assert raised, name


def test_every_property_fails_on_some_input():
    failed = set()
    for f in list(MULTIFIELDS.values()) + _iso_mutants() \
            + _cell_mutants(MULTIFIELDS["fan2"]) + _cell_mutants(MULTIFIELDS["z5"]):
        report = _outcome(spg.check_smf, f)
        if not isinstance(report, tuple):
            failed |= {v.axiom for v in report.failures()}
    assert failed == {"i-unit-squares", "ii-full-opposite-sums", "iii-symmetry",
                      "iv-transitivity", "v-triple-split-swap"}


def _cap_multifields() -> dict:
    named = {f"f{q}": finite_fields.finite_field(q) for q in (32, 49, 64)}
    named.update((f"z{p}", ring_multiring(p)) for p in range(2, 62)
                 if all(p % d for d in range(2, p)))
    named["sum5"] = aos_to_mfred(fan_aos(5))
    order4 = (r for r in _multiring_slice(4) if classify(r).multifield)
    named.update((f"mf4_{i}", r) for i, r in enumerate(order4))
    for name in ("f49", "z61", "sum5"):  # 1 is not the first nonzero element
        named[f"{name}_shuffled"] = shuffled(named[name], 43)
    return named


CAP_MULTIFIELDS = _cap_multifields()


@pytest.mark.parametrize("name", sorted(CAP_MULTIFIELDS))
def test_reports_match_split_rows_at_the_cap(name):
    f = CAP_MULTIFIELDS[name]
    assert spg.check_smf(f) == reference.split_row_check_smf(f), name


def test_split_witnesses_at_the_cap():
    witnesses = {spg.check_smf(f).verdict("v-triple-split-swap").witness
                 for f in CAP_MULTIFIELDS.values()}
    assert len(witnesses - {None}) == 21
    assert len(CAP_MULTIFIELDS) == 34
