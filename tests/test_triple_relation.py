"""The one triple-isometry relation agrees with the pairwise reference.

``reference_audits`` holds the special-group witnesses as they were when
SG6 and SG8 each built the triple-isometry rows pair by pair through the
cached closure of ``_triple_iso_tables`` and SG9 called that closure n^4
times.  ``check_sg``, ``check_sg789`` and ``check_reduced`` must return
equal ``CheckReport``s -- verdicts and first witnesses -- on the corpus
groups, the fan groups of at most 8 elements, the square classes of small
prime fields, the special group of every multifield of order <= 3 that has
one, and seeded mutants of each: one random quadruple added to the isometry
relation and re-closed.  On the 16-element fan-4 group, where the reference
SG6 alone takes seconds, a seeded sample of relation rows and triple pairs
is compared instead.

``_pair_classes``, which groups the isometry relation by target pair, must
give the same classes and representation masks as the reference's scan of
the whole relation per class, on the corpus groups, the fan-3, fan-4 and
fan-5 groups and seeded mutants of their relations, re-closed or not.
On the same inputs ``check_psg`` must return the report of the moved audit
``reference_audits.check_psg``; so must it at the 32-element cap on the
true fan-5 group and the trivial group of order 32, next to the sum-5 group
above, and on re-closed mutants of the sum-4 group that fail SG5.  SG5
compares, per quadruple, the tuples of the classes of the two pairs'
translates, so its e is the first index where they differ; the reference
tried each e in turn.
"""

import itertools
import random

import pytest

import reference_audits as reference
from multialg import special_groups as spg
from multialg.core import InputError
from multialg.corpus import corpus_special_groups
from multialg.enumeration import enumerate_structures
from multialg.ordering_spaces import aos_to_mfred, fan_aos
from test_audit_kernel import true_fan


def _groups() -> dict:
    named = dict(corpus_special_groups())
    for k in (1, 2, 3):
        named[f"fan{k}"] = spg.mf_to_sg(aos_to_mfred(fan_aos(k)))
    for p in (3, 5, 7, 11, 13):
        named[f"f{p}"] = spg.sg_of_finite_field(p)
    for order in (1, 2, 3):
        for up_to_iso in (True, False):
            for i, f in enumerate(enumerate_structures("multifield", order,
                                                       up_to_iso=up_to_iso)):
                try:
                    named[f"mf{order}{'iso' if up_to_iso else ''}_{i}"] = spg.mf_to_sg(f)
                except InputError:  # not of exponent 2
                    pass
    first: dict = {}
    for name, g in named.items():
        first.setdefault(g, name)
    return {name: g for g, name in first.items()}


GROUPS = _groups()


def _mutants(g, seed: str, count: int = 30) -> list:
    """Copies of g with one seeded quadruple added to the isometry relation
    and the relation closed again."""
    rng = random.Random(seed)
    n = g.size
    out = []
    for _ in range(count):
        q = tuple(rng.randrange(n) for _ in range(4))
        iso, added = spg._close_iso(n, g.iso | {q})
        out.append(spg.SpecialGroup(g.carrier, g.mul, g.one, g.minus_one, iso, added))
    return out


def _reports(module, g) -> tuple:
    return module.check_sg(g), module.check_sg789(g), module.check_reduced(g)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_reports_match_reference(name):
    g = GROUPS[name]
    # the reference builds k^2 row entries per input, k = 8 * ncls at n = 8
    for h in [g] + _mutants(g, name, 30 if g.size <= 4 else 10):
        assert _reports(spg, h) == _reports(reference, h), name
        reference._triple_iso_tables.cache_clear()


def test_sg6_sg8_and_sg9_each_fail_on_some_mutant():
    failed = set()
    for name, g in GROUPS.items():
        for h in _mutants(g, name):
            failed |= {v.axiom for v in spg.check_sg789(h).failures()}
    assert {"SG6", "SG8", "SG9"} <= failed


def _triple_pair_agrees(g, ncls, rows, t1, t2) -> bool:
    cls, _ = spg._pair_classes(g)
    i = t1[0] * ncls + cls[t1[1]][t1[2]]
    j = t2[0] * ncls + cls[t2[1]][t2[2]]
    return bool((rows[i] >> j) & 1) == reference.triple_iso(g, t1, t2)


@pytest.mark.parametrize("name", sorted(n for n, g in GROUPS.items() if g.size <= 4))
def test_relation_is_triple_iso_on_every_triple_pair(name):
    g = GROUPS[name]
    for h in [g] + _mutants(g, name, 5):
        ncls, rows = spg._triple_relation(h)
        triples = list(itertools.product(range(h.size), repeat=3))
        assert all(_triple_pair_agrees(h, ncls, rows, t1, t2)
                   for t1, t2 in itertools.product(triples, repeat=2)), name
        reference._triple_iso_tables.cache_clear()


def test_fan4_relation_rows_match_reference():
    g = spg.mf_to_sg(aos_to_mfred(fan_aos(4)))
    ncls, rows = spg._triple_relation(g)
    order, _ = reference._triple_groups(g)
    assert order == [divmod(i, ncls) for i in range(len(rows))]
    # the uncached closure: a full sweep would fill its cache with k^2 entries
    _, group_iso = reference._triple_iso_tables(g)
    group_iso = group_iso.__wrapped__
    rng = random.Random(4)
    for i in rng.sample(range(len(rows)), 64):
        a1, ca = order[i]
        expected = sum(1 << j for j, (b1, cb) in enumerate(order)
                       if group_iso(a1, ca, b1, cb))
        assert rows[i] == expected, i
    triples = list(itertools.product(range(g.size), repeat=3))
    for _ in range(2000):
        t1, t2 = rng.choice(triples), rng.choice(triples)
        assert _triple_pair_agrees(g, ncls, rows, t1, t2), (t1, t2)
    reference._triple_iso_tables.cache_clear()


def _raw_mutants(g, seed: str, count: int) -> list:
    """Copies of g with seeded quadruples dropped from and added to the
    isometry relation, left unclosed, so most fail ``check_psg``."""
    rng = random.Random(seed)
    n = g.size
    quads = sorted(g.iso)
    out = []
    for _ in range(count):
        dropped = set(rng.sample(quads, min(len(quads), rng.randint(0, 3))))
        added = {tuple(rng.randrange(n) for _ in range(4))
                 for _ in range(rng.randint(1, 3))}
        iso = frozenset((g.iso - dropped) | added)
        out.append(spg.SpecialGroup(g.carrier, g.mul, g.one, g.minus_one, iso))
    return out


def test_pair_classes_match_reference():
    """Grouping the relation by target pair gives the classes and
    representation masks of the per-class scan, malformed relations too,
    and ``check_psg`` the moved audit's report, whose SG1 witnesses vary."""
    groups = dict(corpus_special_groups())
    for k in (3, 4, 5):
        groups[f"fan{k}"] = spg.mf_to_sg(aos_to_mfred(fan_aos(k)))
    checked = failing = 0
    swaps = set()
    for name, g in groups.items():
        count = 3 if g.size > 16 else 10
        for h in [g] + _mutants(g, name, count) + _raw_mutants(g, name, count):
            assert spg._pair_classes.__wrapped__(h) == \
                reference._pair_classes(h), name
            report = spg.check_psg(h)
            assert report == reference.check_psg(h), name
            checked += 1
            failing += not report.overall
            swaps.add(report.verdict("SG1-swap").witness)
        reference._pair_classes.cache_clear()
    assert checked > 100 and failing > 30 and len(swaps) > 5


def test_sg7_and_sg8_match_reference_on_unclosed_relations():
    """On relations left unclosed, where D need not be symmetric, SG7 agrees
    with the pairwise reference and SG8 with the reachability passes it
    replaced, on the same triple relation; on closed ones, SG8 too."""
    groups = dict(corpus_special_groups())
    for k in (3, 4):
        groups[f"fan{k}"] = spg.mf_to_sg(aos_to_mfred(fan_aos(k)))
    asymmetric = failing7 = failing8 = 0
    for name, g in sorted(groups.items()):
        count = 5 if g.size > 8 else 20
        mutants = _raw_mutants(g, name + "sg78", count) + _mutants(g, name + "sg8", count)
        for h in mutants:
            cls, _ = spg._pair_classes(h)
            asymmetric += any(cls[a][b] != cls[b][a]
                              for a in range(h.size) for b in range(h.size))
            w7, w8 = spg._sg7_witness(h), spg._sg8_witness(h)
            assert w7 == reference._sg7_witness(h), name
            assert w8 == reference.relation_sg8_witness(h), name
            failing7 += w7 is not None
            failing8 += w8 is not None
    assert asymmetric > 20 and failing7 > 10 and failing8 > 20


def _trivial_group(k: int) -> spg.SpecialGroup:
    """The trivial special group on F_2^k, with -1 the first generator."""
    names = [f"e{x}" for x in range(1 << k)]
    return spg.trivial_special_group(
        names, [[names[x ^ y] for y in range(1 << k)] for x in range(1 << k)], "e1")


@pytest.mark.parametrize("name", ["true_fan5", "trivial32"])
def test_check_psg_at_the_cap(name):
    g = {"true_fan5": lambda: spg.mf_to_sg(aos_to_mfred(true_fan(5))),
         "trivial32": lambda: _trivial_group(5)}[name]()
    assert g.size == 32
    report = spg.check_psg(g)
    assert report == reference.check_psg(g) and report.overall
    reference._pair_classes.cache_clear()


def test_sg5_witnesses_on_reclosed_mutants():
    """One seeded quadruple q added to the sum-4 group's relation and closed
    again: SG5 fails at e = -1, index 0.  With q's translate by element 0
    added too, the translates by element 0 stay isometric, so the witness
    has its e further on."""
    g = spg.mf_to_sg(aos_to_mfred(fan_aos(4)))
    rng = random.Random("sg5 translated")
    translated = []
    for _ in range(10):
        q = tuple(rng.randrange(g.size) for _ in range(4))
        iso, added = spg._close_iso(g.size, g.iso | {q, tuple(g.mul[0][x] for x in q)})
        translated.append(spg.SpecialGroup(g.carrier, g.mul, g.one, g.minus_one, iso, added))
    es = []
    for h in _mutants(g, "sg5", 10) + translated:
        report = spg.check_psg(h)
        assert report == reference.check_psg(h)
        witness = report.verdict("SG5-translation").witness
        if witness:
            es.append(h.carrier.index(witness[0]))
    reference._pair_classes.cache_clear()
    assert len(es) > 15 and 0 in es and max(es) > 0
