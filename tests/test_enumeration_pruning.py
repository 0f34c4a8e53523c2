"""The generators agree with the unpruned and the all-placement references.

``reference_searches._addition_tables`` is the addition-table generator as
it was when it pruned on one direction of reversibility only.  Run through
the full audit, its tables must be exactly the structures the library's
generators yield, in the same order: every multigroup of order <= 3 and of
order 4 with identity 0, and every multiring of order <= 3.  The same holds
for ``enumerate_structures`` of every kind at order 3, with and without
``up_to_iso``, when its generator is swapped for the reference, which
ignores the relabelings, so the slice audits every leaf.  The number of
tables the pruned search reaches with no relabelings to compare is pinned
too.  The involutions and the monoid tables, ``itertools`` filters in the
library, must equal the recursive searches kept in ``reference_searches``,
order included: the involutions of every n <= 7 fixing any element, and the
monoid tables of every 2 <= n <= 5 with the zero and the one on any two
distinct elements, and of n = 1.

The library audits one placement of the constants per order, the slice with
the identity at 0 or the zero at 0 and the one at 1, and gives every other
placement as relabelled copies of the slice's survivors.
``reference_searches.generate_multigroups``, ``generate_multirings`` and
``_canonical_key`` search and audit every placement and try every candidate
relabeling; the library must give the same lists in the same order (all
1,560 multigroups of order 4, the multirings of order <= 3 and the 428 of
order 4 on the slice), the same canonical keys (all 5,136 multirings of
order 4 included), and the same ``enumerate_structures`` when that searches
the slice only, where the patched reference key must run.  A placed copy
inherits its slice structure's key, so the library keys exactly the 428
multiring slice structures of order 4.

Within the multigroup slice the library audits one member of each orbit of
the relabelings that fix the identity 0, and lists the rest as relabelled
copies of it.  ``reference_searches._multigroup_slice`` audits every
candidate; the library's slice must equal it, order included, at every order
n <= 4.  A leaf is audited exactly when it is the least of its orbit, which
``reference_searches._canonical_key``, a key the slice does not call, says;
each copy's origin is an audited survivor; and since a copy inherits its
origin's key, order-4 generation keys exactly the 97 audited survivors, each
once.  The search cuts every subtree that a relabeling commuting with the
involution sends lower, so the leaves it yields are exactly the audited
ones, in order: 1, 2, 10 and 198 at orders 1-4.  Past the reference's reach,
the 72,112 structures of the order-5 slice and their order are pinned by a
digest of their tables, taken when the slice still tested each finished leaf
against those relabelings.  The number of audits is pinned: the multigroup
slice audits 198 of the 878 order-4 leaves with identity 0 that the search
reaches without those relabelings; the multiring slice scans each
(multiplication, addition) pair for weak distributivity, and gives the full
audit only to the pairs passing that scan, so at order 4 the full audits are
exactly the 428 structures found.  The orbit-stabilizer count, the sum of
n!/|Aut| over the classes with the automorphisms found by the map search,
checks that each labelled list holds every labelled structure exactly once.
"""

import hashlib
import itertools
import math

import pytest

import reference_searches as reference
from multialg import core, enumeration
from multialg.enumeration import (
    _addition_tables,
    _involutions_fixing,
    _labels,
    _monoid_tables,
    generate_multigroups,
    generate_multirings,
    multigroup_canonical_key,
    multiring_canonical_key,
)


def reference_multigroups(n, identities):
    carrier = core.Carrier(_labels(n))
    for identity in identities:
        for inv in reference._involutions_fixing(n, identity):
            for op in reference._addition_tables(n, identity, inv):
                cand = core.FiniteMultigroup(carrier, op, inv, identity)
                if core.check_multigroup(cand).overall:
                    yield cand


def reference_multirings(n):
    if n == 1:
        yield from generate_multirings(1)
        return
    carrier = core.Carrier(_labels(n))
    for zero, one in itertools.permutations(range(n), 2):
        for neg in reference._involutions_fixing(n, zero):
            for mul in reference._monoid_tables(n, zero, one):
                for add in reference._addition_tables(n, zero, neg):
                    cand = core.FiniteMultiring(carrier, add, mul, neg, zero, one)
                    if core.check_multiring(cand).overall:
                        yield cand


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multigroups_of_order_at_most_three(n):
    found = list(generate_multigroups(n))
    assert found == list(reference_multigroups(n, range(n)))
    assert found == list(reference.generate_multigroups(n))


def test_multigroups_of_order_four_with_identity_zero():
    pruned = list(itertools.takewhile(lambda m: m.identity == 0,
                                      generate_multigroups(4)))
    assert pruned == list(reference_multigroups(4, [0]))
    assert len(pruned) == 390


def test_multigroups_of_order_four_and_their_keys():
    found = list(generate_multigroups(4))
    assert found == list(reference.generate_multigroups(4))
    assert len(found) == 1560
    assert [multigroup_canonical_key(m) for m in found] == \
        [reference._canonical_key(m) for m in found]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multirings_of_order_at_most_three(n):
    found = list(generate_multirings(n))
    assert found == list(reference_multirings(n))
    assert found == list(reference.generate_multirings(n))
    assert [multiring_canonical_key(r) for r in found] == \
        [reference._canonical_key(r) for r in found]


def test_multirings_of_order_four_with_zero_zero_and_one_one():
    def on_slice(r):
        return (r.zero, r.one) == (0, 1)

    found = list(itertools.takewhile(on_slice, generate_multirings(4)))
    assert found == list(itertools.takewhile(on_slice,
                                             reference.generate_multirings(4)))
    assert len(found) == 428


@pytest.mark.parametrize("generate, canonical_key, audit, runs", [
    (generate_multigroups, multigroup_canonical_key, "check_multigroup", 97),
    (generate_multirings, multiring_canonical_key, "check_multiring", 428),
])
def test_keys_computed_once_per_slice_structure(monkeypatch, generate,
                                                canonical_key, audit, runs):
    """A copy inherits the key of the structure it was moved from, so at
    order 4 only the multiring slice structures, and only the audited
    multigroups, are keyed, each once, and every labelled structure's key,
    all 5,136 multirings' included, is the reference's."""
    keyed = []
    key = enumeration._canonical_key
    monkeypatch.setattr(enumeration, "_canonical_key",
                        lambda s: keyed.append(s) or key(s))
    audited = _audited(monkeypatch, audit)
    found = list(generate(4))
    keys = [canonical_key(s) for s in found]
    assert keys == [canonical_key(s) for s in found]
    assert len(keyed) == runs
    assert keyed == [s for s, passed in audited if passed]
    assert keys == [reference._canonical_key(s) for s in found]


def _audited(monkeypatch, name: str) -> list:
    """The structures given to the named audit through ``enumeration``,
    each with its verdict, collected in order."""
    audited, audit = [], getattr(enumeration, name)

    def collected(s):
        report = audit(s)
        audited.append((s, report.overall))
        return report
    monkeypatch.setattr(enumeration, name, collected)
    return audited


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multigroup_slice_matches_the_reference(n):
    assert enumeration._multigroup_slice(n) == list(reference._multigroup_slice(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multigroup_slice_audits_the_least_of_each_orbit(monkeypatch, n):
    """A leaf is audited exactly when no relabeling fixing 0 makes it
    smaller, and every other structure of the slice is a copy of an audited
    survivor."""
    audited = _audited(monkeypatch, "check_multigroup")
    found = enumeration._multigroup_slice(n)
    carrier = core.Carrier(_labels(n))
    least = [cand.tables for cand in (
        core.FiniteMultigroup(carrier, op, inv, 0)
        for inv in _involutions_fixing(n, 0) for op in _addition_tables(n, 0, inv, []))
        if reference._canonical_key(cand) == (n,) + cand.tables]
    assert [m.tables for m, _ in audited] == least
    survivors = [m for m, passed in audited if passed]
    for s in found:
        origin = enumeration._origin(s)
        assert any(s is m if origin is None else origin is m for m in survivors)


@pytest.mark.parametrize("n, leaves", [(1, 1), (2, 2), (3, 10), (4, 198)])
def test_multigroup_search_yields_only_the_audited_leaves(monkeypatch, n, leaves):
    """The search cuts every subtree that a relabeling commuting with the
    involution sends lower, so each leaf it yields is audited, in order."""
    yielded, search = [], enumeration._addition_tables
    monkeypatch.setattr(enumeration, "_addition_tables",
                        lambda *args: (yielded.append(op) or op for op in search(*args)))
    audited = _audited(monkeypatch, "check_multigroup")
    enumeration._multigroup_slice(n)
    assert [m.op for m, _ in audited] == yielded
    assert len(yielded) == leaves


def test_multigroup_slice_of_order_five():
    """The 72,112 structures of the order-5 slice, in order, as the slice
    gave them when it tested each leaf of the search against the relabelings
    commuting with its involution."""
    found = enumeration._multigroup_slice(5)
    assert len(found) == 72112
    assert hashlib.sha256(repr([(m.inv, m.op) for m in found]).encode()).hexdigest() \
        == "a4f2e5f8f8007ce1b8eaf7c27a3b36c5870235e1cab75409f1a1cc4c3c8d2e81"


@pytest.mark.parametrize("up_to_iso", [True, False])
@pytest.mark.parametrize("kind", enumeration.ENUMERABLE_KINDS)
def test_enumerated_structures_of_order_three(kind, up_to_iso, monkeypatch):
    pruned = enumeration.enumerate_structures(kind, 3, up_to_iso)
    monkeypatch.setattr(enumeration, "_addition_tables",
                        lambda n, zero, neg, centralizer:
                        reference._addition_tables(n, zero, neg))
    assert pruned == enumeration.enumerate_structures(kind, 3, up_to_iso)


@pytest.mark.parametrize("up_to_iso", [True, False])
@pytest.mark.parametrize("kind", enumeration.ENUMERABLE_KINDS)
def test_enumerated_structures_match_every_placement(kind, up_to_iso, monkeypatch):
    found = enumeration.enumerate_structures(kind, 3, up_to_iso)
    for name in ("generate_multigroups", "generate_multirings"):
        monkeypatch.setattr(enumeration, name, getattr(reference, name))
    keyed = []
    monkeypatch.setattr(enumeration, "_canonical_key",
                        lambda s: keyed.append(s) or reference._canonical_key(s))
    monkeypatch.setattr(enumeration, "_multigroup_slice", reference.generate_multigroups)
    monkeypatch.setattr(enumeration, "_multiring_slice", reference.generate_multirings)
    assert found == enumeration.enumerate_structures(kind, 3, up_to_iso)
    # the reference key ran on every structure kept up to isomorphism
    assert bool(keyed) == up_to_iso


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_involutions_in_lexicographic_order(n):
    # The relabelled placements are sorted by their tables, which is the
    # search order only because the involutions come in this order.
    for fixed in range(n):
        involutions = list(_involutions_fixing(n, fixed))
        assert involutions == sorted(set(involutions))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_involutions_match_the_recursive_reference(n):
    for fixed in range(n):
        assert list(_involutions_fixing(n, fixed)) \
            == list(reference._involutions_fixing(n, fixed))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_monoid_tables_match_the_recursive_reference(n):
    for zero, one in itertools.permutations(range(n), 2) if n > 1 else [(0, 0)]:
        assert list(_monoid_tables(n, zero, one)) \
            == list(reference._monoid_tables(n, zero, one))


def _audits(monkeypatch, generate, orders):
    """The calls made to each audit, looked up through ``enumeration``, and
    the structures yielded."""
    calls = dict.fromkeys(("check_multigroup", "_distributivity_defects",
                           "check_multiring"), 0)
    for name in calls:
        def counted(*args, _name=name, _audit=getattr(core, name)):
            calls[_name] += 1
            return _audit(*args)
        monkeypatch.setattr(enumeration, name, counted)
    found = sum(1 for n in orders for _ in generate(n))
    return list(calls.values()), found


def test_audits_made(monkeypatch):
    assert _audits(monkeypatch, generate_multigroups, [4]) == ([198, 0, 0], 1560)
    assert _audits(monkeypatch, generate_multirings, [1, 2, 3]) == ([12, 47, 16], 89)
    calls, found = _audits(monkeypatch, enumeration._multiring_slice, [4])
    assert calls == [198, 7410, 428]
    assert found == calls[2] == 428  # every full audit passes


@pytest.mark.parametrize("kind, found", [("multifield", 35), ("multidomain", 71)])
def test_kind_filter_audits_no_placed_copy(monkeypatch, kind, found):
    """The multidomain and multifield filter reads structures the slices
    audited, or relabelled copies of them, so it audits none again: the 16
    multiring audits are the slices' of orders 1-3, as for every kind."""
    audits, audit = [], core.check_multiring
    for module in (core, enumeration):
        monkeypatch.setattr(module, "check_multiring", lambda r: audits.append(r) or audit(r))
    assert len(enumeration.enumerate_structures(kind, 3, up_to_iso=False)) == found
    assert len(audits) == 16


@pytest.mark.parametrize("generate, n, labelled, classes", [
    (generate_multigroups, 4, 1560, 97),
    (generate_multirings, 2, 4, 2),
    (generate_multirings, 3, 84, 14),
])
def test_orbit_stabilizer(generate, n, labelled, classes):
    found = list(generate(n))
    representatives = {reference._canonical_key(s): s for s in found}
    orbits = sum(math.factorial(n) // len(list(
        core._table_morphisms(s, s, bijective=True)))
        for s in representatives.values())
    assert len({s.tables for s in found}) == len(found) == orbits == labelled
    assert len(representatives) == classes


def _multigroup_leaves(n):
    return sum(1 for identity in range(n) for inv in _involutions_fixing(n, identity)
               for _ in _addition_tables(n, identity, inv, []))


def _multiring_leaves(n):
    return sum(1 for zero, one in itertools.permutations(range(n), 2)
               for neg in _involutions_fixing(n, zero)
               for mul in _monoid_tables(n, zero, one)
               for _ in _addition_tables(n, zero, neg, []))


def test_tables_reached():
    assert [_multigroup_leaves(n) for n in (1, 2, 3, 4)] == [1, 4, 45, 3512]
    assert sum(_multiring_leaves(n) for n in (2, 3)) == 274
