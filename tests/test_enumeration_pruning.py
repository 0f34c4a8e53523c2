"""The reversibility-pruned generators agree with the unpruned reference.

``reference_searches._addition_tables`` is the addition-table generator as it
was when it pruned on one direction of reversibility only.  Run through the
full audit, its tables must be exactly the structures the library's
generators yield, in the same order: every multigroup of order <= 3 and of
order 4 with identity 0, and every multiring of order <= 3.  The same holds
for ``enumerate_structures`` of every kind at order 3, with and without
``up_to_iso``, when its generator is swapped for the reference.  The number
of tables the pruned search reaches is pinned too.
"""

import itertools

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
)


def reference_multigroups(n, identities):
    carrier = core.Carrier(_labels(n))
    for identity in identities:
        for inv in _involutions_fixing(n, identity):
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
        for neg in _involutions_fixing(n, zero):
            for mul in _monoid_tables(n, zero, one):
                for add in reference._addition_tables(n, zero, neg):
                    cand = core.FiniteMultiring(carrier, add, mul, neg, zero, one)
                    if core.check_multiring(cand).overall:
                        yield cand


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multigroups_of_order_at_most_three(n):
    assert list(generate_multigroups(n)) == list(reference_multigroups(n, range(n)))


def test_multigroups_of_order_four_with_identity_zero():
    pruned = list(itertools.takewhile(lambda m: m.identity == 0,
                                      generate_multigroups(4)))
    assert pruned == list(reference_multigroups(4, [0]))
    assert len(pruned) == 390


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multirings_of_order_at_most_three(n):
    assert list(generate_multirings(n)) == list(reference_multirings(n))


@pytest.mark.parametrize("up_to_iso", [True, False])
@pytest.mark.parametrize("kind", enumeration.ENUMERABLE_KINDS)
def test_enumerated_structures_of_order_three(kind, up_to_iso, monkeypatch):
    pruned = enumeration.enumerate_structures(kind, 3, up_to_iso)
    monkeypatch.setattr(enumeration, "_addition_tables", reference._addition_tables)
    assert pruned == enumeration.enumerate_structures(kind, 3, up_to_iso)


def _multigroup_leaves(n):
    return sum(1 for identity in range(n) for inv in _involutions_fixing(n, identity)
               for _ in _addition_tables(n, identity, inv))


def _multiring_leaves(n):
    return sum(1 for zero, one in itertools.permutations(range(n), 2)
               for neg in _involutions_fixing(n, zero)
               for mul in _monoid_tables(n, zero, one)
               for _ in _addition_tables(n, zero, neg))


def test_tables_reached():
    assert [_multigroup_leaves(n) for n in (1, 2, 3, 4)] == [1, 4, 45, 3512]
    assert sum(_multiring_leaves(n) for n in (2, 3)) == 274
