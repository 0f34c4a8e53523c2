"""The mask-algebra axiom audits agree with the naive reference.

``reference_audits`` holds the audits as they were before the reassociation
scan: 4-deep loops of set probes.  Here ``check_multigroup``,
``check_multiring``, ``check_relational_axioms`` and
``check_relational_lemmas`` must return equal ``CheckReport``s -- the same
axiom, pass flag, first witness, note and informational flag for every
verdict -- on the corpus, on every candidate table of order <= 3, on a
seeded sample of the order-4 candidates, on single-cell mutants and on
relational presentations built from arbitrary triple sets.
"""

import dataclasses
import functools
import itertools
import os
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_audits as reference
from multialg import core, io
from multialg.constructions import product
from multialg.enumeration import (
    _addition_tables,
    _involutions_fixing,
    _labels,
    _monoid_tables,
)
from multialg.ordering_spaces import AOS, aos_to_mfred, ars_to_mrred, fan_aos
from multialg.real_semigroups import RealSemigroup, rs_to_mrred
from multialg.special_groups import SpecialGroup, sg_to_mf

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def assert_relational_agrees(rel):
    assert core.check_relational_axioms(rel) == reference.check_relational_axioms(rel)
    assert core.check_relational_lemmas(rel) == reference.check_relational_lemmas(rel)


def assert_multigroup_agrees(m):
    assert core.check_multigroup(m) == reference.check_multigroup(m)
    assert_relational_agrees(core.to_relational(m))


def assert_multiring_agrees(r):
    assert core.check_multiring(r) == reference.check_multiring(r)
    assert_multigroup_agrees(r.additive_multigroup())


def as_audited(obj):
    """The multiring or multigroup a corpus structure is audited as."""
    if isinstance(obj, SpecialGroup):
        return sg_to_mf(obj)
    if isinstance(obj, RealSemigroup):
        return rs_to_mrred(obj)
    if isinstance(obj, (core.FiniteMultiring, core.FiniteMultigroup)):
        return obj
    return aos_to_mfred(obj) if obj.mode == AOS else ars_to_mrred(obj)


def test_corpus_structures():
    files = sorted(f for f in os.listdir(CORPUS) if f.endswith(".mrs"))
    assert len(files) == 28
    for name in files:
        obj = as_audited(io.read_structure(os.path.join(CORPUS, name)))
        if isinstance(obj, core.FiniteMultiring):
            assert_multiring_agrees(obj)
        else:
            assert_multigroup_agrees(obj)


def test_every_candidate_of_order_at_most_three():
    """All candidate tables of the generators, failing ones included."""
    seen = 0
    for n in (1, 2, 3):
        carrier = core.Carrier(_labels(n))
        for identity in range(n):
            for inv in _involutions_fixing(n, identity):
                for op in _addition_tables(n, identity, inv):
                    assert_multigroup_agrees(
                        core.FiniteMultigroup(carrier, op, inv, identity))
                    seen += 1
        for zero, one in itertools.permutations(range(n), 2):
            for neg in _involutions_fixing(n, zero):
                for mul in _monoid_tables(n, zero, one):
                    for add in _addition_tables(n, zero, neg):
                        assert_multiring_agrees(core.FiniteMultiring(
                            carrier, add, mul, neg, zero, one))
                        seen += 1
    assert seen == 107 + 616


def test_sampled_order_four_candidates():
    rng = random.Random(4)
    carrier = core.Carrier(_labels(4))
    sampled = 0
    for identity in range(4):
        for inv in _involutions_fixing(4, identity):
            for op in _addition_tables(4, identity, inv):
                if rng.random() < 0.02:
                    assert_multigroup_agrees(
                        core.FiniteMultigroup(carrier, op, inv, identity))
                    sampled += 1
    assert sampled > 1500


@functools.cache
def mutation_bases():
    q2, k = core.q2(), core.krasner()
    return {
        "z8": core.ring_multiring(8),
        "q2xq2": product([q2, q2]),
        "q2xk2": product([q2, k, k]),
        "fan3mf": aos_to_mfred(fan_aos(3)),
    }


def _replace_cell(table, i, j, value):
    rows = [list(row) for row in table]
    rows[i][j] = value
    return tuple(tuple(row) for row in rows)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_single_cell_mutants(data):
    base = mutation_bases()[data.draw(st.sampled_from(sorted(mutation_bases())))]
    n = base.size
    cells = st.integers(0, n - 1)
    i, j, value = data.draw(cells), data.draw(cells), data.draw(cells)
    table = data.draw(st.sampled_from(("add", "mul", "neg")))
    if table == "add":
        flipped = base.add[i][j] ^ (1 << value)
        assume(flipped)
        mutant = dataclasses.replace(base, add=_replace_cell(base.add, i, j, flipped))
    elif table == "mul":
        mutant = dataclasses.replace(base, mul=_replace_cell(base.mul, i, j, value))
    else:
        neg = list(base.neg)
        neg[i] = value
        mutant = dataclasses.replace(base, neg=tuple(neg))
    assert core.check_multiring(mutant) == reference.check_multiring(mutant)
    if table != "mul":
        assert_multigroup_agrees(mutant.additive_multigroup())


def _close_under_reversibility(pi, inv):
    pi = set(pi)
    todo = list(pi)
    while todo:
        x, y, z = todo.pop()
        for t in ((z, inv[y], x), (inv[x], z, y)):
            if t not in pi:
                pi.add(t)
                todo.append(t)
    return pi


@st.composite
def presentations(draw):
    """Arbitrary triple sets: non-total, non-commutative, any map as inv
    half the time.  Half the sets are closed under axiom I around every
    (x, e, x), so that axioms I-III often hold and the lemma scan runs on
    presentations that no table gives."""
    n = draw(st.integers(1, 4))
    element = st.integers(0, n - 1)
    identity = draw(element)
    if draw(st.booleans()):
        inv = tuple(draw(st.lists(element, min_size=n, max_size=n)))
    else:
        inv = draw(st.sampled_from(list(_involutions_fixing(n, identity))))
    pi = set(draw(st.lists(st.tuples(element, element, element), max_size=2 * n)))
    if draw(st.booleans()):
        # With inv an involution fixing the identity, triples free of the
        # identity close to triples free of it, so axiom II survives.
        pi = {t for t in pi if identity not in t}
        pi |= {(x, identity, x) for x in range(n)}
        pi = _close_under_reversibility(pi, inv)
    return core.RelationalMultigroup(core.Carrier(_labels(n)), frozenset(pi),
                                     inv, identity)


@given(rel=presentations())
@settings(max_examples=300, deadline=None)
def test_arbitrary_presentations(rel):
    assert_relational_agrees(rel)


def test_every_presentation_on_two_elements():
    triples = list(itertools.product(range(2), repeat=3))
    carrier = core.Carrier(_labels(2))
    for chosen in range(1 << len(triples)):
        pi = frozenset(t for k, t in enumerate(triples) if (chosen >> k) & 1)
        for inv in itertools.product(range(2), repeat=2):
            for identity in range(2):
                assert_relational_agrees(
                    core.RelationalMultigroup(carrier, pi, inv, identity))
