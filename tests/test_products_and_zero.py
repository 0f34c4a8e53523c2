"""The componentwise product and the zero adjunction of ``constructions``
agree with the constructions they replaced.

``reference_audits`` keeps ``product`` and ``rs_product`` as they were when
each built its own tables, and ``sg_to_mf`` and ``aos_to_mfred`` as they
were when each adjoined its own zero.  The library's versions must return
equal structures, labels included, and raise the same messages:

- ``product`` on every ordered pair of corpus multirings (pairs past the
  64-element cap raise the same error), on q2^3, K^6, q2^2 x K^2 and on the
  empty product;
- ``rs_product`` on rs3^k for k <= 3, rs_q2 x rs3 and rs3 x rs_q2xq2;
- ``sg_to_mf`` on every corpus special group, with the default zero label
  and another one, on the groups of the point sums of k <= 5 points, and
  on seeded isometry mutants that fail ``check_sg``;
- ``aos_to_mfred`` on the point sums of 1 to 5 points, the corpus
  two-valued spaces and every subgroup of {-1, 1}^k, k <= 4, that holds the
  constant -1.

Past the cap ``rs_product`` now raises the product's own error before
building anything.
"""

import itertools
import random

import pytest

import reference_audits as reference
from multialg import special_groups as spg
from multialg.constructions import product
from multialg.core import InputError, krasner, q2
from multialg.corpus import (
    corpus_multirings,
    corpus_real_semigroups,
    corpus_sign_spaces,
    corpus_special_groups,
)
from multialg.ordering_spaces import AOS, aos_to_mfred, fan_aos, make_sign_space
from multialg.real_semigroups import canonical_3, rs_product

def _same_outcome(new, old, *args) -> None:
    """new(*args) and old(*args) return equal structures or raise
    InputErrors with equal messages."""
    try:
        expected = old(*args)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            new(*args)
        assert str(got.value) == str(exc)
        return
    assert new(*args) == expected


def test_multiring_products_on_corpus_pairs():
    for a, b in itertools.product(corpus_multirings().values(), repeat=2):
        _same_outcome(product, reference.product, [a, b])


@pytest.mark.parametrize("factors", [
    [q2()] * 3,
    [krasner()] * 6,
    [q2(), q2(), krasner(), krasner()],
    [],
], ids=["q2^3", "K^6", "q2^2xK^2", "empty"])
def test_multiring_products(factors):
    _same_outcome(product, reference.product, factors)


def test_real_semigroup_products():
    rs = corpus_real_semigroups()
    rs3 = canonical_3()
    for factors in ([rs3], [rs3] * 2, [rs3] * 3, [rs["rs_q2"], rs3],
                    [rs3, rs["rs_q2xq2"]]):
        _same_outcome(rs_product, reference.rs_product, factors)


def test_real_semigroup_product_refusals():
    with pytest.raises(InputError, match="^product size 81 exceeds cap 64$"):
        rs_product([canonical_3()] * 4)
    with pytest.raises(InputError, match="^empty real semigroup product$"):
        rs_product([])


def _failing_mutants(g, seed: str, count: int) -> list:
    """Up to ``count`` copies of g with one seeded quadruple added to the
    isometry relation, re-closed, that fail ``check_sg``."""
    rng = random.Random(seed)
    out = []
    for _ in range(20 * count):
        q = tuple(rng.randrange(g.size) for _ in range(4))
        iso, added = spg._close_iso(g.size, g.iso | {q})
        h = spg.SpecialGroup(g.carrier, g.mul, g.one, g.minus_one, iso, added)
        if not spg.check_sg(h).overall:
            out.append(h)
            if len(out) == count:
                break
    return out


def test_special_group_functor():
    groups = dict(corpus_special_groups())
    for k in range(1, 6):
        groups[f"sum{k}"] = spg.mf_to_sg(aos_to_mfred(fan_aos(k)))
    failing = 0
    for name, g in groups.items():
        for label in ("0", "z", g.names[0]):
            _same_outcome(spg.sg_to_mf, reference.sg_to_mf, g, label)
        if g.size <= 8:
            mutants = _failing_mutants(g, name, 3)
            failing += len(mutants)
            for h in mutants:
                _same_outcome(spg.sg_to_mf, reference.sg_to_mf, h)
    assert failing >= 10


def _subgroups_with_minus_one(k: int) -> list:
    """Every subgroup of {-1, 1}^k under pointwise products that holds the
    constant -1, each as a set of functions."""
    one, minus = (1,) * k, (-1,) * k
    found = set()
    pending = [frozenset({one, minus})]
    while pending:
        group = pending.pop()
        if group in found:
            continue
        found.add(group)
        for v in itertools.product((-1, 1), repeat=k):
            if v not in group:
                pending.append(group | {tuple(map(int.__mul__, v, w))
                                        for w in group})
    return sorted(found, key=sorted)


def test_sign_space_functor():
    spaces = [fan_aos(k) for k in range(1, 6)]
    spaces += [s for s in corpus_sign_spaces().values() if s.mode == AOS]
    # the subgroups of (Z/2)^(k-1): 1, 2, 5 and 16
    for k, count in ((1, 1), (2, 2), (3, 5), (4, 16)):
        points = [f"x{i}" for i in range(k)]
        groups = _subgroups_with_minus_one(k)
        assert len(groups) == count
        spaces += [make_sign_space(AOS, points, group) for group in groups]
    for s in spaces:
        _same_outcome(aos_to_mfred, reference.aos_to_mfred, s)


def test_sign_space_functor_refusals():
    cases = {
        "three-valued": corpus_sign_spaces()["ars_point"],
        "no negation": make_sign_space(AOS, ["x"], [(1,)]),
        "no products": make_sign_space(
            AOS, ["x", "y", "z"],
            [(1, 1, 1), (-1, -1, -1), (1, -1, 1), (-1, 1, -1), (1, 1, -1),
             (-1, -1, 1)]),
    }
    for s in cases.values():
        with pytest.raises(InputError):
            reference.aos_to_mfred(s)
        _same_outcome(aos_to_mfred, reference.aos_to_mfred, s)
