"""The sign-space and real-semigroup tables built from masks agree with the
builders they replaced.

``reference_audits`` keeps the old builders: ``value_table`` and
``transversal_table`` tested every function at every point for every cell,
``mrred_to_rs`` tested every element against every pair, and the RS2 loop
of ``check_rs`` walked (b, c), a and e.  Here the library's pointwise
tables (core's ``_pointwise_cells``, one map per point), its union over
distinct squares and its cell images must give equal tables and the same
RS2 verdict and witness, on spaces of up to 81 functions, where masks
exceed 64 bits.  The kernel itself is checked by brute force.  The product
table read off the functions' negative and zero masks must equal the one
that built every product as a tuple, on spaces up to fan_aos(7) and on
function sets that are not closed under products.
"""

import dataclasses
import itertools
import random

import pytest

import reference_audits as reference
from multialg import ordering_spaces, real_semigroups
from multialg.constructions import product
from multialg.core import (
    CheckReport,
    InputError,
    StructuralAnomaly,
    Verdict,
    _pointwise_cells,
    krasner,
    q2,
    ring_multiring,
)
from multialg.corpus import corpus_sign_spaces, q2cube, q2xq2
from multialg.ordering_spaces import AOS, ARS, fan_aos, make_sign_space, mrred_to_ars
from multialg.real_semigroups import mrred_to_rs


def random_function_sets(count, seed):
    """Seeded sets of at most 16 sign vectors on one to four points,
    alternately two- and three-valued."""
    rng = random.Random(seed)
    for k in range(count):
        mode = (AOS, ARS)[k % 2]
        points = rng.randint(1, 4)
        vectors = list(itertools.product((-1, 1) if mode == AOS else (-1, 0, 1),
                                         repeat=points))
        chosen = rng.sample(vectors, rng.randint(1, min(len(vectors), 16)))
        yield make_sign_space(mode, [f"x{i}" for i in range(points)], chosen)


def table_inputs():
    spaces = list(corpus_sign_spaces().values())
    spaces += [fan_aos(k) for k in range(1, 6)]
    spaces += [mrred_to_ars(r)[0] for r in (q2(), q2xq2(), q2cube())]
    return spaces + list(random_function_sets(300, 12))


def test_value_and_transversal_tables():
    spaces = table_inputs()
    assert len(spaces) == 313
    for s in spaces:
        assert ordering_spaces.value_table(s) == reference.value_table(s), s
        if s.mode == ARS:
            assert ordering_spaces.transversal_table(s) \
                == reference.transversal_table(s), s


def test_value_tables_past_64_functions():
    """Masks of more than 64 bits: 70 of the 128 sign vectors on seven
    points, and the ars space of 81 sign vectors on four points."""
    rng = random.Random(70)
    chosen = rng.sample(fan_aos(7).functions, 70)
    wide = make_sign_space(AOS, [f"x{i}" for i in range(7)], chosen)
    full = make_sign_space(ARS, [f"x{i}" for i in range(4)],
                           itertools.product((-1, 0, 1), repeat=4))
    assert max(map(max, ordering_spaces.value_table(wide))) >= 1 << 64
    assert ordering_spaces.value_table(wide) == reference.value_table(wide)
    assert ordering_spaces.value_table(full) == reference.value_table(full)
    assert ordering_spaces.transversal_table(full) \
        == reference.transversal_table(full)


def test_product_tables():
    spaces = table_inputs() + [fan_aos(6), fan_aos(7)]
    unclosed = 0
    for s in spaces:
        table = ordering_spaces._product_table(s)
        assert table == reference._product_table(s), s
        unclosed += any(None in row for row in table)
    assert unclosed == 196


def naive_cells(n, maps, allowed):
    """Cell (x, y) holds c when every map m sends c into allowed[m[x]][m[y]]."""
    return tuple(tuple(sum(1 << c for c in range(n)
                           if all((allowed[m[x]][m[y]] >> m[c]) & 1 for m in maps))
                       for y in range(n)) for x in range(n))


def test_pointwise_cells_by_brute_force():
    """Random maps into k = 2 and 3 values and random tables of masks, one
    to three tables a call, on n = 1 to 9 elements, and no maps at all."""
    rng = random.Random(25)
    calls = 0
    for k, n, count in itertools.product((2, 3), range(1, 10), range(4)):
        maps = [tuple(rng.randrange(k) for _ in range(n)) for _ in range(count)]
        tables = [[[rng.randrange(1 << k) for _ in range(k)] for _ in range(k)]
                  for _ in range(rng.randint(1, 3))]
        got = _pointwise_cells(n, maps, *tables)
        assert got == tuple(naive_cells(n, maps, t) for t in tables), (k, n, maps)
        calls += 1
    assert calls == 72
    assert _pointwise_cells(3, [], [[1]]) == (((7,) * 3,) * 3,)


def scaling_multirings():
    rings = [ring_multiring(n) for n in range(2, 20)]
    rings += [krasner(), product([krasner()] * 3), product([q2(), krasner()])]
    return rings + [q2(), q2xq2(), q2cube()]


def outcome(construct, a):
    try:
        return construct(a)
    except (InputError, StructuralAnomaly) as exc:
        return type(exc), str(exc)


def scaled_sums(module, a, monkeypatch):
    """The D table that ``module.mrred_to_rs`` builds from a, with the real
    reduced guard and the closing transversal check stubbed out, so that the
    loop runs on any multiring.  The library keeps one image per structure
    object, so the stubbed call builds on a fresh equal copy of a."""
    built = []
    monkeypatch.setattr(module, "is_real_reduced_mr",
                        lambda _: CheckReport("stub", ()))
    monkeypatch.setattr(module, "dt_table",
                        lambda s: built.append(s.d) or a.add)
    module.mrred_to_rs(dataclasses.replace(a))
    return built[0]


def test_scaled_sum_tables(monkeypatch):
    rings = scaling_multirings()
    assert len(rings) == 24
    for a in rings:
        assert outcome(mrred_to_rs, a) == outcome(reference.mrred_to_rs, a)
    with monkeypatch.context() as patch:
        for a in rings:
            assert scaled_sums(real_semigroups, a, patch) \
                == scaled_sums(reference, a, patch), a.names


def q2cube_mutants(count, seed):
    """Seeded single-cell mutants of q2^3's 27-element real semigroup, half
    in D and half in the multiplication, each made symmetric half of the
    time."""
    s = mrred_to_rs(q2cube())
    rng = random.Random(seed)
    n = s.size
    for k in range(count):
        b, c, a = (rng.randrange(n) for _ in range(3))
        twice = rng.random() < 0.5
        if k % 2:
            rows = [list(row) for row in s.d]
            rows[b][c] ^= 1 << a
            if twice:
                rows[c][b] = rows[b][c]
            yield dataclasses.replace(s, d=tuple(map(tuple, rows)))
        else:
            rows = [list(row) for row in s.mul]
            rows[b][c] = a
            if twice:
                rows[c][b] = a
            yield dataclasses.replace(s, mul=tuple(map(tuple, rows)))


@pytest.mark.parametrize("seed", [4, 5])
def test_rs2_on_q2cube_mutants(seed):
    failing = 0
    for s in q2cube_mutants(24, seed):
        w = reference._rs2_witness(s)
        assert real_semigroups.check_rs(s).verdict("RS2-scaling") \
            == Verdict("RS2-scaling", w is None, w)
        failing += w is not None
    assert failing
