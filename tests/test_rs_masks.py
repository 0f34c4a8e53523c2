"""The real-semigroup layer on masks agrees with the loops it replaced.

``reference_audits`` keeps ``dt_table``, ``rs_to_mrred``,
``separation_audit`` and the union-over-squares ``mrred_to_rs``
(``squarewise_mrred_to_rs``) as they were before they worked on transposed
masks, and the nested-loop ``check_rs``.  Here the library's versions must
give equal tables, equal reports (every verdict and first witness) and the
same errors on: the corpus, rs3^3 and the real semigroup images of q2^2,
q2^3 and the sum-4 and sum-5 multifields; every structure on one element,
every D on the two-element semigroup {0, 1} and a seeded D on every
two-element table; the 512 symmetric, reflexive candidates on the sign
semigroup; and seeded mutants of rs3 x rs3, among them asymmetric D cells
and multiplication cells that keep x -> -x from being an involution.  ``check_rs`` on rs3^3
and on q2^3's image is pinned in ``test_audit_kernel.py``.  The bit-matrix
transpose behind D^t is checked against the naive one at every size up to
the carrier cap.
"""

import contextlib
import dataclasses
import io as stdio
import itertools
import os
import random

import reference_audits as reference
from multialg import core, real_semigroups
from multialg.cli import main
from multialg.core import Carrier, InputError, StructuralAnomaly, krasner, q2, ring_multiring
from multialg.corpus import (
    corpus_real_reduced_multirings,
    corpus_real_semigroups,
    corpus_special_groups,
    q2cube,
    q2xq2,
    rs_3x3,
)
from multialg.ordering_spaces import aos_to_mfred, fan_aos
from multialg.real_semigroups import (
    RealSemigroup,
    canonical_3,
    check_rs,
    check_rs_derived,
    dt_table,
    mrred_to_rs,
    rs_product,
    rs_to_mrred,
    separation_audit,
)
from multialg.special_groups import check_reduced, check_sg, sg_to_mf


def outcome(construct, x):
    try:
        return construct(x)
    except (InputError, StructuralAnomaly) as exc:
        return type(exc), str(exc)


def assert_layer_agrees(s, audit=True):
    """D^t, separation and the multiring image, and check_rs unless the
    structure is too large for the nested-loop reference."""
    assert dt_table(s) == reference.dt_table(s)
    assert separation_audit(s) == reference.separation_audit(s)
    assert outcome(rs_to_mrred, s) == outcome(reference.rs_to_mrred, s)
    if audit:
        assert check_rs(s) == reference.check_rs(s)


def sum4_multifield():
    return aos_to_mfred(fan_aos(4))


def test_corpus_and_images():
    for s in corpus_real_semigroups().values():
        assert_layer_agrees(s)
    assert_layer_agrees(mrred_to_rs(q2xq2()))
    assert_layer_agrees(mrred_to_rs(sum4_multifield()))
    assert_layer_agrees(mrred_to_rs(q2cube()), audit=False)
    assert_layer_agrees(rs_product([canonical_3()] * 3), audit=False)
    # 33 elements: the bit matrices are padded to 64 rows.
    assert_layer_agrees(mrred_to_rs(aos_to_mfred(fan_aos(5))), audit=False)


def test_transposed_at_every_size():
    rng = random.Random(18)
    for n in range(1, 65):
        for density in (0.1, 0.5, 0.9):
            rows = [sum(1 << t for t in range(n) if rng.random() < density)
                    for _ in range(n)]
            naive = tuple(sum(((rows[x] >> t) & 1) << x for x in range(n))
                          for t in range(n))
            assert core._transposed(rows) == naive, (n, density)


def test_multiring_images():
    """mrred_to_rs on the real reduced multirings above, on the images of
    the real semigroups, and on multirings that are not real reduced."""
    rings = list(corpus_real_reduced_multirings().values())
    rings += [q2xq2(), q2cube(), sum4_multifield()]
    rings += [rs_to_mrred(s) for s in corpus_real_semigroups().values()]
    rings += [q2(), krasner()] + [ring_multiring(n) for n in range(2, 8)]
    for a in rings:
        assert outcome(mrred_to_rs, a) == outcome(reference.squarewise_mrred_to_rs, a)


def two_element_structures():
    """Every D on {0, 1} with its product, zero 0 and one = -1 = 1, and a
    seeded D on every table on two elements with every choice of the
    constants."""
    carrier = Carrier(("0", "1"))
    cells = range(4)
    for d in itertools.product(cells, repeat=4):
        yield RealSemigroup(carrier, ((0, 0), (0, 1)), 1, 0, 1,
                            (d[:2], d[2:]))
    rng = random.Random(18)
    for entries in itertools.product(range(2), repeat=4):
        for one, zero, minus_one in itertools.product(range(2), repeat=3):
            d = tuple(rng.choice(cells) for _ in range(4))
            yield RealSemigroup(carrier, (entries[:2], entries[2:]), one, zero,
                                minus_one, (d[:2], d[2:]))


def test_one_and_two_elements():
    carrier = Carrier(("0",))
    for cell in (0, 1):
        assert_layer_agrees(RealSemigroup(carrier, ((0,),), 0, 0, 0, ((cell,),)))
    structures = list(two_element_structures())
    assert len(structures) == 256 + 128
    for s in structures:
        assert_layer_agrees(s)


def test_every_representation_on_the_sign_semigroup():
    """The 512 candidates of unique_rs_search_on_3; their check_rs is pinned
    in test_audit_kernel.py."""
    base = canonical_3()
    pairs = [(b, c) for b in range(3) for c in range(b, 3)]
    choices = [(b, c, a) for b, c in pairs for a in range(3) if a not in (b, c)]
    for chosen in range(1 << len(choices)):
        d = [[(1 << b) | (1 << c) for c in range(3)] for b in range(3)]
        for k, (b, c, a) in enumerate(choices):
            if (chosen >> k) & 1:
                d[b][c] |= 1 << a
                d[c][b] |= 1 << a
        assert_layer_agrees(dataclasses.replace(base, d=tuple(map(tuple, d))),
                            audit=False)


def rs3x3_mutants(count, seed):
    """Seeded single-cell mutants of rs3 x rs3: D cells flipped in one
    place, asymmetric, or mirrored; multiplication cells changed anywhere,
    and every third one in the row of -1, so that x -> -x changes."""
    s = rs_3x3()
    rng = random.Random(seed)
    n = s.size
    for k in range(count):
        b, c, a = (rng.randrange(n) for _ in range(3))
        if k % 2:
            rows = [list(row) for row in s.d]
            rows[b][c] ^= 1 << a
            if k % 4 == 3:
                rows[c][b] = rows[b][c]
            yield dataclasses.replace(s, d=tuple(map(tuple, rows)))
        else:
            rows = [list(row) for row in s.mul]
            rows[s.minus_one if k % 3 == 0 else b][c] = a
            yield dataclasses.replace(s, mul=tuple(map(tuple, rows)))


def test_rs3x3_mutants():
    asymmetric = not_involutive = failing = 0
    for s in rs3x3_mutants(200, 18):
        assert_layer_agrees(s)
        neg = s.mul[s.minus_one]
        asymmetric += s.d != tuple(zip(*s.d))
        not_involutive += any(neg[neg[x]] != x for x in range(s.size))
        failing += not check_rs(s).overall
    assert asymmetric >= 40 and not_involutive >= 30 and failing >= 150


def test_list_rows_give_the_same_reports():
    """Tables given as lists, and an isometry relation given as a set, are
    kept as tuples and a frozenset, so the cached audits can hash them."""
    s = canonical_3()
    listed = dataclasses.replace(s, d=[list(r) for r in s.d])
    assert type(listed.d) is tuple and all(type(r) is tuple for r in listed.d)
    for audit in (check_rs, check_rs_derived, separation_audit, rs_to_mrred):
        assert audit(listed) == audit(s)
    listed = dataclasses.replace(s, mul=[list(r) for r in s.mul])
    assert check_rs(listed) == check_rs(s)
    for g in corpus_special_groups().values():
        listed = dataclasses.replace(g, mul=[list(r) for r in g.mul], iso=set(g.iso))
        assert type(listed.iso) is frozenset and type(listed.mul[0]) is tuple
        for audit in (check_sg, check_reduced, sg_to_mf):
            assert outcome(audit, listed) == outcome(audit, g)


def test_diagram_builds_the_image_once(monkeypatch):
    """The round-trip builds the image and the point count reads it: two
    reads, one semigroup built."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "q2xq2.mrs")
    images = []
    image = real_semigroups.mrred_to_rs
    monkeypatch.setattr(real_semigroups, "mrred_to_rs",
                        lambda a: images.append(image(a)) or images[-1])
    with contextlib.redirect_stdout(stdio.StringIO()):
        assert main(["diagram", path]) == 0
    assert len(images) == 2 and images[0] is images[1]
