"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
criterion carries its stated time budget as a hard assertion.
"""

import contextlib
import dataclasses
import hashlib
import importlib.util
import itertools
import os
import random
import time
from operator import and_

import pytest

from multialg import core, enumeration, io
from multialg.cli import main
from multialg.core import (
    RelationalMultigroup,
    bits,
    check_multiring,
    check_relational_axioms,
    check_relational_lemmas,
    classify,
    enumerate_multiring_morphisms,
    krasner,
    q2,
    to_relational,
)
from multialg.corpus import (
    corpus_multifields,
    corpus_multigroups,
    corpus_multirings,
    corpus_real_reduced_multifields,
    corpus_real_reduced_multirings,
    corpus_real_semigroups,
    corpus_sign_spaces,
    corpus_special_groups,
    q2cube,
)
from multialg.enumeration import (
    enumerate_structures,
    generate_multigroups,
    generate_multirings,
    multigroup_canonical_key,
    multiring_canonical_key,
)
from multialg.ordering_spaces import (
    aos_mf_roundtrip,
    aos_to_mfred,
    ars_mr_roundtrip,
    check_aos,
    check_ars,
    fan_aos,
    mf_aos_roundtrip,
    mr_ars_roundtrip,
    mrred_to_ars,
    value_set_reassociation_check,
)
from multialg.real_semigroups import (
    canonical_3,
    check_rs,
    check_rs_derived,
    dt_table,
    enumerate_rs_morphisms,
    mr_rs_roundtrip,
    mrred_to_rs,
    rs_mr_roundtrip,
    rs_product,
    rs_to_mrred,
    separation_audit,
    unique_rs_search_on_3,
)
from multialg.sampling import BrokenTriangleOracle, TriangleOracle, sampled_check
from multialg.special_groups import (
    check_reduced,
    check_sg,
    check_sg789,
    check_smf,
    enumerate_sg_morphisms,
    mf_map_to_sg_map,
    mf_to_sg,
    sg_map_to_mf_map,
    sg_smf_roundtrip,
    sg_to_mf,
    smf_sg_roundtrip,
)
from multialg.spectra import (
    enumerate_orderings,
    enumerate_preorderings,
    hom_to_q2,
    is_real,
    ordering_hom_bijection_check,
    preordering_intersection_check,
    reduced_characterizations_check,
    sper_embedding_check,
)


def gate(number: int, description: str, ok: bool, elapsed: float,
         budget: float) -> None:
    mark = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"{mark}  criterion {number:02d}: {description} "
          f"({elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} failed"
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s"


def test_c01_axiom_ground_truth():
    t0 = time.monotonic()
    ok = True
    for f in (q2(), krasner()):
        report = check_multiring(f)
        ok = ok and report.overall and classify(f).multifield
    # the tabulated cells themselves
    s = q2()
    one, minus = s.carrier.index("1"), s.carrier.index("-1")
    ok = ok and s.add[one][minus] == 0b111 and s.add[one][one] == 1 << one
    k = krasner()
    ok = ok and k.add[k.one][k.one] == 0b11
    gate(1, "sign and Krasner multifields pass with tabulated cells",
         ok, time.monotonic() - t0, 1.0)


def _mutate_multigroup(m, rng):
    op = [list(r) for r in m.op]
    inv = list(m.inv)
    n = m.size
    kind = rng.randrange(3)
    if kind == 0:  # toggle one membership bit, keeping the cell nonempty
        x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        cell = op[x][y] ^ (1 << z)
        if cell:
            op[x][y] = cell
    elif kind == 1:
        x = rng.randrange(n)
        inv[x] = rng.randrange(n)
    else:
        x, y = rng.randrange(n), rng.randrange(n)
        op[x][y] = 1 << rng.randrange(n)
    return core.FiniteMultigroup(m.carrier, tuple(tuple(r) for r in op),
                                 tuple(inv), m.identity)


def _verify_axiom_witness(rel: RelationalMultigroup, axiom: str,
                          witness) -> bool:
    idx = rel.carrier.index
    pi = rel.pi
    r = rel.inv
    if axiom == "I-reversibility":
        x, y, z = (idx(w) for w in witness)
        return (x, y, z) in pi and ((z, r[y], x) not in pi
                                    or (r[x], z, y) not in pi)
    if axiom == "II-identity":
        x, y = (idx(w) for w in witness)
        return ((x, rel.identity, y) in pi) != (x == y)
    if axiom == "III-reassociation":
        u, v, w, x = (idx(t) for t in witness)
        lhs = any((u, v, p) in pi and (p, w, x) in pi
                  for p in range(rel.size))
        rhs = any((v, w, q) in pi and (u, q, x) in pi
                  for q in range(rel.size))
        return lhs and not rhs
    return True


def test_c02_relational_lemma_suite():
    t0 = time.monotonic()
    groups = corpus_multigroups()
    ok = all(check_relational_lemmas(to_relational(m)).overall
             for m in groups.values())
    rng = random.Random(20240817)
    pool = list(groups.values())
    mutants = 0
    failing = 0
    while mutants < 120:
        mutant = _mutate_multigroup(rng.choice(pool), rng)
        mutants += 1
        rel = to_relational(mutant)
        axioms = check_relational_axioms(rel)
        core_axioms = [v for v in axioms.verdicts
                       if v.axiom != "IV-commutativity"]
        lemma_report = check_relational_lemmas(rel)
        if all(v.passed for v in core_axioms):
            # axioms hold, so all six consequences must hold
            ok = ok and lemma_report.overall
        else:
            failing += 1
            ok = ok and not lemma_report.overall
            for v in core_axioms:
                if not v.passed:
                    ok = ok and _verify_axiom_witness(rel, v.axiom, v.witness)
    ok = ok and mutants >= 100 and failing >= 50
    gate(2, f"lemma suite on corpus plus {mutants} mutants "
            f"({failing} axiom-breaking)", ok, time.monotonic() - t0, 10.0)


def test_c03_full_distributivity():
    t0 = time.monotonic()
    ok = True
    for name, f in corpus_multifields().items():
        report = check_multiring(f)
        ok = ok and report.verdict("distributivity-full").passed
        # exhaustive direct scan as well
        for a, b, d in itertools.product(range(f.size), repeat=3):
            left = f.mul_masks(f.add[a][b], 1 << d)
            if left != f.add[f.mul[a][d]][f.mul[b][d]]:
                ok = False
    gate(3, "multifield sums distribute exactly", ok,
         time.monotonic() - t0, 30.0)


def test_c04_ordering_hom_bijection():
    t0 = time.monotonic()
    structures = dict(corpus_multirings())
    structures["q2cube"] = q2cube()
    ok = all(ordering_hom_bijection_check(r).overall
             for r in structures.values())
    q2_orderings = enumerate_orderings(q2())
    ok = ok and [o.labels for o in q2_orderings] == [("0", "1")]
    gate(4, "orderings correspond to sign morphisms on every corpus "
            "multiring", ok, time.monotonic() - t0, 60.0)


def test_c05_preordering_intersections():
    t0 = time.monotonic()
    ok = True
    proper = 0
    for name, f in corpus_multifields().items():
        for t in enumerate_preorderings(f):
            if not t.proper:
                continue
            proper += 1
            ok = ok and preordering_intersection_check(f, t).overall
    ok = ok and proper >= 3
    gate(5, f"{proper} proper preorderings equal their ordering "
            "intersections", ok, time.monotonic() - t0, 60.0)


def test_c06_reduced_characterization_agreement():
    t0 = time.monotonic()
    ok = True
    real_count = 0
    fields = dict(corpus_multifields())
    fields.update(corpus_real_reduced_multifields())
    for name, f in fields.items():
        report = reduced_characterizations_check(f)
        if is_real(f):
            real_count += 1
            ok = ok and report.verdict("three-way-agreement").passed
    ok = ok and real_count >= 3
    gate(6, f"three-way reduction agreement on {real_count} real corpus "
            "multifields", ok, time.monotonic() - t0, 30.0)


def test_c07_unique_real_semigroup_on_three():
    t0 = time.monotonic()
    count, survivor = unique_rs_search_on_3()
    three = canonical_3()
    ok = count == 1 and survivor is not None \
        and survivor.d == three.d \
        and dt_table(survivor) == dt_table(three)
    gate(7, "exactly one real semigroup on the sign ternary semigroup, "
            "matching the canonical tables", ok, time.monotonic() - t0, 60.0)


def test_c08_equivalence_roundtrips_and_functor_laws():
    t0 = time.monotonic()
    ok = True
    # special group <-> special multifield: table-exact
    for g in corpus_special_groups().values():
        ok = ok and sg_smf_roundtrip(g).overall
    for f in corpus_multifields().values():
        if check_smf(f).overall:
            ok = ok and smf_sg_roundtrip(f).overall
    # real semigroup <-> real reduced multiring: table-exact
    for s in corpus_real_semigroups().values():
        ok = ok and rs_mr_roundtrip(s).overall
    for a in corpus_real_reduced_multirings().values():
        ok = ok and mr_rs_roundtrip(a).overall
    # spaces <-> multifields/multirings: up to exhibited isomorphism
    for s in corpus_sign_spaces().values():
        ok = ok and (aos_mf_roundtrip(s).overall if s.mode == "aos"
                     else ars_mr_roundtrip(s).overall)
    for f in corpus_real_reduced_multifields().values():
        ok = ok and mf_aos_roundtrip(f).overall
    for a in corpus_real_reduced_multirings().values():
        ok = ok and mr_ars_roundtrip(a).overall

    # functor laws on enumerated hom-sets
    sgs = {n: corpus_special_groups()[n]
           for n in ("sg_z2_reduced", "sg_z2_trivial", "sg_z22_trivial",
                     "sg_z22_reduced")}
    mfs = {n: sg_to_mf(g) for n, g in sgs.items()}
    for (na, ga), (nb, gb) in itertools.product(sgs.items(), repeat=2):
        homs = enumerate_sg_morphisms(ga, gb)
        lifted = [sg_map_to_mf_map(f, mfs[na], mfs[nb]) for f in homs]
        ok = ok and len({m.mapping for m in lifted}) == len(homs)
        for f, mf in zip(homs, lifted):
            ok = ok and core.check_morphism(mf).overall
            ok = ok and mf_map_to_sg_map(mf, ga, gb).mapping == f.mapping
        if na == nb:
            ident = tuple(range(ga.size))
            ok = ok and any(f.mapping == ident for f in homs)
    rss = corpus_real_semigroups()
    for (na, sa), (nb, sb) in itertools.product(rss.items(), repeat=2):
        rs_homs = {f.mapping for f in enumerate_rs_morphisms(sa, sb)}
        mr_homs = {f.mapping for f in enumerate_multiring_morphisms(
            rs_to_mrred(sa), rs_to_mrred(sb))}
        ok = ok and rs_homs == mr_homs
    from multialg.ordering_spaces import (enumerate_space_morphisms,
                                          mf_map_to_aos_map, mfred_to_aos,
                                          space_morphism_check)
    mf_red = corpus_real_reduced_multifields()
    for (na, fa), (nb, fb) in itertools.product(mf_red.items(), repeat=2):
        homs = enumerate_multiring_morphisms(fa, fb)
        induced = [mf_map_to_aos_map(f) for f in homs]
        ok = ok and all(space_morphism_check(m).overall for m in induced)
        space_homs = enumerate_space_morphisms(mfred_to_aos(fb)[0],
                                               mfred_to_aos(fa)[0])
        ok = ok and {m.point_map for m in induced} \
            == {m.point_map for m in space_homs}
    gate(8, "all equivalence round-trips close and functor laws hold",
         ok, time.monotonic() - t0, 300.0)


def test_c09_separation_theorem():
    t0 = time.monotonic()
    ok = all(separation_audit(s).overall
             for s in corpus_real_semigroups().values())
    gate(9, "representation, transversality and separation reduce to "
            "morphisms into the three-element structure", ok,
         time.monotonic() - t0, 60.0)


def test_c10_local_global_embedding():
    t0 = time.monotonic()
    ok = True
    structures = dict(corpus_real_reduced_multifields())
    structures.update(corpus_real_reduced_multirings())
    for name, a in structures.items():
        report = sper_embedding_check(a)
        ok = ok and report.verdict("injective").passed \
            and report.verdict("morphism").passed \
            and report.verdict("strong").passed
    gate(10, "evaluation at orderings is an injective strong embedding",
         ok, time.monotonic() - t0, 60.0)


def test_c11_triangle_multifield_sampler():
    t0 = time.monotonic()
    good = TriangleOracle()
    ok = True
    for axiom in ("commutativity", "reversibility",
                  "associativity-membership", "distributivity-membership"):
        ok = ok and sampled_check(good, axiom, trials=10000, seed=7).overall
    broken = BrokenTriangleOracle()
    report = sampled_check(broken, "reversibility", trials=10000, seed=7)
    ok = ok and not report.overall and report.verdicts[0].witness is not None
    gate(11, "10^4 seeded trials: clean oracle silent, broken oracle caught",
         ok, time.monotonic() - t0, 120.0)


def _bruteforce_fixture():
    fixture_path = os.path.join(os.path.dirname(__file__), "fixtures",
                                "bruteforce_mf3.py")
    spec = importlib.util.spec_from_file_location("bruteforce_mf3",
                                                  fixture_path)
    fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixture)
    return fixture


def _as_fixture_tables(r):
    add = [[frozenset(core.bits(cell)) for cell in row] for row in r.add]
    return (r.size, r.zero, r.one, r.neg, [list(row) for row in r.mul], add)


def test_c12_enumeration_oracle():
    t0 = time.monotonic()
    fixture = _bruteforce_fixture()

    expected = fixture.enumerate_multifields(3)

    found = {fixture.canonical(*_as_fixture_tables(r))
             for r in enumerate_structures("multifield", 3, up_to_iso=True)}
    ok = found == expected
    from multialg.corpus import trivial_sg_multifield
    for landmark in (q2(), krasner(), trivial_sg_multifield()):
        ok = ok and fixture.canonical(*_as_fixture_tables(landmark)) in expected
    gate(12, f"enumeration matches the independent brute force "
             f"({len(expected)} classes) and contains the landmarks",
         ok, time.monotonic() - t0, 120.0)


@pytest.mark.parametrize("kind, classes", [("multiring", 17), ("multidomain", 14)])
def test_enumeration_oracle_for_multirings_and_multidomains(kind, classes):
    # The brute force's own multiring and multidomain checks, with no import
    # from the library, against enumerate_structures up to isomorphism.
    fixture = _bruteforce_fixture()
    expected = fixture.enumerate_classes(3, getattr(fixture, "check_" + kind))
    found = [fixture.canonical(*_as_fixture_tables(r))
             for r in enumerate_structures(kind, 3, up_to_iso=True)]
    assert len(found) == len(set(found)) == len(expected) == classes
    assert set(found) == expected


def test_c13_core_audits_at_the_carrier_cap():
    # Keeps the audits O(n^3): an n^4 lemma scan of K^6 alone takes about a minute.
    t0 = time.monotonic()
    from multialg.constructions import product
    ok = True
    for r in (core.ring_multiring(64), product([krasner()] * 6)):
        ok = ok and r.size == core.CARRIER_CAP and check_multiring(r).overall
        ok = ok and check_relational_lemmas(
            to_relational(r.additive_multigroup())).overall
    gate(13, "multiring audit and relational lemmas on Z/64 and K^6",
         ok, time.monotonic() - t0, 10.0)


def _shuffled(r, seed):
    """Copy of multiring r with element x moved to a seeded index perm[x]."""
    n = r.size
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    old = [0] * n
    for x, new in enumerate(perm):
        old[new] = x

    def move(mask):
        return sum(1 << perm[c] for c in range(n) if (mask >> c) & 1)

    return core.FiniteMultiring(
        core.Carrier(tuple(r.names[old[i]] for i in range(n))),
        tuple(tuple(move(r.add[old[i]][old[j]]) for j in range(n)) for i in range(n)),
        tuple(tuple(perm[r.mul[old[i]][old[j]]] for j in range(n)) for i in range(n)),
        tuple(perm[r.neg[old[i]]] for i in range(n)),
        perm[r.zero], perm[r.one])


def _relabels_into(a, b, f, onto):
    """f: a -> b preserves the constants, neg and mul, and maps every add
    cell into (with ``onto``: onto) the image cell; checked on the tables,
    a row x at a time over y."""
    ok = f[a.zero] == b.zero and f[a.one] == b.one
    moved = {}  # each distinct add cell of a -> the mask of its images
    for cell in set(itertools.chain.from_iterable(a.add)):
        moved[cell] = 0
        for c in bits(cell):
            moved[cell] |= 1 << f[c]
    for x, fx in enumerate(f):
        moved_row = list(map(moved.__getitem__, a.add[x]))
        image_row = list(map(b.add[fx].__getitem__, f))
        ok = ok and f[a.neg[x]] == b.neg[fx] \
            and list(map(f.__getitem__, a.mul[x])) == list(map(b.mul[fx].__getitem__, f)) \
            and moved_row == (image_row if onto else list(map(and_, moved_row, image_row)))
    return ok


def test_c14_searches_at_the_carrier_cap():
    # A search that only checks assigned pairs ran over 290 s on shuffled Z/64.
    t0 = time.monotonic()
    from multialg.constructions import product
    k = krasner()
    cases = ([(core.ring_multiring(64), seed) for seed in (0, 1)]
             + [(product([k] * 6), 0)]
             + [(product([q2(), q2(), k, k]), seed) for seed in range(8)])
    ok = True
    for r, seed in cases:
        s = _shuffled(r, seed)
        iso = core.find_isomorphism(r, s)
        ok = ok and iso is not None and sorted(iso.mapping) == list(range(r.size)) \
            and _relabels_into(r, s, iso.mapping, onto=True)
    cube = q2cube()
    homs = hom_to_q2(cube)
    ok = ok and len(homs) == 3 and all(
        _relabels_into(cube, q2(), f.mapping, onto=False) for f in homs)
    gate(14, "isomorphisms of shuffled Z/64, K^6 and q2^2 x K^2; hom(q2^3, q2)",
         ok, time.monotonic() - t0, 10.0)


def test_c15_representation_audits_at_scale():
    # Nested reassociation loops took about 20 s on these calls.
    t0 = time.monotonic()
    rs3_cube = rs_product([canonical_3()] * 3)
    ok = check_rs(rs3_cube).overall and check_rs_derived(rs3_cube).overall
    cube = q2cube()
    ok = ok and check_rs(mrred_to_rs(cube)).overall \
        and check_ars(mrred_to_ars(cube)[0]).overall
    fan = fan_aos(5)
    ok = ok and check_aos(fan).overall and value_set_reassociation_check(fan).overall
    gate(15, "real semigroup, spectrum and ordering space audits on rs3^3, "
         "the images of q2^3 and the fan on five points",
         ok, time.monotonic() - t0, 10.0)


def test_c16_special_group_audits_on_fans(tmp_path):
    # Building the triple-isometry rows pair by pair made fan-4 diagram take
    # 8 s and fan-5 diagram over 3 min.
    t0 = time.monotonic()
    ok = True
    for k in (4, 5):
        path = str(tmp_path / f"fan{k}mf.mrs")
        io.write_structure(path, aos_to_mfred(fan_aos(k)))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            ok = ok and main(["diagram", path]) == 0
    g = mf_to_sg(aos_to_mfred(fan_aos(4)))
    ok = ok and check_sg(g).overall and check_sg789(g).overall \
        and check_reduced(g).overall
    gate(16, "diagram on the fan-4 and fan-5 multifields and the special "
             "group audits on the fan-4 group", ok, time.monotonic() - t0, 10.0)


def test_c17_labelled_multigroups_of_order_four():
    # Auditing every table that passes partial reversibility made this
    # about 4.2 s: 104,992 candidates for 1,560 multigroups.
    t0 = time.monotonic()
    keys = [multigroup_canonical_key(m) for m in generate_multigroups(4)]
    ok = len(keys) == 1560 and len(set(keys)) == 97
    gate(17, "all 1,560 labelled multigroups of order 4 and their 97 classes",
         ok, time.monotonic() - t0, 3.0)


def test_c18_special_multifield_audit_on_fan5(tmp_path):
    # Property v searched up to n^3 splits for each of the n^4 quadruples:
    # check_smf took about 56 s on the fan-5 multifield, and each command
    # below about 60 s.
    t0 = time.monotonic()
    f = aos_to_mfred(fan_aos(5))
    ok = check_smf(f).overall
    mf_path, sg_path = str(tmp_path / "fan5mf.mrs"), str(tmp_path / "fan5sg.mrs")
    io.write_structure(mf_path, f)
    io.write_structure(sg_path, mf_to_sg(f))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        ok = ok and main(["check", "--level", "all", "--format", "jsonl",
                          mf_path]) == 0
        ok = ok and main(["roundtrip", "--pair", "sg-smf", "--format", "jsonl",
                          sg_path]) == 0
    gate(18, "the special multifield audit, check --level all and the sg-smf "
             "round-trip on the fan-5 multifield and its special group",
         ok, time.monotonic() - t0, 10.0)


def test_c19_ideal_lattice_at_the_cap(tmp_path):
    # Every (ideal, element) pair was reclosed from scratch, and the ideal
    # list was built twice per audit: check --level all took about 12.8 s on
    # K^6 and 2.5 s on Z/64.
    from multialg.constructions import product

    t0 = time.monotonic()
    ok = True
    for name, r in (("k6", product([krasner()] * 6)),
                    ("z64", core.ring_multiring(64))):
        path = str(tmp_path / f"{name}.mrs")
        io.write_structure(path, r)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            ok = ok and main(["check", "--level", "all", "--format", "jsonl",
                              path]) == 0
    gate(19, "check --level all on K^6 and Z/64, ideal lattice and quotients "
             "included", ok, time.monotonic() - t0, 10.0)


def test_c20_sign_space_maps_on_many_points():
    # Every one of the t^s point maps was audited: 6^8 = 1,679,616 maps from
    # the eight-point space below into the fan-6 space, about 20 s at 12 us
    # each (estimated from 20,000 of them).
    from multialg.ordering_spaces import (enumerate_space_morphisms,
                                          find_space_isomorphism,
                                          make_sign_space)

    t0 = time.monotonic()
    f = (1, 1, 1, 1, -1, -1, -1, -1)
    s = make_sign_space("aos", [f"p{i}" for i in range(8)],
                        [(1,) * 8, (-1,) * 8, f, tuple(-v for v in f)])
    want = [(y,) * 4 + (z,) * 4 for y in range(6) for z in range(6)]
    ok = [m.point_map for m in enumerate_space_morphisms(s, fan_aos(6))] == want
    fan7 = fan_aos(7)
    perm = random.Random(20).sample(range(7), 7)
    moved = make_sign_space("aos", [fan7.points[i] for i in perm],
                            [[h[i] for i in perm] for h in fan7.functions])
    ok = ok and find_space_isomorphism(fan7, moved) is not None
    gate(20, "the 36 point maps from an eight-point space into the fan-6 "
             "space, and a fan-7 isomorphism", ok, time.monotonic() - t0, 10.0)


def test_c21_labelled_multirings_of_order_four():
    # Every placement of the zero and the one was searched and audited:
    # about 30 s for the 5,136 labelled multirings of order 4.
    t0 = time.monotonic()
    found = list(generate_multirings(4))
    classes = {multiring_canonical_key(r): r for r in found}
    orbits = sum(24 // len(list(core._table_morphisms(r, r, bijective=True)))
                 for r in classes.values())
    ok = len(found) == orbits == 5136 and len(classes) == 219
    gate(21, "all 5,136 labelled multirings of order 4 in 219 classes, "
             "each class 24/|Aut| of them", ok, time.monotonic() - t0, 10.0)


def test_c22_krasner_power_six_at_every_level(tmp_path, capsys):
    # Each (a, b) row pair of mul-associativity and each (x, y) row of the
    # reassociation scan made Python calls per element; K^6 was the slowest
    # input of the check ladder.  The digests are of the reports before.
    from multialg.constructions import product

    t0 = time.monotonic()
    path = str(tmp_path / "k6.mrs")
    io.write_structure(path, product([krasner()] * 6))
    ok = True
    for level, digest in (("axioms", "120728845a1b"), ("all", "ef179600f169")):
        ok = ok and main(["check", "--level", level, "--format", "jsonl",
                          path]) == 0
        out = capsys.readouterr().out.encode()
        ok = ok and hashlib.sha256(out).hexdigest().startswith(digest)
    gate(22, "check --level axioms and all on K^6, reports unchanged", ok,
         time.monotonic() - t0, 10.0)


def test_c23_packed_unions_and_column_distributivity(tmp_path, capsys):
    # Each cell union ORed tuples element by element and each (a, b) pair of
    # distributivity gathered its row through per-element calls; the K^6
    # multiring audit took about 75 ms in-process.  The digests are of the
    # reports before.
    from multialg.constructions import product

    t0 = time.monotonic()
    runs = (
        ("axioms", "k6", product([krasner()] * 6), "120728845a1b"),
        ("axioms", "z64", core.ring_multiring(64), "120728845a1b"),
        ("all", "q2cube", q2cube(), "72c8e532f9bc"),
        ("all", "fan4mf", aos_to_mfred(fan_aos(4)), "7fab935742e3"),
    )
    ok = True
    for level, name, structure, digest in runs:
        path = str(tmp_path / f"{name}.mrs")
        io.write_structure(path, structure)
        ok = ok and main(["check", "--level", level, "--format", "jsonl",
                          path]) == 0
        out = capsys.readouterr().out.encode()
        ok = ok and hashlib.sha256(out).hexdigest().startswith(digest)
    gate(23, "check --level axioms on K^6 and Z/64 and --level all on q2^3 "
             "and the fan-4 multifield, reports unchanged", ok,
         time.monotonic() - t0, 10.0)


def test_c24_real_semigroup_layer_on_masks(tmp_path, capsys):
    # D^t, RS2, RS4, RS5, RS6, RS8, separation and the image of a real
    # reduced multiring were tested one triple at a time; separation took
    # about 40 ms on rs3^3 in-process.  The digests are of the reports
    # before.
    t0 = time.monotonic()
    check = ["check", "--level", "all", "--format", "jsonl"]
    runs = (
        (check, "rs3cube", rs_product([canonical_3()] * 3), "755a4b1458ea"),
        (check, "rs_sum5", mrred_to_rs(aos_to_mfred(fan_aos(5))), "755a4b1458ea"),
        (["roundtrip", "--pair", "rs-mr", "--format", "jsonl"], "rs3cube", None,
         "35193ee8ad27"),
        (["diagram"], "q2cube", q2cube(), "53657b5981f1"),
    )
    ok = True
    for args, name, structure, digest in runs:
        path = str(tmp_path / f"{name}.mrs")
        if structure is not None:
            io.write_structure(path, structure)
        ok = ok and main(args + [path]) == 0
        out = capsys.readouterr().out.encode()
        ok = ok and hashlib.sha256(out).hexdigest().startswith(digest)
    gate(24, "check --level all on rs3^3 and the sum-5 real semigroup, the "
             "rs-mr round-trip on rs3^3 and diagram on q2^3, reports unchanged",
         ok, time.monotonic() - t0, 10.0)


def test_c25_canonical_key_of_z10():
    # The key narrowed its 40,320 relabelings one row at a time, each row a
    # Python comprehension; the cold key of Z/10 took about 0.6 s.
    t0 = time.monotonic()
    z10 = core.ring_multiring(10)
    enumeration._relabelings.cache_clear()
    key = multiring_canonical_key(z10)
    ok = key == multiring_canonical_key(_shuffled(z10, 25))
    gate(25, "canonical keys of Z/10 and a shuffled copy are equal", ok,
         time.monotonic() - t0, 10.0)


def test_c26_hom_sets_in_closed_form():
    # A morphism K^a -> K^b or q2^a -> q2^b is a projection on each of the
    # b factors, so there are a^b of them.  The kernel tried every value of
    # a variable before cutting; K^5 -> K^5 took about 3.5 s of search.
    from multialg.constructions import product

    t0 = time.monotonic()
    ok = True
    for base, top in ((krasner(), 4), (q2(), 3)):
        for a, b in itertools.product(range(1, top + 1), repeat=2):
            homs = enumerate_multiring_morphisms(product([base] * a),
                                                 product([base] * b))
            ok = ok and len(homs) == a ** b
    k5 = product([krasner()] * 5)
    homs = enumerate_multiring_morphisms(k5, k5)
    ok = ok and len(homs) == 3125 and all(
        _relabels_into(k5, k5, f.mapping, onto=False) for f in homs)
    gate(26, "|Hom(K^a, K^b)| = a^b for a, b <= 4 and |Hom(q2^a, q2^b)| = a^b "
             "for a, b <= 3; the 3,125 maps K^5 -> K^5 are morphisms", ok,
         time.monotonic() - t0, 10.0)


def test_c27_marshall_quotients_and_preorderings_at_the_cap(tmp_path):
    # The Marshall quotient tested x ~ y over every pair (s, t) and each sum
    # over every (s, t, v): construct marshall at the units of Z/64 took
    # about 7 s.  The preorderings tried every set of non-squares: 3.3 s on
    # q2^3, and on the fan-5 multifield (2^31 sets) and Z/64 (2^52) they
    # never finished.
    from multialg.constructions import units_mask

    t0 = time.monotonic()
    z64 = core.ring_multiring(64)
    path, out = str(tmp_path / "z64.mrs"), str(tmp_path / "marshall.mrs")
    io.write_structure(path, z64)
    units = ",".join(z64.carrier.labels(units_mask(z64)))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        ok = main(["construct", "marshall", path, f"--set={units}",
                   "--out", out]) == 0
    m = io.read_structure(out)
    ok = ok and m.names == ("[0]", "[1]", "[2]", "[4]", "[8]", "[16]", "[32]") \
        and check_multiring(m).overall
    for r, count in ((q2cube(), 8), (aos_to_mfred(fan_aos(5)), 32), (z64, 1)):
        cones = enumerate_preorderings(r)
        ok = ok and len(cones) == count and all(
            preordering_intersection_check(r, t).overall
            for t in cones if t.proper)
    gate(27, "construct marshall at the units of Z/64; the preorderings of "
             "q2^3, the fan-5 multifield and Z/64 and their intersections",
         ok, time.monotonic() - t0, 10.0)


def test_c28_distributivity_at_the_generators(tmp_path, capsys):
    # Distributivity was scanned at every (a, b, d): about 10 ms of the
    # 23 ms multiring audit of K^6, 7 ms of Z/64's.  Now it is checked at
    # the generators of mul first.  The digests are of the reports before;
    # on the add mutants the pre-check fails and the full scan names the
    # witnesses.
    from multialg.constructions import product

    t0 = time.monotonic()
    k6, z64 = product([krasner()] * 6), core.ring_multiring(64)
    runs = (
        ("axioms", "k6", k6, "120728845a1b"),
        ("axioms", "z64", z64, "120728845a1b"),
        ("all", "fan5mf", aos_to_mfred(fan_aos(5)), "7fab935742e3"),
    )
    ok = True
    for level, name, structure, digest in runs:
        path = str(tmp_path / f"{name}.mrs")
        io.write_structure(path, structure)
        ok = ok and main(["check", "--level", level, "--format", "jsonl",
                          path]) == 0
        out = capsys.readouterr().out.encode()
        ok = ok and hashlib.sha256(out).hexdigest().startswith(digest)
    rng = random.Random(28)
    fallbacks = 0
    for base in (k6, z64):
        for _ in range(20):
            i, j = rng.randrange(64), rng.randrange(64)
            flipped = base.add[i][j] ^ (1 << rng.randrange(64))
            if not flipped:
                continue
            add = [list(row) for row in base.add]
            add[i][j] = flipped
            m = dataclasses.replace(base, add=tuple(map(tuple, add)))
            report = check_multiring(m)
            full_scan = tuple(w and tuple(m.names[x] for x in w)
                              for w in core._distributivity_defects(m.add, m.mul))
            ok = ok and full_scan == (report.verdict("distributivity-weak").witness,
                                      report.verdict("distributivity-full").witness)
            fallbacks += full_scan != (None, None)
    ok = ok and fallbacks >= 30
    gate(28, "check --level axioms on K^6 and Z/64 and --level all on the "
             "fan-5 multifield, reports unchanged; 40 add mutants at the cap "
             "get the full scan's witnesses", ok, time.monotonic() - t0, 10.0)


def test_c29_special_multifield_audit_on_finite_fields(tmp_path, capsys):
    # Property v built a split row for every (a, c) of nonzero elements and
    # scanned every (a, b, c) in Python: check_smf was 134 of the 165 ms of
    # check --level all on F_64, though only the 63 rows with a^2 = c^2 can
    # hold a split.  F_49 fails v.  The digests are of the reports before.
    from test_finite_fields import finite_fields

    t0 = time.monotonic()
    ok = True
    for q, digest, split in ((64, "a100b62d0595", None),
                             (49, "f098c086d771", ("3", "4", "4", "2"))):
        f = finite_fields.finite_field(q)
        ok = ok and check_smf(f).verdict("v-triple-split-swap").witness == split
        path = str(tmp_path / f"f{q}.mrs")
        io.write_structure(path, f)
        ok = ok and main(["check", "--level", "all", "--format", "jsonl", path]) == 0
        out = capsys.readouterr().out.encode()
        ok = ok and hashlib.sha256(out).hexdigest().startswith(digest)
    gate(29, "check --level all on F_64 and F_49, reports unchanged; F_49 "
             "fails property v", ok, time.monotonic() - t0, 10.0)
