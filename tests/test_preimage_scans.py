"""The preimage scans and the least special group on core's kernels agree
with the loops they replaced.

``reference_audits`` keeps, verbatim, ``embedding_kind`` with its
element-by-element reflect loop, ``smallest_special_group`` with its SG4
and SG5 fixpoint, ``_pointwise_cells`` on the eager preimage lists of
``_preimages``, ``_ars_point_cones`` with its scan of each point, and
``check_sg_morphism`` with its scan of all n^4 quadruples.  The library's
versions read ``_Unions`` over ``_fibres``, or one isometry closure, and
must return the same kinds, relations, tables, cones and reports:

- ``embedding_kind`` on every map that ``sper_embedding_check`` builds for
  the corpus real reduced structures, and on every injective morphism
  between the candidate multiring tables of order <= 3;
- ``check_sg_morphism`` on seeded arbitrary maps between the corpus
  special groups, the sum-k groups for k <= 4 and their closed and
  unclosed isometry mutants, and on identities between each and its
  mutants;
- ``smallest_special_group`` on every F_2^k, k <= 4, with each element as
  -1, and on F_2^5 with two choices: equal relations, nothing added;
- ``_pointwise_cells`` on every call of the sign-space tables, of
  ``sper``'s evaluation and of the separation audit, on sign spaces of one
  and two functions (whose sign maps have fewer than three fibres),
  fan_aos(1..6), the corpus spaces and real structures;
- ``_ars_point_cones`` on every three-valued space of those.
"""

import collections
import itertools
import random

import pytest

import reference_audits as reference
import reference_searches
from multialg import core, ordering_spaces, real_semigroups, spectra
from multialg import special_groups as spg
from multialg.corpus import (
    corpus_real_reduced_multifields,
    corpus_real_reduced_multirings,
    corpus_real_semigroups,
    corpus_sign_spaces,
    corpus_special_groups,
)
from multialg.ordering_spaces import AOS, ARS, aos_to_mfred, fan_aos, make_sign_space
from test_sign_tables import table_inputs
from test_triple_relation import _mutants, _raw_mutants


def real_reduced():
    return {**corpus_real_reduced_multifields(), **corpus_real_reduced_multirings()}


def test_embedding_kind_of_the_materialised_evaluations(monkeypatch):
    kinds = []

    def both(f):
        kind = core.embedding_kind(f)
        assert kind == reference.embedding_kind(f), f.source
        kinds.append(kind)
        return kind

    monkeypatch.setattr(spectra, "embedding_kind", both)
    for name, a in real_reduced().items():
        spectra.sper_embedding_check(a)
    assert sorted(kinds) == ["strongly_embedded"] * 2 + ["submultiring"] * 2


def test_embedding_kind_of_injective_candidate_morphisms():
    """Candidates sharing zero, one, neg and mul are grouped, so the
    constants, neg and mul of a map are tested once per pair of groups."""
    groups = collections.defaultdict(list)
    for a in reference_searches.candidate_multirings():
        groups[a.size, a.zero, a.one, a.neg, a.mul].append(a)
    kinds = collections.Counter()
    for sources, targets in itertools.product(groups.values(), repeat=2):
        a, b = sources[0], targets[0]
        for mp in itertools.permutations(range(b.size), a.size):
            if (mp[a.zero], mp[a.one]) != (b.zero, b.one) \
                    or any(mp[a.neg[x]] != b.neg[mp[x]] for x in range(a.size)) \
                    or any(mp[v] != b.mul[mp[x]][mp[y]] for x, row in enumerate(a.mul)
                           for y, v in enumerate(row)):
                continue
            for s, t in itertools.product(sources, targets):
                f = core.StructureMap(s, t, mp)
                try:
                    kind = core.embedding_kind(f)
                except core.InputError:
                    continue
                assert kind == reference.embedding_kind(f), (s, t, mp)
                kinds[kind] += 1
    assert kinds == {"embedded": 15790, "submultiring": 3086, "strongly_embedded": 576}


def sg_inputs() -> list:
    bases = dict(corpus_special_groups())
    for k in (1, 2, 3, 4):
        bases[f"sum{k}"] = spg.mf_to_sg(aos_to_mfred(fan_aos(k)))
    return [(name, g, _mutants(g, name, 2) + _raw_mutants(g, name, 2))
            for name, g in bases.items()]


def test_check_sg_morphism_reflection():
    rng = random.Random(49)
    groups = []
    checked = 0
    outcomes = collections.Counter()
    witnesses = set()

    def agree(f):
        nonlocal checked
        report = spg.check_sg_morphism(f)
        assert report == reference.check_sg_morphism(f), (f.source, f.mapping)
        checked += 1
        verdict = report.verdict("reflects-isometry")
        outcomes[verdict.passed] += 1
        witnesses.add(verdict.witness)

    for name, g, mutants in sg_inputs():
        identity = tuple(range(g.size))
        for m in mutants:
            for s, t in ((m, g), (g, m), (m, m)):
                agree(core.StructureMap(s, t, identity))
        groups += [g, *mutants]
    for g, h in itertools.product(groups, repeat=2):
        if g.size > 8 and h.size > 8 and rng.random() < 0.5:
            continue
        for _ in range(2):
            mp = [rng.randrange(h.size) for _ in range(g.size)]
            if rng.random() < 0.5:  # fixes 1 and -1, so the other verdicts vary
                mp[g.one], mp[g.minus_one] = h.one, h.minus_one
            agree(core.StructureMap(g, h, tuple(mp)))
    reference._pair_classes.cache_clear()
    assert checked > 2000
    assert outcomes[True] > 50 and outcomes[False] > 1000 and len(witnesses) > 100


def f2k(k: int):
    """F_2^k on a seeded order of its elements."""
    n = 1 << k
    perm = list(range(n))
    random.Random(k).shuffle(perm)
    names = [f"e{x}" for x in perm]
    index = {x: i for i, x in enumerate(perm)}
    return names, [[names[index[x ^ y]] for y in perm] for x in perm]


@pytest.mark.parametrize("k", range(6))
def test_smallest_special_group_is_one_closure(k, monkeypatch):
    names, mul = f2k(k)
    closed = []
    close = spg._close_iso

    def counted(n, raw):
        raw = list(raw)
        closed.append(len(raw))
        return close(n, raw)

    monkeypatch.setattr(spg, "_close_iso", counted)
    for minus_one in (names if k < 5 else names[:2]):
        closed.clear()
        g = spg.smallest_special_group(names, mul, minus_one)
        # make_special_group closes the empty relation, then the n forced pairs
        assert closed == [0, len(names)]
        expected = reference.smallest_special_group(names, mul, minus_one)
        assert (g, g.iso, g.closure_added) == (expected, expected.iso, 0), minus_one


def small_spaces() -> list:
    """Every set of one or two sign vectors on one or two points, in both
    modes: each sign map has one or two entries and may take the value 2."""
    out = []
    for mode, signs in ((AOS, (-1, 1)), (ARS, (-1, 0, 1))):
        for points in (1, 2):
            vectors = list(itertools.product(signs, repeat=points))
            for count in (1, 2):
                for chosen in itertools.combinations(vectors, count):
                    out.append(make_sign_space(mode, [f"x{i}" for i in range(points)],
                                               chosen))
    return out


def test_pointwise_cells(monkeypatch):
    calls = collections.Counter()

    def both(n, maps, *tables):
        got = core._pointwise_cells(n, maps, *tables)
        assert got == reference._pointwise_cells(n, maps, *tables), (n, maps)
        calls[min(len(m) for m in maps) if maps else 0] += 1
        return got

    for module in (ordering_spaces, spectra, real_semigroups):
        monkeypatch.setattr(module, "_pointwise_cells", both)
    spaces = small_spaces() + [fan_aos(k) for k in range(1, 7)]
    spaces += list(corpus_sign_spaces().values())
    for s in spaces:
        ordering_spaces.value_table.__wrapped__(s)
        if s.mode == ARS:
            ordering_spaces.transversal_table.__wrapped__(s)
    for a in real_reduced().values():
        spectra.sper_embedding_check(a)
    for s in corpus_real_semigroups().values():
        real_semigroups.separation_audit(s)
    assert len(small_spaces()) == 64
    assert calls[1] == 30 and calls[2] >= 85 and sum(calls.values()) >= 130


def test_ars_point_cones():
    spaces = [s for s in small_spaces() + table_inputs() if s.mode == ARS]
    for s in spaces:
        assert ordering_spaces._ars_point_cones(s) == reference._ars_point_cones(s), s
    assert len(spaces) > 150
