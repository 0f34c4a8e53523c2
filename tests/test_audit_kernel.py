"""The mask-algebra axiom audits agree with the naive reference.

``reference_audits`` holds the audits as they were before the reassociation
scan: 4-deep loops of set probes.  Here ``check_multigroup``,
``check_multiring``, ``check_relational_axioms`` and
``check_relational_lemmas`` must return equal ``CheckReport``s -- the same
axiom, pass flag, first witness, note and informational flag for every
verdict -- on the corpus, on every candidate table of order <= 3, on a
seeded sample of the order-4 candidates, on single-cell mutants and on
relational presentations built from arbitrary triple sets.
``check_relational_lemmas`` on a multigroup itself, read off its own
table, must equal it on the triples of ``to_relational``.

The real-semigroup audits ``check_rs`` and ``check_rs_derived`` and the
sign-space audits ``check_aos``, ``check_ars`` and
``value_set_reassociation_check`` are pinned the same way: on the corpus,
on rs3^3 and the real semigroup and spectrum images of q2^2 and q2^3, on
fans, on every candidate representation relation on the sign semigroup, on
seeded single-cell mutants and on sets of sign vectors on few points.  The
derived consequences follow from RS0-RS8, so only failing inputs tell two
versions of them apart.
"""

import dataclasses
import functools
import itertools
import math
import os
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_audits as reference
import reference_searches
from multialg import core, io, ordering_spaces, real_semigroups
from multialg.constructions import product
from multialg.corpus import (
    corpus_multigroups,
    corpus_real_semigroups,
    corpus_sign_spaces,
    q2cube,
    q2xq2,
)
from multialg.enumeration import (
    _involutions_fixing,
    _labels,
    _monoid_tables,
)
from multialg.ordering_spaces import (
    AOS,
    ARS,
    SignSpace,
    aos_to_mfred,
    ars_to_mrred,
    fan_aos,
    function_label,
    make_sign_space,
    mrred_to_ars,
)
from multialg.real_semigroups import (
    RealSemigroup,
    canonical_3,
    mrred_to_rs,
    rs_product,
    rs_to_mrred,
)
from multialg.special_groups import SpecialGroup, sg_to_mf
from test_row_kernel import single_valued_tables

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def assert_relational_agrees(rel):
    assert core.check_relational_axioms(rel) == reference.check_relational_axioms(rel)
    assert core.check_relational_lemmas(rel) == reference.check_relational_lemmas(rel)


def assert_multigroup_agrees(m):
    assert core.check_multigroup(m) == reference.check_multigroup(m)
    rel = core.to_relational(m)
    assert_relational_agrees(rel)
    # The lemmas on the multigroup's own table, as the CLI audits them.
    assert core.check_relational_lemmas(m) == core.check_relational_lemmas(rel)
    assert_shared_scans_agree(m)


def assert_multiring_agrees(r):
    assert core.check_multiring(r) == reference.check_multiring(r)
    assert_shared_scans_agree(r)
    assert_multigroup_agrees(r.additive_multigroup())


def assert_shared_scans_agree(s):
    """The axioms and lemmas reports that ``check`` takes from one audit of
    the (additive) table equal the two standalone audits."""
    if isinstance(s, core.FiniteMultiring):
        expected = core.check_multiring(s), core.check_relational_lemmas(s.additive_multigroup())
    else:
        expected = core.check_multigroup(s), core.check_relational_lemmas(s)
    assert core._axioms_and_lemmas(s) == expected


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


def test_lemmas_on_mutant_pool_tables():
    """The lemma audit of a multigroup read off its own table equals the one
    on its triples: on the corpus multigroups, the additive groups of the
    multirings of the check-mutants bench, and 96 seeded one-element flips
    of a cell of each, as that bench's pool makes them."""
    rng = random.Random(20)
    q2, k = core.q2(), core.krasner()
    groups = list(corpus_multigroups().values()) + [
        r.additive_multigroup() for r in (
            core.ring_multiring(8), core.ring_multiring(12), core.ring_multiring(16),
            q2xq2(), product([q2, k, k]), aos_to_mfred(fan_aos(3)))]
    failing = 0
    for m in groups:
        n = m.size
        for trial in range(97):
            g = m
            if trial:
                i, j = rng.randrange(n), rng.randrange(n)
                flipped = m.op[i][j] ^ (1 << rng.randrange(n))
                if not flipped:
                    continue
                g = dataclasses.replace(m, op=_replace_cell(m.op, i, j, flipped))
            report = core.check_relational_lemmas(g)
            assert report == core.check_relational_lemmas(core.to_relational(g))
            failing += not report.overall
    assert failing > 500


def test_every_candidate_of_order_at_most_three():
    """All candidate tables of the generators, failing ones included, from
    the reference addition-table generator, which prunes less."""
    seen = 0
    for n in (1, 2, 3):
        carrier = core.Carrier(_labels(n))
        for identity in range(n):
            for inv in _involutions_fixing(n, identity):
                for op in reference_searches._addition_tables(n, identity, inv):
                    assert_multigroup_agrees(
                        core.FiniteMultigroup(carrier, op, inv, identity))
                    seen += 1
        for zero, one in itertools.permutations(range(n), 2):
            for neg in _involutions_fixing(n, zero):
                for mul in _monoid_tables(n, zero, one):
                    for add in reference_searches._addition_tables(n, zero, neg):
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
            for op in reference_searches._addition_tables(4, identity, inv):
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


def _seeded_mutant(base, rng):
    """One cell of the (additive) table with an element flipped (a flip that
    would empty it leaves it), or above 16 elements moved to another single
    value, so that the table is still read as byte rows; or a moved product
    or inverse."""
    n = base.size
    i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    ring = isinstance(base, core.FiniteMultiring)
    table, inverse = ("add", "neg") if ring else ("op", "inv")
    kind = rng.choice(("cell", "cell", "inverse") + (("mul",) if ring else ()))
    if kind == "mul":
        return dataclasses.replace(base, mul=_replace_cell(base.mul, i, j, v))
    if kind == "inverse":
        moved = list(getattr(base, inverse))
        moved[i] = v
        return dataclasses.replace(base, **{inverse: tuple(moved)})
    cells = getattr(base, table)
    value = 1 << v if n > 16 else cells[i][j] ^ (1 << v)
    return dataclasses.replace(base, **{table: _replace_cell(cells, i, j, value or 1 << v)})


def test_shared_scans_on_seeded_mutants():
    """``check``'s one audit of a table for both reports, and up to 16
    elements the naive references, on seeded single-cell mutants of Z/8,
    Z/12, q2 x K^2, the fan-3 multifield, the corpus multigroups, and Z/17
    and Z/32 read as byte rows, and on the fan-3 multifield with 8 added to
    each cell of row 8.  Among them are
    tables whose first reassociation defect (iii's) comes before III's
    first, tables whose defects all leave (uv)w inside u(vw), so that only
    lemma (e) reads them, and tables whose identity row and column differ,
    so that ii and II disagree."""
    rng = random.Random(40)
    q2, k = core.q2(), core.krasner()
    fan3 = aos_to_mfred(fan_aos(3))
    bases = [core.ring_multiring(8), core.ring_multiring(12), product([q2, k, k]), fan3,
             *corpus_multigroups().values(), core.ring_multiring(17),
             core.ring_multiring(32)]
    # The references take longest from 9 to 16 elements.
    mutants = [_seeded_mutant(base, rng) for base in bases
               for _ in range(12 if 8 < base.size <= 16 else 40)]
    # 8 added to each cell of row 8 of the fan-3 multifield: on all but one
    # every defect leaves (uv)w inside u(vw).
    mutants += [dataclasses.replace(fan3, add=_replace_cell(fan3.add, 8, y, cell | 1 << 8))
                for y, cell in enumerate(fan3.add[8])]
    seen = dict.fromkeys(("iii before III", "reverse only", "ii vs II", "byte rows"), 0)
    for mutant in mutants:
        ring = isinstance(mutant, core.FiniteMultiring)
        m = mutant.additive_multigroup() if ring else mutant
        if m.size > 16:  # the naive references take seconds here
            assert_shared_scans_agree(mutant)
            assert_shared_scans_agree(m)
        else:
            (assert_multiring_agrees if ring else assert_multigroup_agrees)(mutant)
        op, e = m.op, m.identity
        defects = list(core._reassociation_defects(op, core._Elements()))
        forward = [left & ~right for *_, left, right in defects]
        seen["iii before III"] += bool(defects) and not forward[0] and any(forward)
        seen["reverse only"] += bool(defects) and not any(forward)
        singleton = [1 << x for x in range(m.size)]
        seen["ii vs II"] += (list(op[e]) == singleton) != ([row[e] for row in op] == singleton)
        seen["byte rows"] += core._byte_rows(op) is not None \
            and not core.check_multigroup(m).overall
    assert all(count >= 5 for count in seen.values()), seen


def _naive_reversibility(op, r, names):
    """The least (x, y, z) with z in xy and x outside z r(y) or y outside
    r(x) z, element by element."""
    for x, y in itertools.product(range(len(op)), repeat=2):
        for z in core.bits(op[x][y]):
            if not (op[z][r[y]] >> x) & 1 or not (op[r[x]][z] >> y) & 1:
                return names[x], names[y], names[z]
    return None


def test_reversibility_above_16_elements():
    """Above 16 elements reversibility is first tested on whole transposed
    bit matrices; the verdict and witness must equal the element-by-element
    loop's on seeded mutants with 17, 27, 32 and 64 elements: one-bit flips
    of a cell (non-commutative tables), changed inverses (r no longer an
    involution) and both at once."""
    rng = random.Random(26)
    bases = [aos_to_mfred(fan_aos(4)), rs_to_mrred(rs_product([canonical_3()] * 3)),
             core.ring_multiring(32), product([core.krasner()] * 6)]
    failing = noncommutative = noninvolutive = 0
    for base in bases:
        m = base.additive_multigroup()
        n = m.size
        assert n in (17, 27, 32, 64)
        assert core.check_multigroup(m).verdicts[0].passed
        for trial in range(30):
            g = m
            if trial % 3 != 1:
                i, j = rng.randrange(n), rng.randrange(n)
                flipped = g.op[i][j] ^ (1 << rng.randrange(n))
                if flipped:
                    g = dataclasses.replace(g, op=_replace_cell(g.op, i, j, flipped))
            if trial % 3 != 0:
                inv = list(g.inv)
                inv[rng.randrange(n)] = rng.randrange(n)
                g = dataclasses.replace(g, inv=tuple(inv))
            expected = _naive_reversibility(g.op, g.inv, g.carrier.names)
            verdict = core.check_multigroup(g).verdicts[0]
            assert (verdict.axiom, verdict.witness) == ("i-reversibility", expected)
            failing += expected is not None
            noncommutative += g.op != tuple(zip(*g.op))
            noninvolutive += any(g.inv[g.inv[x]] != x for x in range(n))
    assert failing > 60 and noncommutative > 60 and noninvolutive > 40


def test_reversibility_halves_above_16_elements():
    """Tables that meet one half of reversibility and not the other: random
    triples (x, y, z), z in xy, closed under (x, y, z) -> (z, r(y), x), the
    first half, or under (x, y, z) -> (r(x), z, y), the second, or both,
    with r a random involution.  Cells may be empty, as in the relational
    audit's tables."""
    rng = random.Random(27)
    halves = [lambda x, y, z, r: (z, r[y], x), lambda x, y, z, r: (r[x], z, y)]
    for n in (17, 27, 32, 64):
        for used in ([0], [1], [0, 1]):
            r = list(range(n))
            order = list(range(n))
            rng.shuffle(order)
            for x, y in zip(order[::2], order[1::2]):
                r[x], r[y] = y, x
            triples = {(rng.randrange(n), rng.randrange(n), rng.randrange(n))
                       for _ in range(3 * n)}
            pending = list(triples)
            while pending:
                t = pending.pop()
                for k in used:
                    image = halves[k](*t, r)
                    if image not in triples:
                        triples.add(image)
                        pending.append(image)
            op = [[0] * n for _ in range(n)]
            for x, y, z in triples:
                op[x][y] |= 1 << z
            names = tuple(map(str, range(n)))
            expected = _naive_reversibility(op, r, names)
            assert core._reversibility_defect(op, r, names) == expected
            assert (expected is None) == (used == [0, 1]), (n, used)


def _random_involution(rng, n):
    r = list(range(n))
    order = list(range(n))
    rng.shuffle(order)
    for x, y in zip(order[::2], order[1::2]):
        r[x], r[y] = y, x
    return r


def _value_moves(table, rng, count):
    """The table, then ``count`` seeded copies with one cell {v} moved to
    another singleton."""
    yield table
    n = len(table)
    for _ in range(count):
        i, j = rng.randrange(n), rng.randrange(n)
        value = rng.choice([v for v in range(n) if 1 << v != table[i][j]])
        yield _replace_cell(table, i, j, 1 << value)


def test_reversibility_on_byte_rows():
    """Tables of singletons of 16 to 64 elements, which are read as byte
    rows, and 30 seeded one-cell value moves of each: the
    witness must equal the element-by-element loop's, with r the ring's
    negation (for an addition), a random involution and a random map.  Some
    witnesses fail only the column condition, x outside z r(y)."""
    rng = random.Random(38)
    failing = column_only = 0
    for ring, table in single_valued_tables(rng):
        n = len(table)
        names = tuple(map(str, range(n)))
        inverses = [_random_involution(rng, n), [rng.randrange(n) for _ in range(n)]]
        if table == ring.add:
            inverses.append(ring.neg)
        for op in _value_moves(table, rng, 30):
            rows = core._byte_rows(op)
            assert rows
            for r in inverses:
                expected = _naive_reversibility(op, r, names)
                assert core._reversibility_defect(op, r, names, rows) == expected
                assert core._reversibility_defect(op, r, names) == expected
                failing += expected is not None
                if expected:
                    x, y, z = map(int, expected)
                    column_only += bool(op[r[x]][z] >> y & 1)
    assert failing > 800 and column_only > 40


def test_distributivity_on_byte_rows():
    """The additions of ``single_valued_tables`` with the multiplication of
    their ring and 17 seeded one-cell moves of it: over every column the
    byte-row scan gives the witnesses of the moved row scan
    ``reference_audits.rowwise_distributivity``, and over the columns of
    ``_generators`` the mask scan passes exactly when the moved pre-check
    ``reference_audits._distributes_at`` does; the byte-row scan equals the
    mask scan."""
    rng = random.Random(39)
    failing = compared = 0
    for ring, add in single_valued_tables(rng):
        n = len(add)
        rows = core._byte_rows(add)
        base = ring.mul
        for k in range(18):
            mul = base if not k else _replace_cell(
                base, rng.randrange(n), rng.randrange(n), rng.randrange(n))
            r = core.FiniteMultiring(ring.carrier, add, mul, ring.neg, ring.zero, ring.one)
            found = core._distributivity_defects(add, mul, None, None, rows)
            assert found == core._distributivity_defects(add, mul)
            assert tuple(w and tuple(r.names[i] for i in w) for w in found) \
                == reference.rowwise_distributivity(r)
            gens = core._generators(mul)
            at_gens = core._distributivity_defects(add, mul, gens, core._Elements())
            assert (at_gens == (None, None)) \
                == reference._distributes_at(add, mul, gens, core._Elements())
            compared += 2
            failing += found != (None, None)
    assert compared == 13 * 18 * 2 and failing > 150


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
    for rel in _presentations_on_two_elements():
        assert_relational_agrees(rel)


def _presentations_on_two_elements():
    triples = list(itertools.product(range(2), repeat=3))
    carrier = core.Carrier(_labels(2))
    for chosen in range(1 << len(triples)):
        pi = frozenset(t for k, t in enumerate(triples) if (chosen >> k) & 1)
        for inv in itertools.product(range(2), repeat=2):
            for identity in range(2):
                yield core.RelationalMultigroup(carrier, pi, inv, identity)


def test_lemma_witnesses_past_failed_axioms(monkeypatch):
    """Lemmas (a)-(f) follow from axioms I-III, so wherever the lemma scan
    runs every lemma passes and two witness implementations cannot be told
    apart.  Here both audits report I-III as passing, so that both lemma
    scans run on the two-element presentations that fail I or II; taking
    only those that pass III keeps the III scan, which gives lemma (e) its
    witness, running to the end.  The reports must agree, and (d) and (e)
    fail on some of them."""
    audit, axioms = core._relational_audit, reference.check_relational_axioms
    chosen = []
    for rel in _presentations_on_two_elements():
        i, ii, iii, _ = (v.passed for v in axioms(rel).verdicts)
        if iii and not (i and ii):
            chosen.append(rel)

    def passing(verdicts):
        return tuple(dataclasses.replace(v, passed=True, witness=None) for v in verdicts)

    def audit_passing(*args):
        verdicts, we = audit(*args)
        return passing(verdicts), we

    def axioms_passing(rel):
        return core.CheckReport("relational multigroup", passing(axioms(rel).verdicts))

    monkeypatch.setattr(core, "_relational_audit", audit_passing)
    monkeypatch.setattr(reference, "check_relational_axioms", axioms_passing)
    failing = set()
    for rel in chosen:
        report = core.check_relational_lemmas(rel)
        assert report == reference.check_relational_lemmas(rel)
        failing |= {v.axiom for v in report.failures()}
    assert {"d-left-identity", "e-reverse-reassociation"} <= failing


def assert_rs_agrees(s, derived=True):
    assert real_semigroups.check_rs(s) == reference.check_rs(s)
    if derived:
        assert real_semigroups.check_rs_derived(s) == reference.check_rs_derived(s)


def assert_space_agrees(s):
    audit = "check_aos" if s.mode == AOS else "check_ars"
    assert getattr(ordering_spaces, audit)(s) == getattr(reference, audit)(s)
    assert ordering_spaces.value_set_reassociation_check(s) \
        == reference.value_set_reassociation_check(s)


def sign_spaces():
    """The corpus sign spaces, the spectrum images of q2^2 and q2^3, and
    the fans on two to four points."""
    spaces = list(corpus_sign_spaces().values())
    spaces += [mrred_to_ars(r)[0] for r in (q2xq2(), q2cube())]
    return spaces + [fan_aos(k) for k in (2, 3, 4)]


def test_real_semigroup_corpus_and_images():
    for s in corpus_real_semigroups().values():
        assert_rs_agrees(s)
    assert_rs_agrees(mrred_to_rs(q2xq2()))
    # The reference consequences take about 14 s on a 27-element structure,
    # so q2^3's image gets the axioms and rs3^3 below both.
    assert_rs_agrees(mrred_to_rs(q2cube()), derived=False)
    for s in sign_spaces():
        assert_space_agrees(s)


def test_rs3_cube():
    assert_rs_agrees(rs_product([canonical_3()] * 3))


def test_every_representation_on_the_sign_semigroup():
    """The 512 symmetric, reflexive candidates of unique_rs_search_on_3."""
    base = canonical_3()
    pairs = [(b, c) for b in range(3) for c in range(b, 3)]
    free = [[(b, c, a) for a in range(3) if a not in (b, c)] for b, c in pairs]
    choices = [t for cell in free for t in cell]
    assert len(choices) == 9
    for chosen in range(1 << len(choices)):
        d = [[(1 << b) | (1 << c) for c in range(3)] for b in range(3)]
        for k, (b, c, a) in enumerate(choices):
            if (chosen >> k) & 1:
                d[b][c] |= 1 << a
                d[c][b] |= 1 << a
        assert_rs_agrees(dataclasses.replace(base, d=tuple(map(tuple, d))))


def test_real_semigroup_mutants():
    """Seeded single-cell mutants of D and of the multiplication, each made
    symmetric half of the time so that RS0 and TS1 can still pass."""
    rng = random.Random(15)
    for s in corpus_real_semigroups().values():
        n = s.size
        for _ in range(60):
            b, c, a = (rng.randrange(n) for _ in range(3))
            twice = rng.random() < 0.5
            if rng.random() < 0.5:
                d = _replace_cell(s.d, b, c, s.d[b][c] ^ (1 << a))
                if twice:
                    d = _replace_cell(d, c, b, d[b][c])
                mutant = dataclasses.replace(s, d=d)
            else:
                mul = _replace_cell(s.mul, b, c, a)
                if twice:
                    mul = _replace_cell(mul, c, b, a)
                mutant = dataclasses.replace(s, mul=mul)
            assert_rs_agrees(mutant)


# Mutants of rs3 and rs3 x rs3 as lists of edits (table, b, c, x): "d"
# toggles x in D(b, c), "mul" sets bc to x.  They were drawn from
# random.Random(2104), one to three edits each, and kept where, on each base,
# together they make every consequence fail.
DERIVED_MUTANTS = {
    "rs3": (
        (("d", 2, 0, 2), ("d", 1, 1, 2), ("d", 1, 2, 2)),
        (("mul", 2, 1, 0), ("d", 1, 0, 1), ("mul", 1, 1, 2)),
    ),
    "rs3x3": (
        (("mul", 1, 8, 2), ("mul", 7, 7, 2), ("d", 4, 4, 1)),
        (("mul", 2, 6, 0), ("d", 0, 0, 0), ("d", 2, 4, 2)),
        (("d", 2, 6, 4), ("mul", 1, 2, 1)),
    ),
}


def _edited(s: RealSemigroup, edits) -> RealSemigroup:
    for table, b, c, x in edits:
        if table == "d":
            s = dataclasses.replace(s, d=_replace_cell(s.d, b, c, s.d[b][c] ^ (1 << x)))
        else:
            s = dataclasses.replace(s, mul=_replace_cell(s.mul, b, c, x))
    return s


def test_every_consequence_fails_on_a_pinned_mutant():
    """The consequences follow from RS0-RS8, so only failures tell a mask
    version from the nested loops: on each base every one of the eighteen
    verdicts fails on some mutant, with the reference's witness."""
    three = canonical_3()
    names = {v.axiom for v in real_semigroups.check_rs_derived(three).verdicts}
    assert len(names) == 18
    for base, mutants in ((three, DERIVED_MUTANTS["rs3"]),
                          (rs_product([three] * 2), DERIVED_MUTANTS["rs3x3"])):
        failed = set()
        for edits in mutants:
            mutant = _edited(base, edits)
            report = real_semigroups.check_rs_derived(mutant)
            assert report == reference.check_rs_derived(mutant), edits
            failed |= {v.axiom for v in report.failures()}
        assert failed == names, base.size


def _space_mutants(s: SignSpace):
    """Every space with one value of one function changed, or one function
    dropped; changes that duplicate a function are skipped."""
    values = (-1, 1) if s.mode == AOS else (-1, 0, 1)
    funcs = [list(f) for f in s.functions]
    for i, x in itertools.product(range(s.nfunctions), range(s.npoints)):
        for v in values:
            if v == funcs[i][x]:
                continue
            changed = [list(f) for f in funcs]
            changed[i][x] = v
            if len(set(map(tuple, changed))) == len(changed):
                yield make_sign_space(s.mode, s.points, changed)
    if s.nfunctions > 1:
        for i in range(s.nfunctions):
            yield make_sign_space(s.mode, s.points, funcs[:i] + funcs[i + 1:])


def true_fan(k, dropped=(), rng=None):
    """Marshall's fan of rank k less the points at the positions
    ``dropped``, its points in a seeded order if ``rng`` is given.  Its
    functions are the elements v of {-1, 1}^k and its points the characters
    v -> prod(v[i] for i in S) with chi(-1) = -1, S of odd size."""
    odd = [S for size in range(1, k + 1, 2)
           for S in itertools.combinations(range(k), size)]
    kept = [S for i, S in enumerate(odd) if i not in dropped]
    if rng:
        rng.shuffle(kept)
    return make_sign_space(AOS, ["x" + "".join(map(str, S)) for S in kept],
                           [[math.prod(v[i] for i in S) for S in kept]
                            for v in itertools.product((-1, 1), repeat=k)])


def _true_fan_with_a_point_dropped(k: int = 4) -> list:
    """The rank-k true fan with each of its points dropped in turn; dropping
    one point leaves a character of closed kernel that is not a point."""
    return [true_fan(k, (p,)) for p in range(2 ** (k - 1))]


def test_true_fan_with_a_point_dropped():
    """Every one of the 8 spaces fails AX2 alone, and on one of them the
    witness is the last character that the reference's ``_characters``
    lists."""
    last = 0
    for s in _true_fan_with_a_point_dropped():
        assert_space_agrees(s)
        report = ordering_spaces.check_aos(s)
        assert [v.axiom for v in report.failures()] == ["AX2-characters-are-points"]
        witness = report.verdict("AX2-characters-are-points").witness
        last += witness == ("character "
                            + function_label(reference._characters(s)[-1]),)
    assert last == 1


def test_sign_space_mutants():
    seen = 0
    for s in sign_spaces():
        for mutant in _space_mutants(s):
            assert_space_agrees(mutant)
            seen += 1
    assert seen == 90


def _function_sets(mode, points, chosen):
    values = (-1, 1) if mode == AOS else (-1, 0, 1)
    vectors = list(itertools.product(values, repeat=points))
    names = [f"x{i}" for i in range(points)]
    for pick in chosen(len(vectors)):
        yield make_sign_space(mode, names, [f for k, f in enumerate(vectors)
                                            if (pick >> k) & 1])


def test_function_sets_on_few_points():
    """Every set of sign vectors on three points, two-valued, and on two
    points, three-valued, and seeded samples on four and three points: most
    fail AX3, on four points often at several elements at once."""
    rng = random.Random(3)

    def every(k):
        return range(1, 1 << k)

    def sample(k):
        return [rng.randrange(1, 1 << k) for _ in range(150)]

    for mode, points, chosen in ((AOS, 3, every), (ARS, 2, every),
                                 (AOS, 4, sample), (ARS, 3, sample)):
        for space in _function_sets(mode, points, chosen):
            assert_space_agrees(space)
