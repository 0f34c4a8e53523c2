"""The axiom audits as they were before the mask-algebra kernel.

These are the original n^4 set-probe versions of ``check_multigroup``,
``check_relational_axioms``, ``check_relational_lemmas`` and
``check_multiring``, and the original nested-loop versions of the
real-semigroup audits ``check_rs`` and ``check_rs_derived`` and the
sign-space audits ``check_aos``, ``check_ars`` and
``value_set_reassociation_check``.  They are kept verbatim as the naive
reference that ``tests/test_audit_kernel.py`` pins the library's audits to:
every verdict, witness, note and informational flag must agree.

The special-group witnesses ``_sg6_witness`` to ``_sg9_witness`` are the
versions that built the triple-isometry rows pair by pair through the cached
closure of ``_triple_iso_tables``, with ``check_sg``, ``check_reduced`` and
``check_sg789`` built on them; ``tests/test_triple_relation.py`` pins the
library's single relation to them.  They read the pair classes from
``_pair_classes`` as it was before it grouped the isometry relation by its
target pair, scanning the whole relation once per class; the same test file
pins the library's grouping to it.

``check_smf``, with its existential helper ``_smf_block`` (up to n^3 steps
for each of the n^4 quadruples of property v), and ``mf_to_sg`` are the
versions that scanned every quadruple of nonzero elements, before both read
the product-fiber and membership masks of ``special_groups._smf_masks``;
``tests/test_smf_masks.py`` pins the library's versions to them.

``_ideal_closure``, ``enumerate_ideals`` and ``quotient_by_ideal`` are the
versions from before the worklist closure: the closure iterated absorption
and an n^2 sum loop until nothing changed, ``enumerate_ideals`` reclosed
every (ideal, element) pair from scratch on each call, and the quotient
imaged every addition cell anew.  ``tests/test_ideal_lattice.py`` pins the
library's ideal lattice and quotients to them.

``cellwise_reassociation_defects`` and ``cellwise_check_multiring`` are the
reassociation scan and the multiring audit as they were before they compared
whole rows: each (x, y, z) ORed its own two bracketings, and mul-associativity
and distributivity probed one (a, b, c) or (a, b, d) at a time.  Their own
additive multigroup audit is the naive ``check_multigroup`` above.
``tests/test_row_kernel.py`` pins the library's row-at-a-time scan and
``check_multiring`` to them, defect sequence and report alike.

``rowwise_reassociation_defects`` is the row-at-a-time scan as it was
before x(yz) came from lazily transposed column unions: each (x, y) read
entry x of every column union of row y through an ``itemgetter``.
``rowwise_mul_associativity`` is ``check_multiring``'s mul-associativity
loop as it was before the byte compare, reading a(bc) through row a's
``__getitem__``, and ``associativity_defect`` is the triple loop that
``check_ts``, ``SpecialGroup`` and the monoid-table generator each ran.
``check_ts`` and ``LoopCheckedSpecialGroup`` are the ternary-semigroup
audit and the special-group validation with that loop; ``check_rs`` here
reads this ``check_ts``.  ``tests/test_row_kernel.py`` pins the
transposed scan and ``core._associativity_defect``, with its four callers,
to them.

``_CellUnion`` is the cell-union cache as it was before it packed each
line into one int: a union ORed the tuples of the cell's lines element by
element; ``rowwise_reassociation_defects`` reads it.
``rowwise_distributivity`` is ``check_multiring``'s distributivity loop as
it was before it compared rows over b for each (a, d): each (a, b) gathered
ad+bd over d through ``map(getitem, ...)``.  ``evaluation_witnesses`` is
the morphism and strong loop pair of ``spectra.sper_embedding_check`` as it
was before it met per-ordering preimage masks: one probe per (x, y, c) and
sign map.  ``tests/test_row_kernel.py`` pins the packed unions and the
column-wise distributivity to the first two, and ``tests/test_spectra.py``
pins the evaluation masks to the third.

``value_table`` and ``transversal_table`` are the sign-space table builders
from before they became ANDs over the points of per-point value masks: each
cell tested every function at every point, n^3 p steps.  ``_ax1_verdicts``
is AX1 from before the cached product table, finding each product with a
linear ``tuple.index``.  The sign-space audits here read these three.
``mrred_to_rs`` is the version that tested every element c against every
pair (x, y), before D became a union over the distinct squares.
``_rs2_witness``, which ``check_rs`` here reads, is the RS2 loop over
(b, c), a and e that the library's cell images replaced.
``tests/test_sign_tables.py`` pins the library's tables, ``mrred_to_rs``
and RS2 to them.

``dt_table``, ``squarewise_mrred_to_rs``, ``rs_to_mrred`` and
``separation_audit`` are the real-semigroup layer as it was before it
worked on transposed masks: D^t tested the two transversal conditions one
a at a time, D was built one (x, y) at a time as a union over the distinct
squares, the empty transversal sets were sought one (a, b) at a time, and
separation tested every (a, b, c) against every morphism into the
three-element structure.  The real-semigroup audits here read this
``dt_table``.  ``tests/test_rs_masks.py`` pins the library's versions to
them, and ``check_rs`` to the ``check_rs`` above.

``check_morphism``, ``check_rs_morphism``, ``check_sg_morphism`` and
``is_sg_morphism`` are the morphism audits from before they read the one
defect scan ``core._map_defects`` over the structures' ``tables``: each
walked its own homomorphism, constant and cell loops.
``tests/test_morphism_audits.py`` pins the library's reports to them, and
the searches of ``reference_searches`` check their leaves with them.

``product``, ``rs_product``, ``sg_to_mf`` and ``aos_to_mfred`` are the
constructions as they were before they read the two helpers of
``constructions``: each product built its own tables, ``rs_product`` by one
``in_d`` test per factor for every (a, b, c), and each functor adjoined its
own zero.  Their pair classes and value sets come from the ``_pair_classes``
and ``value_table`` above.  ``tests/test_products_and_zero.py`` pins the
library's structures and error messages to them.
"""

import itertools
from functools import lru_cache
from operator import getitem, itemgetter, or_
from typing import Iterator, Optional, Sequence

from multialg.constructions import Ideal, _class_setup
from multialg.core import (
    CARRIER_CAP,
    Carrier,
    CheckReport,
    FiniteMultigroup,
    FiniteMultiring,
    InputError,
    RelationalMultigroup,
    StructuralAnomaly,
    StructureMap,
    Verdict,
    _SINGLETONS,
    _Elements,
    _verdict_all,
    bits,
    classify,
    full_mask,
    mask_of,
    q2,
)
from multialg.ordering_spaces import (
    AOS,
    ARS,
    SignSpace,
    _ars_point_cones,
    _characters,
    _product_table,
    function_label,
)
from multialg.real_semigroups import RealSemigroup, canonical_3, hom_to_3
from multialg.spectra import is_real_reduced_mr
from multialg.special_groups import (
    SpecialGroup,
    check_psg,
    make_special_group,
    represented,
)


def check_multigroup(m: FiniteMultigroup) -> CheckReport:
    """Audit the four multigroup axioms; commutativity is reported separately."""
    n = m.size
    names = m.carrier.names
    r = m.inv

    w_rev = None
    for x, y in itertools.product(range(n), repeat=2):
        cell = m.op[x][y]
        for z in bits(cell):
            if not (m.op[z][r[y]] >> x) & 1 or not (m.op[r[x]][z] >> y) & 1:
                w_rev = (names[x], names[y], names[z])
                break
        if w_rev:
            break

    w_id = None
    for x in range(n):
        cell = m.op[m.identity][x]
        if cell != 1 << x:
            y = next(i for i in bits(cell ^ (1 << x)))
            w_id = (names[x], names[y])
            break

    w_assoc = None
    for x, y, z in itertools.product(range(n), repeat=3):
        left = m.op_masks(1 << x, m.op[y][z])
        right = m.op_masks(m.op[x][y], 1 << z)
        if left != right:
            w_assoc = (names[x], names[y], names[z])
            break

    w_comm = None
    for x, y in itertools.combinations(range(n), 2):
        if m.op[x][y] != m.op[y][x]:
            w_comm = (names[x], names[y])
            break

    return CheckReport(
        subject="multigroup",
        verdicts=(
            _verdict_all("i-reversibility", w_rev),
            _verdict_all("ii-identity", w_id),
            _verdict_all("iii-associativity", w_assoc),
            _verdict_all("iv-commutativity", w_comm),
        ),
    )


def check_relational_axioms(rel: RelationalMultigroup) -> CheckReport:
    """Audit axioms I-IV of the triple presentation."""
    n = rel.size
    names = rel.carrier.names
    pi = rel.pi
    r = rel.inv
    by_first2: dict[tuple[int, int], list[int]] = {}
    for (x, y, z) in pi:
        by_first2.setdefault((x, y), []).append(z)

    w1 = None
    for t in sorted(pi):
        x, y, z = t
        if (z, r[y], x) not in pi or (r[x], z, y) not in pi:
            w1 = (names[x], names[y], names[z])
            break

    w2 = None
    for x, y in itertools.product(range(n), repeat=2):
        if ((x, rel.identity, y) in pi) != (x == y):
            w2 = (names[x], names[y])
            break

    w3 = None
    for u, v, w, x in itertools.product(range(n), repeat=4):
        lhs = any((p, w, x) in pi for p in by_first2.get((u, v), ()))
        if lhs and not any((u, q, x) in pi for q in by_first2.get((v, w), ())):
            w3 = (names[u], names[v], names[w], names[x])
            break

    w4 = None
    for t in sorted(pi):
        x, y, z = t
        if (y, x, z) not in pi:
            w4 = (names[x], names[y], names[z])
            break

    return CheckReport(
        subject="relational multigroup",
        verdicts=(
            _verdict_all("I-reversibility", w1),
            _verdict_all("II-identity", w2),
            _verdict_all("III-reassociation", w3),
            _verdict_all("IV-commutativity", w4),
        ),
    )


def check_relational_lemmas(rel: RelationalMultigroup) -> CheckReport:
    """Audit the six consequences (a)-(f) of axioms I-III.

    Axioms I-III are re-verified first; on a precondition failure the lemma
    scan is skipped and the axiom verdicts carry the report.
    """
    ax = check_relational_axioms(rel)
    pre = [v for v in ax.verdicts if v.axiom != "IV-commutativity"]
    if not all(v.passed for v in pre):
        note = Verdict("lemmas", False, None,
                       "skipped: axioms I-III failed", informational=True)
        return CheckReport("relational lemmas", tuple(pre) + (note,))

    n = rel.size
    names = rel.carrier.names
    pi = rel.pi
    r = rel.inv
    e = rel.identity
    by_first2: dict[tuple[int, int], list[int]] = {}
    for (x, y, z) in pi:
        by_first2.setdefault((x, y), []).append(z)

    wa = None if r[e] == e else (names[e],)

    wb = None
    for x in range(n):
        if r[r[x]] != x:
            wb = (names[x],)
            break

    wc = None
    for x, y, z in itertools.product(range(n), repeat=3):
        if ((x, y, z) in pi) != ((r[y], r[x], r[z]) in pi):
            wc = (names[x], names[y], names[z])
            break

    wd = None
    for x, y in itertools.product(range(n), repeat=2):
        if ((e, x, y) in pi) != (x == y):
            wd = (names[x], names[y])
            break

    we = None
    for u, v, w, x in itertools.product(range(n), repeat=4):
        lhs = any((u, q, x) in pi for q in by_first2.get((v, w), ()))
        if lhs and not any((p, w, x) in pi for p in by_first2.get((u, v), ())):
            we = (names[u], names[v], names[w], names[x])
            break

    wf = None
    for a, b in itertools.product(range(n), repeat=2):
        if (a, b) not in by_first2:
            wf = (names[a], names[b])
            break

    return CheckReport(
        subject="relational lemmas",
        verdicts=(
            _verdict_all("a-inverse-fixes-identity", wa),
            _verdict_all("b-inverse-involutive", wb),
            _verdict_all("c-triple-inversion", wc),
            _verdict_all("d-left-identity", wd),
            _verdict_all("e-reverse-reassociation", we),
            _verdict_all("f-totality", wf),
        ),
    )


def check_multiring(r: FiniteMultiring) -> CheckReport:
    """Audit the multiring axioms.

    Weak distributivity (a+b)d <= ad+bd is the axiom; equality is reported
    as an extra informational verdict so multifields can be recognised.
    """
    n = r.size
    names = r.names
    addgrp = check_multigroup(r.additive_multigroup())
    verdicts = [Verdict("add-" + v.axiom, v.passed, v.witness) for v in addgrp.verdicts]

    w = None
    for a, b, c in itertools.product(range(n), repeat=3):
        if r.mul[r.mul[a][b]][c] != r.mul[a][r.mul[b][c]]:
            w = (names[a], names[b], names[c])
            break
    verdicts.append(_verdict_all("mul-associativity", w))

    w = None
    for a, b in itertools.combinations(range(n), 2):
        if r.mul[a][b] != r.mul[b][a]:
            w = (names[a], names[b])
            break
    verdicts.append(_verdict_all("mul-commutativity", w))

    w = None
    for a in range(n):
        if r.mul[r.one][a] != a:
            w = (names[a],)
            break
    verdicts.append(_verdict_all("mul-identity", w))

    w = None
    for a in range(n):
        if r.mul[a][r.zero] != r.zero:
            w = (names[a],)
            break
    verdicts.append(_verdict_all("zero-absorbing", w))

    w_weak = None
    w_full = None
    for a, b, d in itertools.product(range(n), repeat=3):
        left = r.mul_masks(r.add[a][b], 1 << d)
        right = r.add[r.mul[a][d]][r.mul[b][d]]
        if w_weak is None and left & ~right:
            w_weak = (names[a], names[b], names[d])
        if w_full is None and left != right:
            w_full = (names[a], names[b], names[d])
        if w_weak and w_full:
            break
    verdicts.append(_verdict_all("distributivity-weak", w_weak))
    verdicts.append(_verdict_all("distributivity-full", w_full,
                                 note="informational", informational=True))

    return CheckReport("multiring", tuple(verdicts))


def in_d(s: RealSemigroup, a: int, b: int, c: int) -> bool:
    """Whether a is in D(b, c); once ``RealSemigroup.in_d``."""
    return bool((s.d[b][c] >> a) & 1)


@lru_cache(maxsize=None)
def dt_table(s: RealSemigroup) -> tuple[tuple[int, ...], ...]:
    """Transversal representation, derived: a in D^t(b,c) iff a in D(b,c),
    -b in D(-a,c) and -c in D(b,-a)."""
    n = s.size
    out = [[0] * n for _ in range(n)]
    for b, c in itertools.product(range(n), repeat=2):
        m = 0
        for a in bits(s.d[b][c]):
            if in_d(s, s.neg(b), s.neg(a), c) and in_d(s, s.neg(c), b, s.neg(a)):
                m |= 1 << a
        out[b][c] = m
    return tuple(tuple(r) for r in out)


def check_ts(s: RealSemigroup) -> CheckReport:
    n = s.size
    names = s.names

    w_assoc = None
    for a, b, c in itertools.product(range(n), repeat=3):
        if s.mul[s.mul[a][b]][c] != s.mul[a][s.mul[b][c]]:
            w_assoc = (names[a], names[b], names[c])
            break
    w_comm = None
    for a, b in itertools.combinations(range(n), 2):
        if s.mul[a][b] != s.mul[b][a]:
            w_comm = (names[a], names[b])
            break
    w_unit = None
    for a in range(n):
        if s.mul[s.one][a] != a:
            w_unit = (names[a],)
            break
    w_cube = None
    for a in range(n):
        if s.mul[s.mul[a][a]][a] != a:
            w_cube = (names[a],)
            break
    w_sign = None
    if s.minus_one == s.one or s.mul[s.minus_one][s.minus_one] != s.one:
        w_sign = (names[s.minus_one],)
    w_zero = None
    for a in range(n):
        if s.mul[a][s.zero] != s.zero:
            w_zero = (names[a],)
            break
    w_fix = None
    for a in range(n):
        if s.neg(a) == a and a != s.zero:
            w_fix = (names[a],)
            break

    return CheckReport(
        subject="ternary semigroup",
        verdicts=(
            Verdict("TS1-assoc", w_assoc is None, w_assoc),
            Verdict("TS1-comm", w_comm is None, w_comm),
            Verdict("TS1-unit", w_unit is None, w_unit),
            Verdict("TS2-cube", w_cube is None, w_cube),
            Verdict("TS3-sign", w_sign is None, w_sign),
            Verdict("TS4-zero", w_zero is None, w_zero),
            Verdict("TS5-no-fixed-negation", w_fix is None, w_fix),
        ),
    )


def _rs2_witness(s: RealSemigroup) -> Optional[tuple[str, ...]]:
    n = s.size
    names = s.names
    d = s.d
    w2 = None
    for b, c in itertools.product(range(n), repeat=2):
        for a in bits(d[b][c]):
            for e in range(n):
                if not (d[s.mul[b][e]][s.mul[c][e]] >> s.mul[a][e]) & 1:
                    w2 = (names[a], names[b], names[c], names[e])
                    break
            if w2:
                break
        if w2:
            break
    return w2


def check_rs(s: RealSemigroup) -> CheckReport:
    """TS1-TS5 followed by RS0-RS8, with D^t derived internally."""
    ts = check_ts(s)
    n = s.size
    names = s.names
    d = s.d
    dt = dt_table(s)

    w0 = None
    for b, c in itertools.combinations(range(n), 2):
        if d[b][c] != d[c][b]:
            w0 = (names[b], names[c])
            break

    w1 = None
    for a, b in itertools.product(range(n), repeat=2):
        if not (d[a][b] >> a) & 1:
            w1 = (names[a], names[b])
            break

    w2 = _rs2_witness(s)

    w3 = None
    for b, c in itertools.product(range(n), repeat=2):
        for a in bits(dt[b][c]):
            for dd, e in itertools.product(range(n), repeat=2):
                if not (dt[dd][e] >> c) & 1:
                    continue
                if not any((dt[b][dd] >> x) & 1 and (dt[x][e] >> a) & 1
                           for x in range(n)):
                    w3 = (names[a], names[b], names[c], names[dd], names[e])
                    break
            if w3:
                break
        if w3:
            break

    w4 = None
    for a, b, c, e in itertools.product(range(n), repeat=4):
        lhs = d[s.mul[s.mul[c][c]][a]][s.mul[s.mul[e][e]][b]]
        for x in bits(lhs):
            if not (d[a][b] >> x) & 1:
                w4 = (names[x], names[a], names[b], names[c], names[e])
                break
        if w4:
            break

    w5 = None
    for a, b in itertools.product(range(n), repeat=2):
        for dd, e in itertools.product(range(n), repeat=2):
            if s.mul[a][dd] != s.mul[b][dd] or s.mul[a][e] != s.mul[b][e]:
                continue
            for c in bits(d[dd][e]):
                if s.mul[a][c] != s.mul[b][c]:
                    w5 = (names[a], names[b], names[c], names[dd], names[e])
                    break
            if w5:
                break
        if w5:
            break

    w6 = None
    for a, b in itertools.product(range(n), repeat=2):
        for c in bits(d[a][b]):
            c2 = s.mul[c][c]
            if not (dt[s.mul[c2][a]][s.mul[c2][b]] >> c) & 1:
                w6 = (names[c], names[a], names[b])
                break
        if w6:
            break

    w7 = None
    for a, b in itertools.product(range(n), repeat=2):
        if a != b and dt[a][s.neg(b)] & dt[b][s.neg(a)]:
            w7 = (names[a], names[b])
            break

    w8 = None
    for b, c in itertools.product(range(n), repeat=2):
        for a in bits(d[b][c]):
            if not (d[s.mul[b][b]][s.mul[c][c]] >> s.mul[a][a]) & 1:
                w8 = (names[a], names[b], names[c])
                break
        if w8:
            break

    return CheckReport(
        subject="real semigroup",
        verdicts=ts.verdicts + (
            Verdict("RS0-symmetry", w0 is None, w0),
            Verdict("RS1-reflexive", w1 is None, w1),
            Verdict("RS2-scaling", w2 is None, w2),
            Verdict("RS3-strong-associativity", w3 is None, w3),
            Verdict("RS4-square-cancel", w4 is None, w4),
            Verdict("RS5-congruence", w5 is None, w5),
            Verdict("RS6-transversal-lift", w6 is None, w6),
            Verdict("RS7-reduction", w7 is None, w7),
            Verdict("RS8-squares", w8 is None, w8),
        ),
    )


def check_rs_derived(s: RealSemigroup) -> CheckReport:
    """Seventeen consequences that must hold in any real semigroup."""
    n = s.size
    names = s.names
    d = s.d
    dt = dt_table(s)
    mul = s.mul
    neg = s.neg
    verdicts = []

    def quantify(axiom: str, pred, arity: int) -> None:
        witness = None
        for combo in itertools.product(range(n), repeat=arity):
            if not pred(*combo):
                witness = tuple(names[i] for i in combo)
                break
        verdicts.append(Verdict(axiom, witness is None, witness))

    quantify("i-transversal-shift",
             lambda a, b, c: not (dt[b][c] >> a) & 1
             or (dt[neg(a)][c] >> neg(b)) & 1, 3)
    quantify("ii-zero-represented", lambda a, b: (d[a][b] >> s.zero) & 1, 2)
    quantify("iii-transversal-scaling",
             lambda a, b, c, e: not (dt[b][c] >> a) & 1
             or (dt[mul[b][e]][mul[c][e]] >> mul[a][e]) & 1, 4)
    quantify("iv-idempotent-on-0-1",
             lambda a: not ((d[s.zero][s.one] >> a) & 1
                            or (d[s.one][s.one] >> a) & 1)
             or mul[a][a] == a, 1)
    quantify("v-common-factor",
             lambda dd, c, a, b: not (d[mul[c][a]][mul[c][b]] >> dd) & 1
             or mul[mul[c][c]][dd] == dd, 4)
    quantify("vi-squares-represented",
             lambda a, b: (d[s.one][b] >> mul[a][a]) & 1, 2)
    idem = mask_of(a for a in range(n) if mul[a][a] == a)
    verdicts.append(Verdict("vi-idempotents-are-d11",
                            d[s.one][s.one] == idem,
                            None if d[s.one][s.one] == idem
                            else (s.carrier.labels(d[s.one][s.one]),
                                  s.carrier.labels(idem))))
    quantify("vii-transversal-diagonal",
             lambda a, b: ((dt[b][b] >> a) & 1) == (a == b), 2)
    quantify("viii-zero-zero", lambda a: ((d[s.zero][s.zero] >> a) & 1) == (a == s.zero), 1)
    quantify("ix-one-absorbs", lambda a: (dt[s.one][a] >> s.one) & 1, 1)
    verdicts.append(Verdict("x-full-opposite",
                            dt[s.one][s.minus_one] == full_mask(n),
                            None if dt[s.one][s.minus_one] == full_mask(n)
                            else s.carrier.labels(dt[s.one][s.minus_one])))
    quantify("xi-product-vs-minus-square",
             lambda a, b: (d[s.one][neg(mul[a][a])] >> mul[a][b]) & 1, 2)
    quantify("xii-zero-transversal",
             lambda a, b: ((dt[a][b] >> s.zero) & 1) == (a == neg(b)), 2)
    quantify("xiii-monotone",
             lambda a, b, c, x, y: not ((d[b][c] >> a) & 1
                                        and (d[x][y] >> b) & 1
                                        and (d[x][y] >> c) & 1)
             or (d[x][y] >> a) & 1, 5)
    quantify("xiv-product-form",
             lambda a, b, c: ((d[b][c] >> a) & 1)
             == ((d[s.one][mul[b][c]] >> mul[a][b]) & 1
                 and (d[s.one][mul[b][c]] >> mul[a][c]) & 1
                 and (d[mul[b][b]][mul[c][c]] >> mul[a][a]) & 1), 3)
    quantify("xv-transversal-nonempty", lambda a, b: dt[a][b] != 0, 2)
    quantify("xvi-weak-associativity",
             lambda a, b, c, dd, e: not ((d[b][c] >> a) & 1
                                         and (d[dd][e] >> c) & 1)
             or any((d[b][dd] >> x) & 1 and (d[x][e] >> a) & 1
                    for x in range(n)), 5)
    quantify("xvii-square-transversal",
             lambda a, b, c: ((d[b][c] >> a) & 1)
             == ((dt[mul[mul[a][a]][b]][mul[mul[a][a]][c]] >> a) & 1), 3)

    return CheckReport("real semigroup consequences", tuple(verdicts))


@lru_cache(maxsize=None)
def value_table(s: SignSpace) -> tuple[tuple[int, ...], ...]:
    """D(a,b) as masks over function indices."""
    n = s.nfunctions
    out = [[0] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        a, b = s.functions[i], s.functions[j]
        m = 0
        for k, c in enumerate(s.functions):
            if s.mode == AOS:
                ok = all(cv in (av, bv) for cv, av, bv in zip(c, a, b))
            else:
                ok = all(av * cv > 0 or bv * cv > 0 or cv == 0
                         for cv, av, bv in zip(c, a, b))
            if ok:
                m |= 1 << k
        out[i][j] = m
    return tuple(tuple(r) for r in out)


@lru_cache(maxsize=None)
def transversal_table(s: SignSpace) -> tuple[tuple[int, ...], ...]:
    """D^t(a,b): as D but a zero of c forces b = -a at that point."""
    if s.mode != ARS:
        raise InputError("transversal sets exist in ars mode only")
    n = s.nfunctions
    out = [[0] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        a, b = s.functions[i], s.functions[j]
        m = 0
        for k, c in enumerate(s.functions):
            if all(av * cv > 0 or bv * cv > 0 or (cv == 0 and bv == -av)
                   for cv, av, bv in zip(c, a, b)):
                m |= 1 << k
        out[i][j] = m
    return tuple(tuple(r) for r in out)


def _ax1_verdicts(s: SignSpace) -> list[Verdict]:
    verdicts = []
    w_closed = None
    for i, j in itertools.product(range(s.nfunctions), repeat=2):
        if s.index(s.pointwise_mul(i, j)) is None:
            w_closed = (function_label(s.functions[i]),
                        function_label(s.functions[j]))
            break
    verdicts.append(Verdict("AX1-closed-under-product", w_closed is None, w_closed))
    needed = (1, -1) if s.mode == AOS else (1, 0, -1)
    w_const = None
    for v in needed:
        if s.constant(v) is None:
            w_const = (v,)
            break
    verdicts.append(Verdict("AX1-constants", w_const is None, w_const))
    w_sep = None
    for x, y in itertools.combinations(range(s.npoints), 2):
        if all(f[x] == f[y] for f in s.functions):
            w_sep = (s.points[x], s.points[y])
            break
    verdicts.append(Verdict("AX1-separates-points", w_sep is None, w_sep))
    return verdicts


def mrred_to_rs(a: FiniteMultiring) -> RealSemigroup:
    """Representation from scaled sums: d in D(x,y) iff d in d^2 x + d^2 y;
    the derived transversal sets must reproduce the original addition."""
    if not is_real_reduced_mr(a).overall:
        raise InputError("semigroup construction requires a real reduced input")
    n = a.size
    d = [[0] * n for _ in range(n)]
    for x, y in itertools.product(range(n), repeat=2):
        m = 0
        for c in range(n):
            c2 = a.mul[c][c]
            if (a.add[a.mul[c2][x]][a.mul[c2][y]] >> c) & 1:
                m |= 1 << c
        d[x][y] = m
    s = RealSemigroup(a.carrier, a.mul, a.one, a.zero, a.neg[a.one],
                      tuple(tuple(r) for r in d))
    if dt_table(s) != a.add:
        raise StructuralAnomaly(
            "derived transversal sets do not match the addition table")
    return s


def squarewise_mrred_to_rs(a: FiniteMultiring) -> RealSemigroup:
    """Representation from scaled sums: d in D(x,y) iff d in d^2 x + d^2 y;
    the derived transversal sets must reproduce the original addition."""
    if not is_real_reduced_mr(a).overall:
        raise InputError("semigroup construction requires a real reduced input")
    # Whether c is in D(x, y) depends on c only through q = c^2, so D(x, y)
    # is the union over the distinct squares q of q x + q y cut down to the
    # elements whose square is q.
    n = a.size
    roots: dict[int, int] = {}
    for c in range(n):
        q = a.mul[c][c]
        roots[q] = roots.get(q, 0) | 1 << c
    d = [[0] * n for _ in range(n)]
    for x, y in itertools.product(range(n), repeat=2):
        m = 0
        for q, root_mask in roots.items():
            m |= a.add[a.mul[q][x]][a.mul[q][y]] & root_mask
        d[x][y] = m
    s = RealSemigroup(a.carrier, a.mul, a.one, a.zero, a.neg[a.one],
                      tuple(tuple(r) for r in d))
    if dt_table(s) != a.add:
        raise StructuralAnomaly(
            "derived transversal sets do not match the addition table")
    return s


def rs_to_mrred(s: RealSemigroup) -> FiniteMultiring:
    """Addition is the transversal representation set."""
    dt = dt_table(s)
    for a, b in itertools.product(range(s.size), repeat=2):
        if dt[a][b] == 0:
            raise StructuralAnomaly(
                f"empty transversal set at ({s.names[a]},{s.names[b]}): "
                "the structure fails the real semigroup consequences")
    neg = tuple(s.neg(a) for a in range(s.size))
    return FiniteMultiring(s.carrier, dt, s.mul, neg, s.zero, s.one)


def separation_audit(s: RealSemigroup) -> CheckReport:
    """Representation, transversal representation and point separation all
    reduce to the morphisms into the three-element structure."""
    three = canonical_3()
    homs = hom_to_3(s)
    n = s.size
    names = s.names
    dt = dt_table(s)
    dt3 = dt_table(three)

    w_d = None
    for a, b, c in itertools.product(range(n), repeat=3):
        direct = in_d(s, a, b, c)
        via = all((three.d[h.mapping[b]][h.mapping[c]] >> h.mapping[a]) & 1
                  for h in homs)
        if direct != via:
            w_d = (names[a], names[b], names[c])
            break

    w_dt = None
    for a, b, c in itertools.product(range(n), repeat=3):
        direct = bool((dt[b][c] >> a) & 1)
        via = all((dt3[h.mapping[b]][h.mapping[c]] >> h.mapping[a]) & 1
                  for h in homs)
        if direct != via:
            w_dt = (names[a], names[b], names[c])
            break

    w_sep = None
    for a, b in itertools.combinations(range(n), 2):
        if all(h.mapping[a] == h.mapping[b] for h in homs):
            w_sep = (names[a], names[b])
            break

    return CheckReport(
        subject="separation",
        verdicts=(
            Verdict("i-representation-pointwise", w_d is None, w_d),
            Verdict("ii-transversal-pointwise", w_dt is None, w_dt),
            Verdict("iii-points-separated", w_sep is None, w_sep),
        ),
    )


def check_aos(s: SignSpace) -> CheckReport:
    if s.mode != AOS:
        raise InputError("two-valued audit on a three-valued space")
    verdicts = _ax1_verdicts(s)
    dtab = value_table(s)

    ax1_ok = all(v.passed for v in verdicts[:2])
    if ax1_ok:
        minus = s.constant(-1)
        w2 = None
        evaluations = {tuple(f[x] for f in s.functions) for x in range(s.npoints)}
        for chi in _characters(s):
            if chi[minus] != -1:
                continue
            ker = mask_of(i for i, v in enumerate(chi) if v == 1)
            closed = True
            for i in bits(ker):
                for j in bits(ker):
                    if dtab[i][j] & ~ker:
                        closed = False
                        break
                if not closed:
                    break
            if closed and chi not in evaluations:
                w2 = ("character " + function_label(chi),)
                break
        verdicts.append(Verdict("AX2-characters-are-points", w2 is None, w2))
    else:
        verdicts.append(Verdict("AX2-characters-are-points", False, None,
                                "skipped: AX1 failed"))

    w3 = None
    n = s.nfunctions
    for a, b, c in itertools.product(range(n), repeat=3):
        lhs = 0
        for r in bits(dtab[b][c]):
            lhs |= dtab[a][r]
        for t in bits(lhs):
            if not any((dtab[sx][c] >> t) & 1 for sx in bits(dtab[a][b])):
                w3 = (function_label(s.functions[a]),
                      function_label(s.functions[b]),
                      function_label(s.functions[c]),
                      function_label(s.functions[t]))
                break
        if w3:
            break
    verdicts.append(Verdict("AX3-associativity", w3 is None, w3))
    return CheckReport("abstract ordering space", tuple(verdicts))



def check_ars(s: SignSpace) -> CheckReport:
    if s.mode != ARS:
        raise InputError("three-valued audit on a two-valued space")
    verdicts = _ax1_verdicts(s)
    ax1_ok = all(v.passed for v in verdicts[:2])

    if ax1_ok:
        # Imported here: reference_searches imports this module's audits.
        from reference_searches import _enumerate_ars_cones
        cones = _enumerate_ars_cones(s)
        point_cones = _ars_point_cones(s)
        w2 = None
        for p in cones:
            if p not in point_cones:
                w2 = tuple(function_label(s.functions[i]) for i in bits(p))
                break
        if w2 is None:
            for p in point_cones:
                if p not in cones:
                    w2 = ("missing point cone",) + tuple(
                        function_label(s.functions[i]) for i in bits(p))
                    break
        verdicts.append(Verdict("AX2-cones-are-points", w2 is None, w2))
    else:
        verdicts.append(Verdict("AX2-cones-are-points", False, None,
                                "skipped: AX1 failed"))

    w3 = None
    dt = transversal_table(s)
    n = s.nfunctions
    for a, b, c in itertools.product(range(n), repeat=3):
        for q in bits(dt[b][c]):
            for p in bits(dt[a][q]):
                if not any((dt[r][c] >> p) & 1 for r in bits(dt[a][b])):
                    w3 = (function_label(s.functions[a]),
                          function_label(s.functions[b]),
                          function_label(s.functions[c]),
                          function_label(s.functions[p]))
                    break
            if w3:
                break
        if w3:
            break
    verdicts.append(Verdict("AX3-strong-associativity", w3 is None, w3))
    return CheckReport("abstract real spectrum", tuple(verdicts))


def value_set_reassociation_check(s: SignSpace) -> CheckReport:
    """Union re-association of value sets, the inductive step behind the
    associativity of the derived multifield sums."""
    dtab = value_table(s)
    n = s.nfunctions
    w = None
    for a, b, c in itertools.product(range(n), repeat=3):
        left = 0
        for g in bits(dtab[a][b]):
            left |= dtab[c][g]
        right = 0
        for h in bits(dtab[b][c]):
            right |= dtab[h][a]
        if left != right:
            w = (function_label(s.functions[a]), function_label(s.functions[b]),
                 function_label(s.functions[c]))
            break
    return CheckReport("value set reassociation",
                       (Verdict("union-reassociation", w is None, w),))


@lru_cache(maxsize=None)
def _pair_classes(g: SpecialGroup) -> tuple[tuple[tuple[int, ...], ...],
                                            tuple[int, ...]]:
    """Class id per ordered pair, plus the mask of first components (the
    binary representation set) per class."""
    n = g.size
    cls = [[-1] * n for _ in range(n)]
    rep_masks: list[int] = []
    for a, b in itertools.product(range(n), repeat=2):
        if cls[a][b] >= 0:
            continue
        cid = len(rep_masks)
        members = [(c, d) for (c, d, x, y) in g.iso if (x, y) == (a, b)]
        if (a, b) not in members:
            members.append((a, b))
        mask = 0
        for (c, d) in members:
            cls[c][d] = cid
            mask |= 1 << c
        rep_masks.append(mask)
    return tuple(tuple(r) for r in cls), tuple(rep_masks)


@lru_cache(maxsize=None)
def _triple_iso_tables(g: SpecialGroup):
    """Group triples by (first element, class of the tail pair) and tabulate
    the existential triple-isometry between groups."""
    n = g.size
    cls, _ = _pair_classes(g)
    ncls = max(max(row) for row in cls) + 1
    members: dict[tuple[int, int], list[int]] = {}
    for c in range(ncls):
        for z in range(n):
            members[(c, z)] = [x for x in range(n) if cls[x][z] == c]
    # reach[a][c][z]: mask over class ids {cls(a,x) : cls(x,z)=c}
    reach = [[[0] * n for _ in range(ncls)] for _ in range(n)]
    for a in range(n):
        for c in range(ncls):
            for z in range(n):
                m = 0
                for x in members[(c, z)]:
                    m |= 1 << cls[a][x]
                reach[a][c][z] = m

    @lru_cache(maxsize=None)
    def group_iso(a1: int, ca: int, b1: int, cb: int) -> bool:
        ra, rb = reach[a1][ca], reach[b1][cb]
        return any(ra[z] & rb[z] for z in range(n))

    return cls, group_iso


def triple_iso(g: SpecialGroup, t1: tuple[int, int, int],
               t2: tuple[int, int, int]) -> bool:
    """Existential triple isometry: some common first residue splits both."""
    cls, group_iso = _triple_iso_tables(g)
    return group_iso(t1[0], cls[t1[1]][t1[2]], t2[0], cls[t2[1]][t2[2]])


def _triple_groups(g: SpecialGroup) -> tuple[list[tuple[int, int]],
                                             dict[tuple[int, int], int]]:
    cls, _ = _pair_classes(g)
    n = g.size
    seen: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for a1, a2, a3 in itertools.product(range(n), repeat=3):
        key = (a1, cls[a2][a3])
        if key not in seen:
            seen[key] = len(order)
            order.append(key)
    return order, seen


def _group_triple_rep(g: SpecialGroup, key: tuple[int, int]) -> tuple[str, str, str]:
    cls, _ = _pair_classes(g)
    n = g.size
    a1, c = key
    for a2, a3 in itertools.product(range(n), repeat=2):
        if cls[a2][a3] == c:
            return (g.names[a1], g.names[a2], g.names[a3])
    raise AssertionError("empty pair class")


def _sg6_witness(g: SpecialGroup) -> Optional[tuple]:
    order, index = _triple_groups(g)
    _, group_iso = _triple_iso_tables(g)
    k = len(order)
    rows = [0] * k
    for i, (a1, ca) in enumerate(order):
        for j, (b1, cb) in enumerate(order):
            if group_iso(a1, ca, b1, cb):
                rows[i] |= 1 << j
    for i in range(k):
        row = rows[i]
        for j in bits(row):
            extra = rows[j] & ~row
            if extra:
                m = next(bits(extra))
                return (_group_triple_rep(g, order[i]),
                        _group_triple_rep(g, order[j]),
                        _group_triple_rep(g, order[m]))
    return None


def _sg7_witness(g: SpecialGroup) -> Optional[tuple]:
    n = g.size
    for x, y in itertools.product(range(n), repeat=2):
        left = 0
        for t in bits(represented(g, g.one, y)):
            left |= represented(g, x, t)
        right = 0
        for s in bits(represented(g, g.one, x)):
            right |= represented(g, y, s)
        if left != right:
            return (g.names[x], g.names[y])
    return None


def _sg8_witness(g: SpecialGroup) -> Optional[tuple]:
    order, _ = _triple_groups(g)
    _, group_iso = _triple_iso_tables(g)
    k = len(order)
    rows = [0] * k
    for i, (a1, ca) in enumerate(order):
        for j, (b1, cb) in enumerate(order):
            if group_iso(a1, ca, b1, cb):
                rows[i] |= 1 << j
    # reachability closure over chains
    reach = list(rows)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            acc = reach[i]
            for j in bits(acc):
                acc |= reach[j]
            if acc != reach[i]:
                reach[i] = acc
                changed = True
    for i, (a1, ca) in enumerate(order):
        for j in bits(reach[i] | (1 << i)):
            b1, cb = order[j]
            if a1 == b1 and ca != cb:
                return (_group_triple_rep(g, order[i]),
                        _group_triple_rep(g, order[j]))
    return None


def _sg9_witness(g: SpecialGroup) -> Optional[tuple]:
    n = g.size
    cls, group_iso = _triple_iso_tables(g)
    for a, b, c, d in itertools.product(range(n), repeat=4):
        ab, cd = g.mul[a][b], g.mul[c][d]
        if group_iso(a, cls[b][ab], c, cls[d][cd]) \
                and not group_iso(b, cls[a][ab], c, cls[d][cd]):
            return (g.names[a], g.names[b], g.names[c], g.names[d])
    return None


def check_sg(g: SpecialGroup) -> CheckReport:
    psg = check_psg(g)
    w6 = _sg6_witness(g)
    return CheckReport(
        subject="special group",
        verdicts=psg.verdicts + (Verdict("SG6-3-transitivity", w6 is None, w6),),
    )


def check_reduced(g: SpecialGroup) -> CheckReport:
    sg = check_sg(g)
    cls, _ = _pair_classes(g)
    w_distinct = None if g.one != g.minus_one else (g.names[g.one],)
    w_rigid = None
    for a in range(g.size):
        if cls[a][a] == cls[g.one][g.one] and a != g.one:
            w_rigid = (g.names[a],)
            break
    return CheckReport(
        subject="reduced special group",
        verdicts=sg.verdicts + (
            Verdict("reduced-one-not-minus-one", w_distinct is None, w_distinct),
            Verdict("reduced-diagonal-rigid", w_rigid is None, w_rigid),
        ),
    )


def check_sg789(g: SpecialGroup) -> CheckReport:
    """SG7, SG8, SG9 verdicts plus the three-way agreement with SG6."""
    w6 = _sg6_witness(g)
    w7 = _sg7_witness(g)
    w8 = _sg8_witness(g)
    w9 = _sg9_witness(g)
    sg6 = w6 is None
    sg78 = w7 is None and w8 is None
    sg9 = w9 is None
    return CheckReport(
        subject="SG6/SG7+SG8/SG9 equivalence",
        verdicts=(
            Verdict("SG6", sg6, w6, "evaluated"),
            Verdict("SG7", w7 is None, w7, "evaluated"),
            Verdict("SG8", w8 is None, w8, "evaluated"),
            Verdict("SG9", sg9, w9, "evaluated"),
            Verdict("SG6-iff-SG7-and-SG8", sg6 == sg78,
                    None if sg6 == sg78 else (sg6, sg78)),
            Verdict("SG6-iff-SG9", sg6 == sg9,
                    None if sg6 == sg9 else (sg6, sg9)),
        ),
    )


def _smf_block(f: FiniteMultiring, nz: list[int],
               a: int, b: int, c: int, d: int) -> bool:
    """Existence of a triple-isometry split between (a,b,ab) and (c,d,cd)
    expressed through memberships: some x,y,z with ax=cy, a=xz, c=yz,
    a in c+y, b in x+z, d in y+z."""
    add, mul = f.add, f.mul
    for x in nz:
        ax = mul[a][x]
        for y in nz:
            if mul[c][y] != ax or not (add[c][y] >> a) & 1:
                continue
            for z in nz:
                if mul[x][z] == a and mul[y][z] == c \
                        and (add[x][z] >> b) & 1 and (add[y][z] >> d) & 1:
                    return True
    return False


def check_smf(f: FiniteMultiring) -> CheckReport:
    """The five representation-theoretic properties that make the nonzero
    part a special group."""
    if not classify(f).multifield:
        raise InputError("special multifield check requires a multifield")
    names = f.names
    nz = [x for x in range(f.size) if x != f.zero]
    total = full_mask(f.size)

    w1 = None
    for a in nz:
        if f.mul[a][a] != f.one:
            w1 = (names[a],)
            break

    w2 = None
    for a in nz:
        if f.add[a][f.neg[a]] != total:
            w2 = (names[a],)
            break

    w3 = None
    for a, b, c, d in itertools.product(nz, repeat=4):
        if f.mul[a][b] == f.mul[c][d] and (f.add[c][d] >> a) & 1 \
                and not (f.add[a][b] >> c) & 1:
            w3 = (names[a], names[b], names[c], names[d])
            break

    w4 = None
    fibers: dict[int, list[tuple[int, int]]] = {}
    for x, y in itertools.product(nz, repeat=2):
        fibers.setdefault(f.mul[x][y], []).append((x, y))
    for pairs in fibers.values():
        for (a, b), (c, d), (e, h) in itertools.product(pairs, repeat=3):
            if (f.add[c][d] >> a) & 1 and (f.add[e][h] >> c) & 1 \
                    and not (f.add[e][h] >> a) & 1:
                w4 = (names[a], names[b], names[c], names[d],
                      names[e], names[h])
                break
        if w4:
            break

    w5 = None
    for a, b, c, d in itertools.product(nz, repeat=4):
        if _smf_block(f, nz, a, b, c, d) and not _smf_block(f, nz, b, a, c, d):
            w5 = (names[a], names[b], names[c], names[d])
            break

    return CheckReport(
        subject="special multifield",
        verdicts=(
            Verdict("i-unit-squares", w1 is None, w1),
            Verdict("ii-full-opposite-sums", w2 is None, w2),
            Verdict("iii-symmetry", w3 is None, w3),
            Verdict("iv-transitivity", w4 is None, w4),
            Verdict("v-triple-split-swap", w5 is None, w5),
        ),
    )


def mf_to_sg(f: FiniteMultiring) -> SpecialGroup:
    """Nonzero part with isometry: equal products plus membership a in c+d."""
    nz = [x for x in range(f.size) if x != f.zero]
    if any(f.mul[x][y] == f.zero for x in nz for y in nz):
        raise InputError("special group construction requires a multifield: "
                         "a product of nonzero elements is zero")
    names = [f.names[x] for x in nz]
    back = {x: i for i, x in enumerate(nz)}
    mul = [[names[back[f.mul[x][y]]] for y in nz] for x in nz]
    quads = []
    for a, b, c, d in itertools.product(nz, repeat=4):
        if f.mul[a][b] == f.mul[c][d] and (f.add[c][d] >> a) & 1:
            quads.append((f.names[a], f.names[b], f.names[c], f.names[d]))
    return make_special_group(names, mul, f.names[f.neg[f.one]], quads,
                              one=f.names[f.one])


def _ideal_closure(a: FiniteMultiring, members: int) -> int:
    """Mask of the least ideal containing ``members``, by closure iteration:
    absorb products, then close under sums, until nothing changes."""
    members |= 1 << a.zero
    while True:
        grown = members
        for x in range(a.size):
            for y in bits(members):
                grown |= 1 << a.mul[x][y]
        for x in bits(grown):
            for y in bits(grown):
                grown |= a.add[x][y]
        if grown == members:
            return members
        members = grown


def enumerate_ideals(a: FiniteMultiring) -> list[Ideal]:
    """All ideals, by closing each reachable ideal under one more generator."""
    bottom = _ideal_closure(a, 0)
    seen = {bottom}
    queue = [bottom]
    while queue:
        current = queue.pop()
        for x in range(a.size):
            if (current >> x) & 1:
                continue
            grown = _ideal_closure(a, current | (1 << x))
            if grown not in seen:
                seen.add(grown)
                queue.append(grown)
    masks = sorted(seen, key=lambda m: (m.bit_count(), m))
    return [Ideal(a, m) for m in masks]


def quotient_by_ideal(a: FiniteMultiring,
                      ideal: Ideal) -> tuple[FiniteMultiring, StructureMap]:
    """Cosets x + I as elements; returns the quotient and the projection.

    The coset family is required to partition the carrier and the induced
    operations to be representative independent; both are verified.
    """
    if ideal.parent is not a and ideal.parent != a:
        raise InputError("ideal does not belong to this multiring")
    n = a.size
    cosets = [a.add_masks(1 << x, ideal.members) for x in range(n)]
    class_of = [-1] * n
    for x in range(n):
        if class_of[x] >= 0:
            continue
        for y in bits(cosets[x]):
            if cosets[y] != cosets[x]:
                raise StructuralAnomaly(
                    f"cosets of {a.names[x]} and {a.names[y]} overlap "
                    f"without being equal")
            class_of[y] = x
        class_of[x] = x
    reps, rep_index, names = _class_setup(a, class_of)

    def cls(x: int) -> int:
        return rep_index[class_of[x]]

    k = len(reps)
    add = [[0] * k for _ in range(k)]
    mul = [[0] * k for _ in range(k)]
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            add[i][j] = mask_of(cls(c) for c in bits(a.add[x][y]))
            mul[i][j] = cls(a.mul[x][y])
    # representative independence
    for x, y in itertools.product(range(n), repeat=2):
        i, j = cls(x), cls(y)
        if mask_of(cls(c) for c in bits(a.add[x][y])) != add[i][j]:
            raise StructuralAnomaly(
                f"quotient sum depends on representatives at "
                f"({a.names[x]},{a.names[y]})")
        if cls(a.mul[x][y]) != mul[i][j]:
            raise StructuralAnomaly(
                f"quotient product depends on representatives at "
                f"({a.names[x]},{a.names[y]})")
        if cls(a.neg[x]) != cls(a.neg[reps[i]]):
            raise StructuralAnomaly(
                f"quotient negation depends on representatives at {a.names[x]}")

    neg = tuple(cls(a.neg[x]) for x in reps)
    q = FiniteMultiring(Carrier(names), tuple(tuple(r) for r in add),
                        tuple(tuple(r) for r in mul), neg,
                        cls(a.zero), cls(a.one))
    proj = StructureMap(a, q, tuple(cls(x) for x in range(n)))
    return q, proj


def cellwise_reassociation_defects(table: Sequence[Sequence[int]], elements: _Elements
                                   ) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (x, y, z, (xy)z, x(yz)) for each triple, in lexicographic order,
    whose two bracketings differ.  Cells of the n x n mask table may be
    empty; ``elements`` expands each distinct cell once."""
    n = len(table)
    for x, row_x in enumerate(table):
        for y in range(n):
            rows_xy = [table[a] for a in elements[row_x[y]]]
            row_y = table[y]
            for z in range(n):
                left = 0
                for row in rows_xy:
                    left |= row[z]
                right = 0
                for c in elements[row_y[z]]:
                    right |= row_x[c]
                if left != right:
                    yield x, y, z, left, right


def cellwise_check_multiring(r: FiniteMultiring) -> CheckReport:
    """Audit the multiring axioms.

    Weak distributivity (a+b)d <= ad+bd is the axiom; equality is reported
    as an extra informational verdict so multifields can be recognised.
    """
    n = r.size
    names = r.names
    addgrp = check_multigroup(r.additive_multigroup())
    verdicts = [Verdict("add-" + v.axiom, v.passed, v.witness) for v in addgrp.verdicts]

    w = None
    for a, b, c in itertools.product(range(n), repeat=3):
        if r.mul[r.mul[a][b]][c] != r.mul[a][r.mul[b][c]]:
            w = (names[a], names[b], names[c])
            break
    verdicts.append(_verdict_all("mul-associativity", w))

    w = None
    for a, b in itertools.combinations(range(n), 2):
        if r.mul[a][b] != r.mul[b][a]:
            w = (names[a], names[b])
            break
    verdicts.append(_verdict_all("mul-commutativity", w))

    w = None
    for a in range(n):
        if r.mul[r.one][a] != a:
            w = (names[a],)
            break
    verdicts.append(_verdict_all("mul-identity", w))

    w = None
    for a in range(n):
        if r.mul[a][r.zero] != r.zero:
            w = (names[a],)
            break
    verdicts.append(_verdict_all("zero-absorbing", w))

    elements = _Elements()
    w_weak = None
    w_full = None
    for a, b in itertools.product(range(n), repeat=2):
        rows = [r.mul[c] for c in elements[r.add[a][b]]]
        mul_a, mul_b = r.mul[a], r.mul[b]
        for d in range(n):
            left = 0
            for row in rows:
                left |= 1 << row[d]
            right = r.add[mul_a[d]][mul_b[d]]
            if left != right:
                if w_full is None:
                    w_full = (names[a], names[b], names[d])
                if w_weak is None and left & ~right:
                    w_weak = (names[a], names[b], names[d])
        if w_weak and w_full:
            break
    verdicts.append(_verdict_all("distributivity-weak", w_weak))
    verdicts.append(_verdict_all("distributivity-full", w_full,
                                 note="informational", informational=True))

    return CheckReport("multiring", tuple(verdicts))


class _CellUnion(dict):
    """Cell mask -> elementwise OR of ``lines`` over the cell's elements, as
    a tuple, on first use; an empty cell gives a line of zeros."""

    __slots__ = ("lines", "elements")

    def __missing__(self, mask: int) -> tuple[int, ...]:
        lines = self.lines
        picked = self.elements[mask]
        if picked:
            out = tuple(lines[picked[0]])
            for a in picked[1:]:
                out = tuple(map(or_, out, lines[a]))
        else:
            out = (0,) * len(lines)
        self[mask] = out
        return out


def rowwise_distributivity(r: FiniteMultiring
                           ) -> tuple[Optional[tuple], Optional[tuple]]:
    """The witnesses of ``check_multiring``'s weak and full distributivity
    verdicts, compared by rows over d for each (a, b)."""
    n = r.size
    names = r.names
    mul, add = r.mul, r.add

    # Rows over d: (a+b)d is the OR of the rows 1 << cd over c in a+b, and
    # ad+bd picks column bd of the addition rows of the products ad.
    shifted = [tuple(map((1).__lshift__, row)) for row in mul]
    lefts = _CellUnion(zip(_SINGLETONS, shifted))
    lefts.lines, lefts.elements = shifted, _Elements()
    w_weak = None
    w_full = None
    for a, row_a in enumerate(add):
        sums_a = list(map(add.__getitem__, mul[a]))
        for b, cell in enumerate(row_a):
            left = lefts[cell]
            right = tuple(map(getitem, sums_a, mul[b]))
            if left != right:
                for d in range(n):
                    if left[d] != right[d]:
                        if w_full is None:
                            w_full = (names[a], names[b], names[d])
                        if w_weak is None and left[d] & ~right[d]:
                            w_weak = (names[a], names[b], names[d])
                if w_weak and w_full:
                    break
        if w_weak and w_full:
            break
    return w_weak, w_full


def evaluation_witnesses(a: FiniteMultiring, sigmas: Sequence[Sequence[int]]
                         ) -> tuple[Optional[tuple], Optional[tuple]]:
    """The morphism and strong witnesses of ``sper_embedding_check`` for the
    sign maps ``sigmas``, probed per (x, y, c) and per sign map."""
    names = a.names
    target = q2()
    w_mor = None
    for x, y in itertools.product(range(a.size), repeat=2):
        for c in bits(a.add[x][y]):
            for s in sigmas:
                if not (target.add[s[x]][s[y]] >> s[c]) & 1:
                    w_mor = (names[x], names[y], names[c])
                    break
            if w_mor:
                break
        if w_mor:
            break

    w_strong = None
    for x, y, c in itertools.product(range(a.size), repeat=3):
        if (a.add[x][y] >> c) & 1:
            continue
        if all((target.add[s[x]][s[y]] >> s[c]) & 1 for s in sigmas):
            w_strong = (names[x], names[y], names[c])
            break
    return w_mor, w_strong


def rowwise_reassociation_defects(table: Sequence[Sequence[int]], elements: _Elements
                                  ) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (x, y, z, (xy)z, x(yz)) for each triple, in lexicographic order,
    whose two bracketings differ.  Cells of the n x n mask table may be
    empty; ``elements`` expands each distinct cell once.

    Each (x, y) compares whole rows over z: (xy)z is the OR of the table's
    rows over the cell xy, and x(yz) takes entry x of the OR of its columns
    over each cell yz; each OR is built once per distinct cell.  Only rows
    that differ are scanned z by z."""
    n = len(table)
    columns = list(zip(*table))
    lefts = _CellUnion(zip(_SINGLETONS, map(tuple, table)))
    rights = _CellUnion(zip(_SINGLETONS, columns))
    lefts.lines, rights.lines = table, columns
    lefts.elements = rights.elements = elements
    over_columns = rights.__getitem__
    for x, row_x in enumerate(table):
        at_x = itemgetter(x)
        for y, cell in enumerate(row_x):
            left = lefts[cell]
            right = tuple(map(at_x, map(over_columns, table[y])))
            if left != right:
                for z in range(n):
                    if left[z] != right[z]:
                        yield x, y, z, left[z], right[z]


def rowwise_mul_associativity(r: FiniteMultiring) -> Optional[tuple[str, str, str]]:
    """``check_multiring``'s mul-associativity witness, read row by row."""
    n = r.size
    names = r.names

    # Rows over c: (ab)c is row ab of mul, and a(bc) is row b read
    # through row a.
    mul = r.mul
    w = None
    for a, row_a in enumerate(mul):
        through_a = row_a.__getitem__
        for b, ab in enumerate(row_a):
            left = mul[ab]
            right = tuple(map(through_a, mul[b]))
            if left != right:
                for c in range(n):
                    if left[c] != right[c]:
                        w = (names[a], names[b], names[c])
                        break
                if w:
                    break
        if w:
            break
    return w


def associativity_defect(table: Sequence[Sequence[int]]
                         ) -> Optional[tuple[int, int, int]]:
    """The least (a, b, c) with (ab)c != a(bc) in the value table, or None:
    the triple loop of ``check_ts``, ``SpecialGroup`` and the monoid-table
    generator."""
    n = len(table)
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return a, b, c
    return None


class LoopCheckedSpecialGroup(SpecialGroup):
    """``SpecialGroup`` with the validation it had when associativity was a
    triple loop."""

    def __post_init__(self) -> None:
        n = self.carrier.size
        if len(self.mul) != n or any(len(r) != n for r in self.mul):
            raise InputError("ragged multiplication table")
        for row in self.mul:
            for v in row:
                if not 0 <= v < n:
                    raise InputError("multiplication entry out of range")
        if not 0 <= self.one < n or not 0 <= self.minus_one < n:
            raise InputError("distinguished element out of range")
        for a in range(n):
            if self.mul[self.one][a] != a:
                raise InputError("designated identity is not an identity")
            if self.mul[a][a] != self.one:
                raise InputError(f"not exponent 2 at {self.carrier.names[a]}")
        for a, b, c in itertools.product(range(n), repeat=3):
            if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                raise InputError("multiplication is not associative")
        for a, b in itertools.combinations(range(n), 2):
            if self.mul[a][b] != self.mul[b][a]:
                raise InputError("multiplication is not commutative")
        for q in self.iso:
            if len(q) != 4 or any(not 0 <= v < n for v in q):
                raise InputError(f"isometry quadruple {q} outside carrier")


def check_morphism(f: StructureMap) -> CheckReport:
    """Audit the five multiring morphism conditions."""
    a: FiniteMultiring = f.source  # type: ignore[assignment]
    b: FiniteMultiring = f.target  # type: ignore[assignment]
    names = a.names
    fm = f.mapping

    w1 = None
    for x, y in itertools.product(range(a.size), repeat=2):
        for c in bits(a.add[x][y]):
            if not (b.add[fm[x]][fm[y]] >> fm[c]) & 1:
                w1 = (names[x], names[y], names[c])
                break
        if w1:
            break

    w2 = None
    for x in range(a.size):
        if fm[a.neg[x]] != b.neg[fm[x]]:
            w2 = (names[x],)
            break

    w3 = None if fm[a.zero] == b.zero else (names[a.zero],)

    w4 = None
    for x, y in itertools.product(range(a.size), repeat=2):
        if fm[a.mul[x][y]] != b.mul[fm[x]][fm[y]]:
            w4 = (names[x], names[y])
            break

    w5 = None if fm[a.one] == b.one else (names[a.one],)

    return CheckReport(
        subject="morphism",
        verdicts=(
            _verdict_all("i-add-membership", w1),
            _verdict_all("ii-neg", w2),
            _verdict_all("iii-zero", w3),
            _verdict_all("iv-mul", w4),
            _verdict_all("v-one", w5),
        ),
    )


def check_rs_morphism(fmap: StructureMap) -> CheckReport:
    s: RealSemigroup = fmap.source  # type: ignore[assignment]
    t: RealSemigroup = fmap.target  # type: ignore[assignment]
    m = fmap.mapping
    names = s.names
    w_hom = None
    for a, b in itertools.product(range(s.size), repeat=2):
        if m[s.mul[a][b]] != t.mul[m[a]][m[b]]:
            w_hom = (names[a], names[b])
            break
    w_const = None
    for idx, (si, ti) in enumerate(((s.one, t.one), (s.zero, t.zero),
                                    (s.minus_one, t.minus_one))):
        if m[si] != ti:
            w_const = (("1", "0", "-1")[idx],)
            break
    w_d = None
    for b, c in itertools.product(range(s.size), repeat=2):
        for a in bits(s.d[b][c]):
            if not (t.d[m[b]][m[c]] >> m[a]) & 1:
                w_d = (names[a], names[b], names[c])
                break
        if w_d:
            break
    return CheckReport(
        subject="real semigroup morphism",
        verdicts=(
            Verdict("semigroup-homomorphism", w_hom is None, w_hom),
            Verdict("constants", w_const is None, w_const),
            Verdict("preserves-representation", w_d is None, w_d),
        ),
    )


def check_sg_morphism(fmap: StructureMap) -> CheckReport:
    """Group homomorphism fixing -1 and preserving isometry forward; the
    reverse preservation is reported separately and not required."""
    g: SpecialGroup = fmap.source  # type: ignore[assignment]
    h: SpecialGroup = fmap.target  # type: ignore[assignment]
    m = fmap.mapping
    names = g.names
    clsh, _ = _pair_classes(h)

    w_hom = None
    for a, b in itertools.product(range(g.size), repeat=2):
        if m[g.mul[a][b]] != h.mul[m[a]][m[b]]:
            w_hom = (names[a], names[b])
            break
    w_minus = None if m[g.minus_one] == h.minus_one else (names[g.minus_one],)
    w_fwd = None
    for (a, b, c, d) in sorted(g.iso):
        if clsh[m[a]][m[b]] != clsh[m[c]][m[d]]:
            w_fwd = (names[a], names[b], names[c], names[d])
            break
    w_bwd = None
    clsg, _ = _pair_classes(g)
    for a, b, c, d in itertools.product(range(g.size), repeat=4):
        if clsh[m[a]][m[b]] == clsh[m[c]][m[d]] and clsg[a][b] != clsg[c][d]:
            w_bwd = (names[a], names[b], names[c], names[d])
            break
    return CheckReport(
        subject="special group morphism",
        verdicts=(
            Verdict("group-homomorphism", w_hom is None, w_hom),
            Verdict("fixes-minus-one", w_minus is None, w_minus),
            Verdict("preserves-isometry", w_fwd is None, w_fwd),
            Verdict("reflects-isometry", w_bwd is None, w_bwd,
                    "not required for morphisms", informational=True),
        ),
    )


def is_sg_morphism(fmap: StructureMap) -> bool:
    """The required part of check_sg_morphism: homomorphism, -1 and forward
    isometry, without the report's informational reverse scan."""
    g: SpecialGroup = fmap.source  # type: ignore[assignment]
    h: SpecialGroup = fmap.target  # type: ignore[assignment]
    m = fmap.mapping
    clsh, _ = _pair_classes(h)
    return m[g.minus_one] == h.minus_one \
        and all(m[g.mul[a][b]] == h.mul[m[a]][m[b]]
                for a, b in itertools.product(range(g.size), repeat=2)) \
        and all(clsh[m[a]][m[b]] == clsh[m[c]][m[d]] for (a, b, c, d) in g.iso)


def product(factors: Sequence[FiniteMultiring],
            sep: str = ",") -> FiniteMultiring:
    """Componentwise product; the empty product is the one-element 1=0 ring."""
    if not factors:
        carrier = Carrier(("0",))
        return FiniteMultiring(carrier, ((1,),), ((0,),), (0,), 0, 0)
    total = 1
    for f in factors:
        total *= f.size
    if total > CARRIER_CAP:
        raise InputError(f"product size {total} exceeds cap {CARRIER_CAP}")

    index_tuples = list(itertools.product(*(range(f.size) for f in factors)))
    pos = {t: i for i, t in enumerate(index_tuples)}
    names = tuple("(" + sep.join(f.names[i] for f, i in zip(factors, t)) + ")"
                  for t in index_tuples)

    def add_cell(s: tuple[int, ...], t: tuple[int, ...]) -> int:
        out = 0
        for combo in itertools.product(
                *(bits(f.add[x][y]) for f, x, y in zip(factors, s, t))):
            out |= 1 << pos[combo]
        return out

    add = tuple(tuple(add_cell(s, t) for t in index_tuples) for s in index_tuples)
    mul = tuple(tuple(pos[tuple(f.mul[x][y] for f, x, y in zip(factors, s, t))]
                      for t in index_tuples) for s in index_tuples)
    neg = tuple(pos[tuple(f.neg[x] for f, x in zip(factors, s))]
                for s in index_tuples)
    zero = pos[tuple(f.zero for f in factors)]
    one = pos[tuple(f.one for f in factors)]
    return FiniteMultiring(Carrier(names), add, mul, neg, zero, one)


def rs_product(factors: Sequence[RealSemigroup], sep: str = ",") -> RealSemigroup:
    """Componentwise product with componentwise representation."""
    if not factors:
        raise InputError("empty real semigroup product")
    index_tuples = list(itertools.product(*(range(f.size) for f in factors)))
    pos = {t: i for i, t in enumerate(index_tuples)}
    names = tuple("(" + sep.join(f.names[i] for f, i in zip(factors, t)) + ")"
                  for t in index_tuples)
    mul = tuple(tuple(pos[tuple(f.mul[x][y] for f, x, y in zip(factors, s, t))]
                      for t in index_tuples) for s in index_tuples)
    n = len(index_tuples)
    d = [[0] * n for _ in range(n)]
    for bi, b in enumerate(index_tuples):
        for ci, c in enumerate(index_tuples):
            m = 0
            for ai, a in enumerate(index_tuples):
                if all(in_d(f, x, y, z) for f, x, y, z in zip(factors, a, b, c)):
                    m |= 1 << ai
            d[bi][ci] = m
    return RealSemigroup(
        Carrier(names), mul,
        pos[tuple(f.one for f in factors)],
        pos[tuple(f.zero for f in factors)],
        pos[tuple(f.minus_one for f in factors)],
        tuple(tuple(r) for r in d))


def sg_to_mf(g: SpecialGroup, zero_label: str = "0") -> FiniteMultiring:
    """Adjoin a fresh zero; sums are the representation sets except in the
    forced cases a+0 and a+(-a)."""
    if zero_label in g.names:
        raise InputError(f"zero label {zero_label!r} collides with a group element")
    n = g.size
    cls, reps = _pair_classes(g)
    names = g.names + (zero_label,)
    zero = n
    total = full_mask(n + 1)
    add = [[0] * (n + 1) for _ in range(n + 1)]
    for a in range(n):
        add[a][zero] = 1 << a
        add[zero][a] = 1 << a
        for b in range(n):
            if b == g.neg(a):
                add[a][b] = total
            else:
                add[a][b] = reps[cls[a][b]]
    add[zero][zero] = 1 << zero
    mul = [[0] * (n + 1) for _ in range(n + 1)]
    for a in range(n):
        for b in range(n):
            mul[a][b] = g.mul[a][b]
        mul[a][zero] = zero
        mul[zero][a] = zero
    mul[zero][zero] = zero
    neg = tuple(g.neg(a) for a in range(n)) + (zero,)
    return FiniteMultiring(Carrier(names), tuple(tuple(r) for r in add),
                           tuple(tuple(r) for r in mul), neg, zero, g.one)


def aos_to_mfred(s: SignSpace, zero_label: str = "0") -> FiniteMultiring:
    """Adjoin a zero to the function group; sums are value sets except in the
    forced zero and opposite cases."""
    if s.mode != AOS:
        raise InputError("multifield construction needs a two-valued space")
    n = s.nfunctions
    labels = [function_label(f) for f in s.functions]
    if zero_label in labels:
        raise InputError("zero label collides with a function label")
    names = tuple(labels) + (zero_label,)
    zero = n
    dtab = value_table(s)
    neg_index = [s.index(s.negation(i)) for i in range(n)]
    if any(v is None for v in neg_index):
        raise InputError("function set is not closed under negation")
    prod = _product_table(s)
    if any(k is None for row in prod for k in row):
        raise InputError("function set is not closed under products")
    total = full_mask(n + 1)
    add = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        add[i][zero] = 1 << i
        add[zero][i] = 1 << i
        for j in range(n):
            add[i][j] = total if j == neg_index[i] else dtab[i][j]
    add[zero][zero] = 1 << zero
    mul = [row + (zero,) for row in prod] + [(zero,) * (n + 1)]
    one = s.constant(1)
    if one is None:
        raise InputError("function set lacks the constant 1")
    neg = tuple(neg_index) + (zero,)
    return FiniteMultiring(Carrier(names), tuple(tuple(r) for r in add),
                           tuple(mul), neg, zero, one)
