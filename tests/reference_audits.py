"""The axiom audits as they were before the mask-algebra kernel.

These are the original n^4 set-probe versions of ``check_multigroup``,
``check_relational_axioms``, ``check_relational_lemmas`` and
``check_multiring``, kept verbatim as the naive reference that
``tests/test_audit_kernel.py`` pins the library's audits to: every verdict,
witness, note and informational flag must agree.
"""

import itertools

from multialg.core import (
    CheckReport,
    FiniteMultigroup,
    FiniteMultiring,
    RelationalMultigroup,
    Verdict,
    _verdict_all,
    bits,
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
