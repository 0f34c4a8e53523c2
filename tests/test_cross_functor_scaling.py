"""Transversal scaling of a real semigroup is weak distributivity of its
multiring.

``rs_to_mrred`` takes D^t as the addition, so consequence iii of
``check_rs_derived``, a in D^t(b, c) => ae in D^t(be, ce), is the multiring
axiom (a+b)d <= ad+bd of ``check_multiring`` on the image, with the
variables renamed.  Both verdicts read core's scaling rows, through
``real_semigroups._scaling_failures`` and ``core._distributivity_defects``.
Here, on every structure of ``test_rs_rows.structures()`` that
``rs_to_mrred`` accepts, the two verdicts must agree, and each witness must
be a violation recomputed from the tables; rs3^3 has 27 elements, so its
multiring audit passes through the pre-check over the generators of mul.
"""

from multialg.core import StructuralAnomaly, check_multiring
from multialg.real_semigroups import check_rs_derived, dt_table, rs_to_mrred
from test_rs_rows import structures


def test_iii_is_weak_distributivity_of_the_image():
    refused = passing = failing = 0
    for s in structures():
        try:
            r = rs_to_mrred(s)
        except StructuralAnomaly:
            refused += 1
            continue
        index = s.carrier.index
        dt, mul = dt_table(s), s.mul
        iii = check_rs_derived(s).verdict("iii-transversal-scaling")
        weak = check_multiring(r).verdict("distributivity-weak")
        assert iii.passed == weak.passed, (s.names, iii, weak)
        if iii.passed:
            passing += 1
            continue
        failing += 1
        a, b, c, e = map(index, iii.witness)
        assert (dt[b][c] >> a) & 1 and not (dt[mul[b][e]][mul[c][e]] >> mul[a][e]) & 1
        a, b, d = map(index, weak.witness)
        assert any(not (r.add[mul[a][d]][mul[b][d]] >> mul[x][d]) & 1
                   for x in range(r.size) if (r.add[a][b] >> x) & 1)
    assert (refused, failing, passing) == (207, 367, 149)
