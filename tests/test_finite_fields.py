"""F_32, F_49 and F_64 from ``tests/fixtures/finite_fields.py``: fields at
and near the carrier cap, whose additions are single-valued, so that the
audits read them as byte rows.

Their ``check_multiring`` reports equal the naive
``reference_audits.check_multiring``, ``classify`` calls them multifields,
and seeded single-cell ``add`` value moves of F_64, which keep every sum a
singleton, get the naive reference's witnesses.
"""

import dataclasses
import importlib.util
import os
import random

import reference_audits as reference
from multialg import core


def _fixture():
    path = os.path.join(os.path.dirname(__file__), "fixtures", "finite_fields.py")
    spec = importlib.util.spec_from_file_location("finite_fields", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


finite_fields = _fixture()


def test_moduli_are_checked():
    for q, (p, modulus) in finite_fields.MODULI.items():
        assert finite_fields.is_irreducible(p, modulus), q
    # t^6 + 1 = (t^3 + 1)^2 over F_2, t^2 - 1 = (t - 1)(t + 1) over F_7,
    # t^4 + t^2 + 1 = (t^2 + t + 1)^2 over F_2: no root but reducible.
    for p, modulus in ((2, (1, 0, 0, 0, 0, 0, 1)), (7, (6, 0, 1)), (2, (1, 0, 1, 0, 1))):
        assert not finite_fields.is_irreducible(p, modulus)


def test_fields_pass_the_audit_and_classify_as_multifields():
    for q in (32, 49, 64):
        f = finite_fields.finite_field(q)
        assert f.size == q and core._byte_rows(f.add) is not None
        report = core.check_multiring(f)
        assert report.overall and report == reference.check_multiring(f), q
        assert core.classify(f).multifield, q


def test_add_value_moves_of_f64():
    rng = random.Random(38)
    f = finite_fields.finite_field(64)
    for _ in range(20):
        i, j = rng.randrange(64), rng.randrange(64)
        value = rng.choice([v for v in range(64) if 1 << v != f.add[i][j]])
        rows = [list(row) for row in f.add]
        rows[i][j] = 1 << value
        mutant = dataclasses.replace(f, add=tuple(map(tuple, rows)))
        report = core.check_multiring(mutant)
        assert not report.overall
        assert report == reference.check_multiring(mutant)
