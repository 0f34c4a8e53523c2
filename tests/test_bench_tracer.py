"""The bench's traced run prints what the untraced run prints.

``bench/tracer.py`` rebinds every module-level function of the library's
layer modules, the copies that ``from .core import ...`` made in the other
modules included, and its generator wrapper drops a generator's return
value.  Library code that reads a generator's return value, compares
module-level functions by identity or sets attributes on one prints other
output under the tracer.  Here its ``Spans`` and then its ``Counts`` are
installed over the imported library, and ``check --format jsonl`` must give
the stdout and exit code of the untraced run: on Z/32 and q2^3 at ``all``,
Z/64 at ``axioms`` (byte rows at the cap), the special group of the fan-3
multifield at ``all``, the fan-4 multifield at ``all`` (where the guards
behind ``classify`` read the multiring audit kept on the structure) and one
seeded rs3 x rs3 mutant; ``diagram`` on the fan-3 multifield reads the
kept ``check_sg`` report, ``mf_to_sg`` and ``mfred_to_aos`` twice each.
At ``derived`` and ``all`` the axioms of a multiring or multigroup and its
lemmas read one reassociation scan, the lemmas resuming it after the
axioms' first defect;
three inputs guard that under the tracer: a multigroup mutant whose scan
runs to its end for lemma (e), an addition mutant whose first defect comes
before III's, and a multiplication mutant whose addition passes.  The test
only reads ``bench/``.
"""

import contextlib
import dataclasses
import importlib
import importlib.util
import io
import os
import random
import time
import types

from multialg import cli, core
from multialg import io as mio
from multialg.corpus import q2cube
from multialg.ordering_spaces import aos_to_mfred, fan_aos
from multialg.real_semigroups import canonical_3, rs_product
from multialg.special_groups import mf_to_sg

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _caches(modules):
    """The functools caches of the library, looked up before the tracer
    rebinds their names."""
    return [value for module in modules for value in vars(module).values()
            if callable(getattr(value, "cache_clear", None))]


def _rs_mutant():
    s = rs_product([canonical_3()] * 2)
    rng = random.Random(38)
    i, j = rng.randrange(s.carrier.size), rng.randrange(s.carrier.size)
    rows = [list(row) for row in s.d]
    rows[i][j] ^= 1 << rng.randrange(s.carrier.size)
    return dataclasses.replace(s, d=tuple(map(tuple, rows)))


def _with_cell(table, i, j, cell):
    return tuple(row if x != i else row[:j] + (cell,) + row[j + 1:]
                 for x, row in enumerate(table))


def _scan_mutants():
    fan3 = aos_to_mfred(fan_aos(3)).additive_multigroup()
    z8, z12 = core.ring_multiring(8), core.ring_multiring(12)
    group = dataclasses.replace(fan3, op=_with_cell(fan3.op, 8, 0, fan3.op[8][0] | 1 << 8))
    added = dataclasses.replace(z8, add=_with_cell(z8.add, 0, 2, z8.add[0][2] | 1))
    forward = [left & ~right for *_, left, right
               in core._reassociation_defects(added.add)]
    assert not forward[0] and any(forward)
    assert not any(left & ~right for *_, left, right
                   in core._reassociation_defects(group.op))
    return [("fan3_group_mutant", group), ("z8_add_mutant", added),
            ("z12_mul_mutant", dataclasses.replace(z12, mul=_with_cell(z12.mul, 2, 3, 5)))]


def test_traced_check_prints_the_untraced_output(tmp_path):
    tracer = _tracer()
    mods = types.SimpleNamespace(**{layer: importlib.import_module(f"multialg.{layer}")
                                    for layer in tracer.LAYERS})
    caches = _caches(vars(mods).values())
    cases = []
    for name, obj, level in (
            ("z32", core.ring_multiring(32), "all"),
            ("z64", core.ring_multiring(64), "axioms"),
            ("q2cube", q2cube(), "all"),
            ("sg_fan3", mf_to_sg(aos_to_mfred(fan_aos(3))), "all"),
            ("fan4", aos_to_mfred(fan_aos(4)), "all"),
            ("rs3x3_mutant", _rs_mutant(), "all")):
        path = str(tmp_path / f"{name}.mrs")
        mio.write_structure(path, obj)
        cases.append(["check", path, "--level", level, "--format", "jsonl"])
    path = str(tmp_path / "fan3.mrs")
    mio.write_structure(path, aos_to_mfred(fan_aos(3)))
    cases.insert(-1, ["diagram", path])
    for name, obj in _scan_mutants():
        path = str(tmp_path / f"{name}.mrs")
        mio.write_structure(path, obj)
        cases += [["check", path, "--level", level, "--format", "jsonl"]
                  for level in ("derived", "all")]

    def run(argv):
        for cache in caches:
            cache.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    untraced = [run(argv) for argv in cases]
    assert [code for code, _ in untraced] == [0] * 6 + [1] * 7
    for instrument in (tracer.Spans(mods, clock=time.perf_counter), tracer.Counts(mods)):
        instrument.install()
        try:
            traced = [run(argv) for argv in cases]
        finally:
            instrument.uninstall()
        assert traced == untraced, type(instrument).__name__
