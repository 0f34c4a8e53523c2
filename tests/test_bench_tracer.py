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
multifield at ``all`` and one seeded rs3 x rs3 mutant.  The test only reads
``bench/``.
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
            ("rs3x3_mutant", _rs_mutant(), "all")):
        path = str(tmp_path / f"{name}.mrs")
        mio.write_structure(path, obj)
        cases.append(["check", path, "--level", level, "--format", "jsonl"])

    def run(argv):
        for cache in caches:
            cache.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    untraced = [run(argv) for argv in cases]
    assert [code for code, _ in untraced] == [0, 0, 0, 0, 1]
    for instrument in (tracer.Spans(mods, clock=time.perf_counter), tracer.Counts(mods)):
        instrument.install()
        try:
            traced = [run(argv) for argv in cases]
        finally:
            instrument.uninstall()
        assert traced == untraced, type(instrument).__name__
