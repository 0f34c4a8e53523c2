"""Spans and counters for the traced run, built from the benchmark's files.

Every module-level function of a layer module is replaced by a wrapper, and
so is every other name bound to the same function object, including the
copies that ``from .core import ...`` made in the other modules.  A span's
self time is its duration minus the time covered by the spans it caused.

Two instruments, never installed together:

- ``Spans`` times the layer functions; a generator gets one span per
  resumption.  Per-cell helpers are left out, since wrapping a helper
  called millions of times per pass would time the wrapper.
- ``Counts`` counts the bitmask kernel (``bits``, ``op_masks``,
  ``add_masks``, ``mul_masks``), morphism-search leaves and enumeration
  candidates, with no clock reads.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("core", "constructions", "spectra", "special_groups",
          "real_semigroups", "ordering_spaces", "enumeration", "io", "cli")

# Per-cell helpers, attributed to their caller's span.
UNTIMED = {
    "core": {"bits", "mask_of", "full_mask", "_verdict_all"},
    "real_semigroups": {"in_dt"},
    "special_groups": {"pair_class", "represented", "triple_iso"},
    "ordering_spaces": {"function_label", "value_set", "transversal_value_set"},
}

HOT_FUNCTIONS = (
    "core.check_relational_lemmas",
    "core.check_relational_axioms",
    "core.check_multiring",
    "core.check_multigroup",
    "core.check_morphism",
    "core.find_isomorphism",
    "core.enumerate_multiring_morphisms",
    "real_semigroups.check_rs",
    "real_semigroups.check_rs_derived",
    "special_groups._sg6_witness",
    "special_groups.check_smf",
    "ordering_spaces.find_space_isomorphism",
    "enumeration.multigroup_canonical_key",
    "enumeration.multiring_canonical_key",
)

# Counters that must repeat exactly for a fixed seed (see selftest.py),
# besides every "<layer>.calls".
COUNTS = ("core.kernel_calls", "core.morphism_leaves", "core.morphism_leaf_yield",
          "enumeration.candidates", "enumeration.accept_ratio")


def layer_functions(mods, layer: str) -> dict[str, object]:
    """Module-level functions defined in a layer module (cached ones too)."""
    module = getattr(mods, layer)
    out = {}
    for name, obj in vars(module).items():
        code = getattr(obj, "__wrapped__", obj)
        if inspect.isfunction(code) and code.__module__ == module.__name__:
            out[name] = obj
    return out


class _Patcher:
    """Rebinds every name that refers to a replaced object, and undoes it."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace_everywhere(self, pairs: list[tuple[object, object]]) -> None:
        """Bind every library name that refers to an original to its
        replacement; pairs are (original, replacement)."""
        by_id = {id(original): (original, new) for original, new in pairs}
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("multialg"):
                continue
            for name, value in list(vars(module).items()):
                original, new = by_id.get(id(value), (None, None))
                if original is value:
                    self._undo.append((module, name, value))
                    setattr(module, name, new)

    def set_attr(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


class Spans:
    """Per-function call counts and self time."""

    def __init__(self, mods, clock) -> None:
        self.mods = mods
        self.stats: dict[str, list] = {}
        self._patcher = _Patcher()
        self._clock = clock

    def install(self) -> None:
        stack: list[float] = []
        perf = self._clock

        def timed(record, fn, args, kwargs):
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                children = stack.pop()
                record[1] += duration - children
                if stack:
                    stack[-1] += duration

        def span(fn, record):
            def wrapper(*args, **kwargs):
                record[0] += 1
                return timed(record, fn, args, kwargs)
            return wrapper

        def generator_span(fn, record):
            # Each resumption is a span of its own, charged to one record.
            def wrapper(*args, **kwargs):
                record[0] += 1
                resume = fn(*args, **kwargs).__next__
                while True:
                    try:
                        value = timed(record, resume, (), {})
                    except StopIteration:
                        return
                    yield value
            return wrapper

        pairs = []
        for layer in LAYERS:
            skip = UNTIMED.get(layer, set())
            for name, fn in layer_functions(self.mods, layer).items():
                if name in skip:
                    continue
                record = self.stats.setdefault(f"{layer}.{name}", [0, 0.0])
                code = getattr(fn, "__wrapped__", fn)
                make = generator_span if inspect.isgeneratorfunction(code) else span
                pairs.append((fn, make(fn, record)))
        self._patcher.replace_everywhere(pairs)

    def uninstall(self) -> None:
        self._patcher.undo()

    def metrics(self, passes: int, scale: float) -> dict[str, tuple[float, str]]:
        """Calls and self time per pass, over ``passes`` traced passes; self
        times are multiplied by ``scale``."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            calls = sum(r[0] for k, r in self.stats.items() if k.startswith(layer + "."))
            self_s = sum(r[1] for k, r in self.stats.items() if k.startswith(layer + "."))
            out[f"{layer}.self_s"] = (self_s * scale / passes, "s")
            out[f"{layer}.calls"] = (calls // passes, "count")
        for name in HOT_FUNCTIONS:
            out[f"{name}.self_s"] = (self.stats.get(name, [0, 0.0])[1] * scale / passes, "s")
        return out


class Counts:
    """Kernel, search-leaf and enumeration-candidate counters."""

    def __init__(self, mods) -> None:
        self.mods = mods
        self.kernel = 0
        self.leaves = 0
        self.returned = 0
        self.candidates = 0
        self.accepted = 0
        self._patcher = _Patcher()

    def install(self) -> None:
        core, en = self.mods.core, self.mods.enumeration
        bits = core.bits
        depth = [0]

        def counted_bits(mask):
            self.kernel += 1
            return bits(mask)

        for cls, name in ((core.FiniteMultigroup, "op_masks"),
                          (core.FiniteMultiring, "add_masks"),
                          (core.FiniteMultiring, "mul_masks")):
            method = getattr(cls, name)

            def counted(obj, xmask, ymask, _method=method):
                self.kernel += 1
                return _method(obj, xmask, ymask)
            self._patcher.set_attr(cls, name, counted)

        check_morphism = core.check_morphism
        enumerate_morphisms = core.enumerate_multiring_morphisms

        def counted_check_morphism(f):
            if depth[0]:
                self.leaves += 1
            return check_morphism(f)

        def counted_enumerate(a, b):
            depth[0] += 1
            try:
                found = enumerate_morphisms(a, b)
            finally:
                depth[0] -= 1
            self.returned += len(found)
            return found

        self._patcher.replace_everywhere(
            [(bits, counted_bits), (check_morphism, counted_check_morphism),
             (enumerate_morphisms, counted_enumerate)])

        # Only enumeration's own bindings: these are the candidate audits.
        for name in ("check_multigroup", "check_multiring"):
            audit = getattr(en, name)

            def counted_audit(obj, _audit=audit):
                report = _audit(obj)
                self.candidates += 1
                self.accepted += report.overall
                return report
            self._patcher.set_attr(en, name, counted_audit)

    def uninstall(self) -> None:
        self._patcher.undo()

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "core.kernel_calls": (self.kernel, "count"),
            "core.morphism_leaves": (self.leaves, "count"),
            "core.morphism_leaf_yield":
                (self.returned / self.leaves if self.leaves else 0.0, "ratio"),
            "enumeration.candidates": (self.candidates, "count"),
            "enumeration.accept_ratio":
                (self.accepted / self.candidates if self.candidates else 0.0, "ratio"),
        }
