"""Benchmark harness for multialg: times the library from outside it.

Run from the repository root:

    python3 bench/run.py --workload check-ladder --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced passes (see tracer.py).  The number of passes is
fixed per workload, so ``--seconds`` is accepted but changes nothing: a run
lasts as long as its passes take.  Times are scaled to a fixed machine speed
(see speed.py).  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.  Standard library only; one process,
one thread.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import speed
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = BENCH_DIR / "pins.json"

SETUP_REPEATS = 5
ITEM_TIMEOUT_S = 60.0
# Passes over the items in one end-to-end run.  The count is fixed, so every
# commit is measured on as many samples; run length follows the code's speed.
PASSES = {
    "check-ladder": 2,
    "check-mutants": 3,
    "diagram-search": 3,
    "enumerate": 3,
}
TAIL_BEYOND = 10
# Untraced and traced passes of a traced run; its overhead compares their
# per-item minima.
TRACE_PASSES = 2


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout()


def import_layers() -> SimpleNamespace:
    """A fresh import of the library, as a new process would do it."""
    for name in [m for m in sys.modules if m == "multialg" or m.startswith("multialg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = SimpleNamespace()
    for name in tracer.LAYERS + ("corpus",):
        setattr(mods, name, importlib.import_module(f"multialg.{name}"))
    return mods


def library_caches() -> list:
    """Every functools cache in the library, module level or on a class."""
    found = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("multialg"):
            continue
        for obj in list(vars(module).values()):
            spaces = [obj] + (list(vars(obj).values()) if isinstance(obj, type) else [])
            for value in spaces:
                value = getattr(value, "__func__", value)
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_item(item, caches, meter) -> tuple[float, float, int, str, str | None]:
    """Time one item from a cold start, as in a fresh process: no cached
    results and no garbage left by the items before it.  Returns (scaled
    seconds, raw seconds, exit code, output, error)."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    code, text, error = -1, "", None
    meter.start()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, ITEM_TIMEOUT_S)
        try:
            code, text = item.run()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        elapsed = time.perf_counter() - start
        error = f"timed out after {ITEM_TIMEOUT_S:.0f} s"
    except Exception:  # any library failure is a failed item, not a crash
        elapsed = time.perf_counter() - start
        error = "raised:\n" + traceback.format_exc()
    return (*meter.scale(elapsed), code, text, error)


def verify(item, pins: dict, code: int, text: str) -> str | None:
    pinned = pins.get(item.key)
    if pinned is None and item.check is None:
        return "no pinned output for this item"
    if pinned is not None and [code, digest(text)] != pinned:
        return f"exit {code} digest {digest(text)}, pinned {pinned[0]} {pinned[1]}"
    return item.check(code, text) if item.check else None


class Tally:
    def __init__(self, meter) -> None:
        self.meter = meter
        self.attempted = 0
        self.failed = 0

    def run_pass(self, items, caches, pins) -> tuple[list[float], list[float]]:
        """One pass over the items; returns each item's scaled and raw time."""
        scaled_s, raw_s = [], []
        for item in items:
            scaled, raw, code, text, error = run_item(item, caches, self.meter)
            if error is None:
                error = verify(item, pins, code, text)
            self.attempted += 1
            if error is not None:
                self.failed += 1
                print(f"FAILED {item.key}: {error}", file=sys.stderr)
            scaled_s.append(scaled)
            raw_s.append(raw)
        return scaled_s, raw_s

    def best_of(self, passes: int, items, caches, pins) -> tuple[list[float], list[float]]:
        """Each item's minimum over the passes, scaled and raw."""
        best = [math.inf] * len(items)
        best_raw = [math.inf] * len(items)
        for _ in range(passes):
            times, raw = self.run_pass(items, caches, pins)
            best = [min(b, t) for b, t in zip(best, times)]
            best_raw = [min(b, t) for b, t in zip(best_raw, raw)]
        return best, best_raw

    def error_line(self) -> str:
        return (f"error_rate {self.failed / self.attempted:.4f} "
                f"({self.failed}/{self.attempted})")


def percentile(samples: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it;
    the maximum when there are too few samples for any."""
    if n <= TAIL_BEYOND:
        return 100
    return math.floor(100 * (n - TAIL_BEYOND) / n)


def set_up(workload: str, seed: int, meter) -> tuple[float, SimpleNamespace, list]:
    """Import, build the inputs and write their files, SETUP_REPEATS times;
    returns the smallest scaled set-up time and the last set-up's modules and
    items."""
    times = []
    for k in range(SETUP_REPEATS):
        workdir = WORK / f"{workload}-{os.getpid()}" / f"setup{k}"
        meter.start()
        start = time.perf_counter()
        mods = import_layers()
        workdir.mkdir(parents=True, exist_ok=True)
        items = workloads.SETUPS[workload](
            mods, random.Random(f"{workload}:{seed}"), str(workdir))
        times.append(meter.scale(time.perf_counter() - start)[0])
    return min(times), mods, items


def end_to_end(workload: str, setup_s: float, items, caches, pins,
               tally: Tally) -> dict:
    """Each item's time is its minimum over the run's passes, which drops
    the slowdowns a shared machine adds; wall_s is their sum and the
    latency percentiles are taken over them."""
    best, best_raw = tally.best_of(PASSES[workload], items, caches, pins)
    q = tail_percentile(len(items))
    print(f"# {PASSES[workload]} passes of {len(items)} items; latency_tail_s is "
          f"p{q} of {len(items)} items; unscaled wall_s {sum(best_raw):.4f} s; "
          + tally.error_line())
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(best), "s"),
        "latency_p50_s": (percentile(best, 50), "s"),
        "latency_tail_s": (percentile(best, q), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(mods, items, caches, pins, tally: Tally) -> dict:
    """Spans and counts, plus the spans' overhead: the traced minus the
    untraced sum of per-item minima over TRACE_PASSES passes each."""
    untraced, _ = tally.best_of(TRACE_PASSES, items, caches, pins)
    spans = tracer.Spans(mods, clock=tally.meter.clock)
    spans.install()
    try:
        runs = [tally.run_pass(items, caches, pins) for _ in range(TRACE_PASSES)]
    finally:
        spans.uninstall()
    traced = [min(times) for times in zip(*(scaled for scaled, _ in runs))]
    # Span times leave out the probes but are not scaled span by span; scale
    # them by the traced passes' overall ratio of scaled to raw time.
    ratio = sum(sum(scaled) for scaled, _ in runs) / sum(sum(raw) for _, raw in runs)
    counts = tracer.Counts(mods)
    counts.install()
    try:
        tally.run_pass(items, caches, pins)
    finally:
        counts.uninstall()
    print(f"# untraced {sum(untraced):.4f} s, traced {sum(traced):.4f} s "
          f"(sums of per-item minima over {TRACE_PASSES} passes each); "
          + tally.error_line())
    out = spans.metrics(TRACE_PASSES, ratio)
    out.update(counts.metrics())
    out["trace.wall_s"] = (sum(traced), "s")
    out["trace.overhead_s"] = (sum(traced) - sum(untraced), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "multialg" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    if not PINS.is_file():
        print(f"error: pinned outputs not found at {PINS}", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)

    meter = speed.Speedometer()
    meter.install()
    try:
        setup_s, mods, items = set_up(args.workload, args.seed, meter)
        # The collector then skips the harness's own objects, as it would
        # in a fresh CLI process that has none of them.
        gc.freeze()
        caches = library_caches()
        tally = Tally(meter)
        if args.trace:
            metrics = per_layer(mods, items, caches, pins, tally)
        else:
            metrics = end_to_end(args.workload, setup_s, items, caches, pins,
                                 tally)
    finally:
        shutil.rmtree(WORK / f"{args.workload}-{os.getpid()}", ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
