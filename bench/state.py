"""One-shot re-measurement of the roadmap's "State" numbers at the cap.

    python3 bench/state.py

Measures, once each and outside the timed workloads:

- ``check Z/64 --level all --format jsonl`` through ``cli.main``, and
  ``check_relational_lemmas`` on Z/64's additive multigroup alone;
- ``find_isomorphism(X, shuffled X)`` for X = q2^2 x K^2 at shuffle seeds
  0-7, each result verified by relabelling.

Writes bench/STATE.json.  Takes about two minutes at the seed commit;
every library cache is cleared before each measurement.  Times are scaled
to full speed on the reference machine, as in run.py (see speed.py); the
unscaled ones are listed after them.
"""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import sys
import time

import run
import speed
import workloads


def timed(caches, meter, unscaled: list, fn):
    """Scaled seconds (see speed.py) and result of fn() from a cold start;
    appends the unscaled seconds to ``unscaled``."""
    for cache in caches:
        cache.cache_clear()
    meter.start()
    start = time.perf_counter()
    result = fn()
    seconds, raw = meter.scale(time.perf_counter() - start)
    unscaled.append(raw)
    return seconds, result


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mods = run.import_layers()
    caches = run.library_caches()
    meter = speed.Speedometer()
    meter.install()
    unscaled: list[float] = []
    core = mods.core
    workdir = run.WORK / "state"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        z64 = core.ring_multiring(64)
        path = str(workdir / "z64.mrs")
        mods.io.write_structure(path, z64)
        item = workloads.cli_item(mods, "state:z64:all",
                                  ["check", path, "--level", "all", "--format", "jsonl"])
        check_s, (code, _) = timed(caches, meter, unscaled, item.run)
        lemmas_s, report = timed(caches, meter, unscaled, lambda: core.check_relational_lemmas(
            core.to_relational(z64.additive_multigroup())))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not report.overall:
        print("Z/64 no longer passes its audits", file=sys.stderr)
        return 1

    q2, k = core.q2(), core.krasner()
    x = workloads.power(mods, [q2, q2, k, k])
    iso = []
    for seed in range(8):
        perm = list(range(x.size))
        random.Random(seed).shuffle(perm)
        y = workloads.relabel(mods, x, perm)
        seconds, f = timed(caches, meter, unscaled,
                           lambda: core.find_isomorphism(x, y))
        error = workloads.isomorphism_error(x, y, None if f is None else f.mapping)
        if error:
            print(f"shuffle seed {seed}: {error}", file=sys.stderr)
            return 1
        iso.append(seconds)

    state = {
        "machine": {"python": platform.python_version(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "z64_check_all_s": check_s,
        "z64_relational_lemmas_s": lemmas_s,
        "q2xq2xk2_shuffled_iso_s": iso,
        "unscaled_s_in_the_same_order": unscaled,
    }
    out = run.BENCH_DIR / "STATE.json"
    out.write_text(json.dumps(state, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(state, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
