"""Record the exit code and stdout digest of every pinned benchmark item.

    python3 bench/pin.py

Runs each CLI item of the four workloads once, the whole mutant pool
included, and writes bench/pins.json.  Run it only on a commit whose
outputs are trusted: the benchmark counts any later difference as a failure.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import sys

import run
import speed
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._alarm)
    mods = run.import_layers()
    workdir = run.WORK / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    pins = {}
    try:
        items = []
        for name in ("check-ladder", "diagram-search", "enumerate"):
            items += workloads.SETUPS[name](mods, random.Random(0), str(workdir))
        for entries in workloads.mutant_pool(mods):
            for key, obj in entries:
                items.append(workloads.mutant_item(mods, key, obj, str(workdir), len(items)))
        caches = run.library_caches()
        meter = speed.Speedometer()
        meter.install()
        for item in items:
            if item.key.startswith("iso:"):
                continue  # verified by relabelling, not pinned
            elapsed, _, code, text, error = run.run_item(item, caches, meter)
            if error is None and item.check:
                error = item.check(code, text)
            if error is not None:
                print(f"{item.key}: {error}", file=sys.stderr)
                return 1
            pins[item.key] = [code, run.digest(text)]
            print(f"{elapsed:8.3f} s  exit {code}  {item.key}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(pins)} pins to {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
