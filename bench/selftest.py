"""Check that the traced run's counts repeat exactly for a fixed seed.

    python3 bench/selftest.py [--workload NAME] [--seed N]

Makes two traced runs of each workload (all four by default) as separate
processes with different string-hash seeds, and compares every count they
report: each "<layer>.calls" and the counters in tracer.COUNTS.  Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run
import tracer
import workloads


def traced_counts(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, env=env, cwd=run.ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed its correctness checks")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(".calls") or name in tracer.COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in [args.workload] if args.workload else sorted(workloads.SETUPS):
        first = traced_counts(workload, args.seed, "1")
        second = traced_counts(workload, args.seed, "2")
        differ = sorted(k for k in first if first[k] != second.get(k))
        ok = ok and not differ
        print(f"{workload}: {len(first)} counts, "
              + ("all repeat" if not differ else "differ: " + ", ".join(differ)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
