"""Run the benchmark on several seeds and report each metric's spread.

Usage:
    python3 bench/spread.py [--workload NAME ...] [--seeds 21-30] [--baseline FILE]

Runs `bench/run.py` once per seed and workload, one run at a time, for the
run length in BENCHMARK.json, and prints for every end-to-end metric the
median, the quartiles and the spread: the distance between the quartiles
(statistics.quantiles(values, n=4)) as a share of the median.  A metric
whose spread reaches a third of its bound is marked.  With --baseline, the
figures, one traced run per workload on the first seed, the Python version,
nproc and the git commit are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="21-30", help="first-last, inclusive")
    parser.add_argument("--baseline", type=Path, help="write the figures to this file")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"end_to_end": {}, "per_layer": {}}
    for workload in args.workload or names:
        runs = [run_once(workload, seed, 0) for seed in seeds]
        entry = {"seeds": seeds, "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        print(f"{workload}: {entry['attempted']} ops, {entry['failed']} failed", flush=True)
        for name, bound in bounds.items():
            unit = runs[0]["metrics"][name]["unit"]
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            entry[name] = {**stats, "unit": unit}
            mark = "" if stats["spread"] < bound / 3 else "  <-- at least a third of the bound"
            print(f"  {name:14} median {stats['median']:.6g} {unit}, spread {stats['spread']:.3f}"
                  f" (bound {bound}){mark}", flush=True)
        report["end_to_end"][workload] = entry
        if args.baseline:
            traced = run_once(workload, seeds[0], 1)["metrics"]
            report["per_layer"][workload] = {
                "seed": seeds[0], **{n: m["value"] for n, m in traced.items()}}
    if args.baseline:
        header = {"commit": _commit(), "python": platform.python_version(),
                  "nproc": os.cpu_count(), "machine": platform.machine(),
                  "run_seconds": SPEC["run_seconds"]}
        args.baseline.write_text(json.dumps({**header, **report}, indent=1) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
