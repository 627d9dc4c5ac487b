"""Steadiness check: run a workload N times and compare spreads to bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload count-flat --runs 5 --seed 1
    python3 perfbench/steady.py --workload all --runs 10 --seed 100

Run ``i`` uses seed ``--seed + i``.  For every end-to-end metric the
tool prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread ``(q3 - q1) / median`` against the metric's bound from
BENCHMARK.json, flagging ``OVER`` past the bound and ``WIDE`` past a
third of it.  ``setup_s`` is reported but only its median is bound.
Each run's host cores and calibration median are printed with it, and
all results are saved under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise RuntimeError(f"run failed ({proc.returncode}): "
                           f"{proc.stderr[-2000:]}")
    return {"context": json.loads(lines[-2])["context"],
            "result": json.loads(lines[-1])}


def report(workload: str, runs: list, specs: list) -> bool:
    steady = True
    print(f"\n== {workload}: {len(runs)} runs")
    for run in runs:
        ctx, res = run["context"], run["result"]
        print(f"  seed {run['seed']}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} "
              f"host_cores={ctx['host_cores']} "
              f"cal_ms={ctx['cal_ms_median']:.3f} wall={ctx['wall_s']:.1f}s")
        steady &= res["correct"]
    print(f"  {'metric':<16} {'unit':<9} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for spec in specs:
        values = [r["result"]["metrics"][spec["name"]]["value"]
                  for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = ""
        if spec["name"] != "setup_s":
            if spread > spec["bound"]:
                flag, steady = "OVER", False
            elif spread > spec["bound"] / 3:
                flag = "WIDE"
        print(f"  {spec['name']:<16} {spec['unit']:<9} {median:>12.4g} "
              f"{q1:>12.4g} {q3:>12.4g} {spread:>7.3f} "
              f"{spec['bound']:>6.2f} {flag}")
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = doc["run_seconds"]
    names = ([w["name"] for w in doc["workloads"]]
             if args.workload == "all" else [args.workload])
    steady = True
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        runs = []
        for i in range(args.runs):
            run = run_once(name, args.seed + i, seconds)
            run["seed"] = args.seed + i
            runs.append(run)
        (out / f"steady-{name}-{args.seed}.json").write_text(
            json.dumps(runs, indent=1))
        steady &= report(name, runs, doc["end_to_end"])
    print("\nSTEADY" if steady else "\nNOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
