"""Steadiness check: do two independent sets of runs agree?

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] \\
        [--sets 2] [--first-seed 1] [--seconds N]

Each set runs every chosen workload (by default those of BENCHMARK.json)
``--runs`` times, each run with its own
seed (no seed repeats across sets).  For every end-to-end metric the
command reports, per set, the median and the spread: the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median.  A metric is steady when every set's spread is within
its bound (``setup_s`` is exempt, as it is measured as a median of several
launches) and no set's median is worse than the first set's by more than
the bound.  The verdicts print as a table; the raw values of every run go
to ``perfbench/out/steady-<time>.json``.  The exit code is 0 only when
every metric of every workload is steady and every run was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import OUT, ROOT  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _one(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    change = (other - first) / first if first else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 to take quartiles")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    raw = {}
    all_ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for k in range(args.runs):
                seed = args.first_seed + s * args.runs + k
                result = _one(workload, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    all_ok = False
                    print(f"{workload} seed {seed}: correct="
                          f"{result['correct']} failed={result['failed']}")
                runs.append({"seed": seed, **result})
                print(f"  {workload} set {s} seed {seed} done", flush=True)
            sets.append(runs)
        raw[workload] = sets
        print(f"== {workload}: {args.sets} sets x {args.runs} runs")
        print(f"  {'metric':<22} {'bound':>6} "
              + " ".join(f"{'median' + str(s):>11} {'spread' + str(s):>8}"
                         for s in range(args.sets))
              + f" {'worse':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs]
                       for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            worst = max((worse_by(medians[0], med, m["better"])
                         for med in medians[1:]), default=0.0)
            ok = worst <= bound and (
                name == "setup_s" or all(sp <= bound for sp in spreads))
            tight = all(sp <= bound / 3 for sp in spreads)
            verdict = "steady" if ok and tight else (
                "within bound" if ok else "NOT STEADY")
            all_ok = all_ok and ok
            print(f"  {name:<22} {bound:>6.3f} "
                  + " ".join(f"{med:>11.4f} {sp:>8.4f}"
                             for med, sp in zip(medians, spreads))
                  + f" {worst:>7.4f}  {verdict}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": args.seconds, "runs": raw}, fh, indent=1)
    print(f"raw runs: {os.path.relpath(path, ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
