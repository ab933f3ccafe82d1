"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload prelude-small --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures every end-to-end metric of BENCHMARK.json;
``--trace 1`` is the separate traced run that times each layer's public
entry point on the same inputs and reports every per-layer metric, with
its span trees written to ``perfbench/out/``.  The metrics print first as
a table, then as one JSON object on the last line of standard output.
``--workload all`` runs every workload in turn and prints one table per
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import OUT, ROOT, Spans, require_program  # noqa: E402

WORKLOADS = ("prelude-small", "nopre-large", "serve-mixed")
#: The gated workload whose traced run also measures the service layers.
SERVICE_TRACED = "prelude-small"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _table(workload: str, metrics: dict, extra: dict, absent) -> str:
    lines = [f"== {workload}"]
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        note = "  (not on this workload's path)" if name in absent else ""
        lines.append(f"  {name:<52} {value:>14.4f} {unit}{note}")
    return "\n".join(lines)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    require_program()
    import inproc
    import serve

    spans = Spans() if trace else None
    if workload == "serve-mixed":
        result = (serve.run_traced(seed, seconds, spans) if trace
                  else serve.run(seed, seconds))
    elif not trace:
        result = inproc.run(workload, seed, seconds)
    elif workload == SERVICE_TRACED:
        # Half the run checks in process, half drives the daemon with the
        # serve-mixed request stream (built from the same generator), so
        # the service layers are measured by a gated workload.
        result = inproc.run_traced(workload, seed, seconds / 2, spans)
        service, tally = serve.service_metrics(seed, seconds / 2, spans)
        result["metrics"] = {**service, **result["metrics"]}
        result["tally"].merge(tally)
    else:
        result = inproc.run_traced(workload, seed, seconds, spans)
    spec = _spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    produced = result["metrics"]
    metrics, absent = {}, set()
    for m in wanted:
        if m["name"] in produced:
            value = produced[m["name"]][0]
        elif trace:
            # A layer this workload never calls (the service layers in
            # process) reads 0.
            value, absent = 0.0, absent | {m["name"]}
        else:
            raise RuntimeError(f"{workload} did not measure {m['name']}")
        metrics[m["name"]] = (float(value), m["unit"])
    tally = result["tally"]
    extra = dict(result.get("extra", {}))
    print(_table(workload, metrics, extra, absent))
    if spans is not None:
        path = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
        spans.write(path)
        print(f"  spans: {os.path.relpath(path, ROOT)} "
              f"({len(spans.records)} spans)")
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh interpreter; prints their tables."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"== {workload}: failed (exit {proc.returncode})")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    require_program()
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
