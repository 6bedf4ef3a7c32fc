#!/usr/bin/env python3
"""Measure a baseline: every workload over several seeds, plus one
traced run, summarized as median and quartiles per metric.

    python3 perfbench/baseline.py --seconds 30 --seeds 1-10 \
        --out perfbench/baseline.json

Each run is one `run.py` invocation, exactly as a single benchmark run.
The spread column is (q3 - q1) / median, the figure BENCHMARK.json's
bounds are held against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(workload, seed, seconds, trace):
    """One run.py run: its result object (plus the ungated metrics from
    its results file) and the machine line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(next(l for l in lines if l.startswith("machine "))
                         .split(" ", 1)[1])
    result = json.loads(lines[-1])
    saved = json.loads((run.OUT / "results" /
                        f"{workload}-s{seed}-t{trace}-full.json").read_text())
    for name, value in saved["ungated"].items():
        result["metrics"][name] = {"value": value,
                                   "unit": run.UNGATED[name][0]}
    return result, machine


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--trace-seed", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))

    doc = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    machine = None
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(first, last + 1):
            result, machine = bench(workload, seed, args.seconds, 0)
            runs.append(result)
            print(workload, seed, result["correct"], flush=True)
        doc["workloads"][workload] = {
            "error_rate": sum(r["failed"] for r in runs) /
                          sum(r["attempted"] for r in runs),
            "end_to_end": {
                name: {"unit": unit,
                       **summarize([r["metrics"][name]["value"]
                                    for r in runs])}
                for name, (unit, _) in {**run.END_TO_END,
                                        **run.UNGATED}.items()},
        }
    traced, machine = bench(args.workloads.split(",")[0], args.trace_seed,
                            args.seconds, 1)
    doc["per_layer"] = {"seed": args.trace_seed,
                        "correct": traced["correct"],
                        "metrics": traced["metrics"]}
    doc["machine"] = machine
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
