#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (about a minute after the
first build).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py reports,
that every workload runs clean at smoke size, that a traced run yields
every per-layer metric and a well-nested Chrome trace file, that a
corrupted pinned hash, a pinned experiment missing from the output and
a served/batch byte mismatch all count as failures, and that the benchmark refuses to run without the source
tree.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SELFTEST = run.OUT / "selftest"


def bench(*extra, cwd=ROOT, check=True):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--seed", "1", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in manifest[section]}
        assert declared == table, f"{section} differs from run.py"
    for w in manifest["workloads"]:
        assert w["name"] in run.WORKLOADS, w["name"]
    return [w["name"] for w in manifest["workloads"]]


def test_clean(workloads):
    for w in workloads:
        result = bench("--workload", w, "--trace", "0", "--smoke")
        assert result["correct"] and result["failed"] == 0, (w, result)
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(run.END_TO_END)
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (w, name, metric)


def test_traced():
    result = bench("--workload", "fleet", "--trace", "1", "--smoke")
    assert result["correct"], result
    assert set(result["metrics"]) == set(run.PER_LAYER)
    trace = json.loads((run.OUT / "trace-fleet-s1.json").read_text())
    events = trace["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    assert events and all(e["ph"] == "X" for e in events)
    for e in events:
        parent = by_id.get(e["args"]["parent"])
        if parent is not None:
            assert parent["ts"] <= e["ts"] + 1e-3
            assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-3


def test_corrupted_pin():
    pins = json.loads((HERE / "pins.json").read_text())
    key = "smoke/1"
    name = sorted(pins[key])[0]
    pins[key][name] = "0" * 16
    SELFTEST.mkdir(parents=True, exist_ok=True)
    bad = SELFTEST / "bad_pins.json"
    bad.write_text(json.dumps(pins))
    result = bench("--workload", "repro", "--trace", "0", "--smoke",
                   "--pins", str(bad))
    assert not result["correct"] and result["failed"] >= 1, result


def test_missing_pinned():
    """A pinned experiment the run did not report is a failure."""
    pins = json.loads((HERE / "pins.json").read_text())
    hashes = {name: pins["smoke/1"][name] for name in run.REPRO_EXPERIMENTS}
    dropped = run.REPRO_EXPERIMENTS[0]
    del hashes[dropped]
    args = argparse.Namespace(pins=str(HERE / "pins.json"), smoke=True,
                              seed=1, workload="repro", trace=0)
    errors = []
    assert run.check_hashes(args, hashes, errors) == (1, 1), errors
    assert dropped in errors[0], errors


def test_served_mismatch():
    for w in ("served_sweep", "served_stream", "served_churn"):
        result = bench("--workload", w, "--trace", "0", "--smoke",
                       "--inject-mismatch")
        assert not result["correct"] and result["failed"] >= 1, (w, result)


def test_bare_directory():
    bare = SELFTEST / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "repro", "--trace", "0", cwd=bare,
                 check=False)
    assert proc.returncode != 0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    assert not last.startswith("{"), last


def main():
    workloads = test_manifest()
    tests = [(test_clean, (workloads,)), (test_traced, ()),
             (test_corrupted_pin, ()), (test_missing_pinned, ()),
             (test_served_mismatch, ()),
             (test_bare_directory, ())]
    for test, args in tests:
        test(*args)
        print(f"ok {test.__name__}", flush=True)
    print("perfbench selftest: all passed")


if __name__ == "__main__":
    main()
