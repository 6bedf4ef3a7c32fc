#!/usr/bin/env python3
"""perfbench: the HARP reproduction's benchmark, one command.

    python3 perfbench/run.py --workload WORKLOAD \
        --seed N --seconds S --trace 0|1 [--smoke] [--pins FILE] \
        [--inject-mismatch]

Run from the root of a source checkout. The first run builds the tree's
libraries, `harpd` and `harp_bench` into .bench_build/; later runs
rebuild incrementally. `harp_bench` measures the workload for
--seconds, checks every output, and this script prints every metric by
name with its unit, the machine it ran on, and as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of a separate
traced run (and writes a Chrome trace-event file under .bench_out/).

Output checks (any mismatch counts in `failed`):
  repro, fleet         each experiment's result hash (perf_engine_
                       throughput: its profile-checksum witness) equals
                       the hash pinned in perfbench/pins.json for that
                       size and seed, and the hash an earlier run of the
                       same size, seed and pins recorded in
                       .bench_out/hashes.json; a pinned experiment the
                       run did not report is a failure too;
  served_*             served JSONL bytes equal the in-process batch
                       bytes of the same campaign;
  --trace 1            also the analyzer and fleet probes' witnesses,
                       checked like result hashes.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"

WORKLOADS = ("repro", "fleet", "served_sweep", "served_stream",
             "served_churn")

# name -> (unit, better). Mirrored by BENCHMARK.json (selftest.py checks).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed beside the end-to-end metrics but not in the result object:
# hypervisor steal makes wall time spread up to 21 % run to run.
UNGATED = {"wall_s": ("s", "lower")}

REPRO_EXPERIMENTS = (
    "ablation_code_length", "ablation_data_patterns", "bch_t_sweep",
    "extension_dec_on_die_ecc", "extension_low_probability",
    "extension_secondary_interleaving", "fig02_wasted_storage",
    "fig04_postcorrection_probability", "fig06_direct_coverage",
    "fig07_bootstrapping", "fig08_indirect_coverage", "fig09_secondary_ecc",
    "fig10_case_study", "perf_engine_throughput", "table01_repair_survey",
    "table02_amplification",
)

SELF_LAYERS = ("bench", "runner", "core", "fleet", "memsys", "harpd",
               "common.io")

PER_LAYER = {
    **{f"runner.exp_wall_s.{e}": ("s", "lower") for e in REPRO_EXPERIMENTS},
    "runner.job_max_s": ("s", "lower"),
    "runner.job_sum_s": ("s", "lower"),
    "runner.parallel_eff": ("ratio", "higher"),
    "runner.batch_s": ("s", "lower"),
    "core.at_risk.ctor_s": ("s", "lower"),
    "core.at_risk.prob_s": ("s", "lower"),
    "core.at_risk.subsets": ("count", "lower"),
    "core.at_risk.subsets_per_s": ("1/s", "higher"),
    "core.engine.sliced64.setup_s": ("s", "lower"),
    "core.engine.sliced64.datapath_s": ("s", "lower"),
    "core.engine.sliced64.observe_s": ("s", "lower"),
    "ecc.bch_memo.hit_rate": ("ratio", "higher"),
    "fleet.sample_s": ("s", "lower"),
    "fleet.chip_build_s": ("s", "lower"),
    "fleet.profile_s": ("s", "lower"),
    "memsys.operate_s": ("s", "lower"),
    "fleet.aggregate_s": ("s", "lower"),
    "common.io.fsync_p50_ms": ("ms", "lower"),
    "common.io.fsync_p99_ms": ("ms", "lower"),
    "harpd.ckpt_add_p50_ms": ("ms", "lower"),
    "harpd.ckpt_add_p99_ms": ("ms", "lower"),
    "harpd.first_result_ms": ("ms", "lower"),
    "harpd.result_gap_p50_ms": ("ms", "lower"),
    "harpd.result_gap_p99_ms": ("ms", "lower"),
    "harpd.publish_ms": ("ms", "lower"),
    "harpd.rx_bytes": ("bytes", "lower"),
    "harpd.served_overhead_x": ("x", "lower"),
    "harpd.sweep_overhead_x": ("x", "lower"),
    "harpd.submit_done_p50_ms": ("ms", "lower"),
    "harpd.submit_done_p99_ms": ("ms", "lower"),
    "harpd.accept_p50_ms": ("ms", "lower"),
    "harpd.accept_p99_ms": ("ms", "lower"),
    "harpd.run_p50_ms": ("ms", "lower"),
    "harpd.finish_p50_ms": ("ms", "lower"),
    "harpd.finish_p99_ms": ("ms", "lower"),
    "harpd.rss_kb_per_campaign": ("KiB", "lower"),
    "harpd.daemon_threads": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans": ("count", "lower"),
    **{f"trace.self_s.{layer}": ("s", "lower") for layer in SELF_LAYERS},
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; log to .bench_build/."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "build.log"
    with open(log_path, "w") as log:
        def step(cmd):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                # A failed configure must not leave a cache behind.
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                tail = log_path.read_text().splitlines()[-15:]
                fail("build failed:\n" + "\n".join(tail))

        if not (BUILD / "CMakeCache.txt").exists():
            step(["cmake", "-S", str(HERE), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        step(["cmake", "--build", str(BUILD), "-j",
              str(min(4, os.cpu_count() or 1)), "--target", "harp_bench",
              "harpd"])
    return BUILD / "harp_bench", BUILD / "harp" / "src" / "harpd"


def quantile(values, q):
    """Linear interpolation between order statistics."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def end_to_end(samples):
    """End-to-end and ungated metrics: medians over the run's units."""
    names = {**END_TO_END, **UNGATED}
    metrics = {name: median(samples[name]) for name in names}
    notes = {name: f"median of {len(samples[name])}" for name in names}
    for name in UNGATED:
        notes[name] += ", not gated"
    return metrics, notes


def expected_witnesses(workload, trace):
    """Names a run must report a hash for: a traced run passes over
    every workload and probe, an untraced one only its own workload."""
    if trace:
        return None  # every pinned name
    return {"repro": set(REPRO_EXPERIMENTS),
            "fleet": {"fleet_policy_sweep"}}.get(workload, set())


def check_hashes(args, hashes, errors):
    """Compare each witness with the pinned one and with the one an
    earlier run of the same size, seed and pins file recorded (so a
    re-pin starts afresh); a pinned witness the run should have reported
    but did not is a failure too, and an attempted operation. Returns
    (failures, missing)."""
    pins_text = Path(args.pins).read_text()
    key = f"{'smoke' if args.smoke else 'full'}/{args.seed}"
    pins = json.loads(pins_text).get(key, {})
    seen_key = hashlib.sha256(pins_text.encode()).hexdigest()[:16] + "/" + key
    seen_path = OUT / "hashes.json"
    seen = json.loads(seen_path.read_text()) if seen_path.exists() else {}
    earlier = seen.setdefault(seen_key, {})
    wanted = expected_witnesses(args.workload, args.trace)
    missing = [name for name in sorted(pins)
               if (wanted is None or name in wanted) and name not in hashes]
    errors += [f"{name}: pinned but not reported by the run"
               for name in missing]
    bad = len(missing)
    for name, value in sorted(hashes.items()):
        for source, expected in (("pinned", pins), ("earlier run", earlier)):
            if name in expected and expected[name] != value:
                bad += 1
                errors.append(f"{name}: witness {value} != {source} "
                              f"{expected[name]}")
        earlier.setdefault(name, value)
    seen_path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return bad, len(missing)


def source_digest():
    """Digest of the measured program's sources (not the benchmark's)."""
    h = hashlib.sha256()
    for f in [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*"))]:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fs_type(path):
    """Filesystem type of the mount holding @path (from mountinfo)."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        for line in open("/proc/self/mountinfo"):
            left, _, right = line.partition(" - ")
            mount = left.split()[4]
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, kind = mount, right.split()[0]
    except OSError:
        pass
    return kind


def machine(doc):
    model = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "threads": doc["threads"],
        "cpu": model,
        "os": platform.platform(),
        "compiler": doc["compiler"],
        "build_type": doc["build_type"],
        "commit": commit(),
        "source_digest": source_digest(),
        "data_dir_fs": fs_type(OUT),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: wiring and correctness checks only")
    parser.add_argument("--pins", default=str(HERE / "pins.json"),
                        help="pinned result hashes (default: perfbench/pins.json)")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one served line before comparing "
                             "(self-test of the byte check)")
    args = parser.parse_args()
    os.chdir(ROOT)

    bench, harpd = build()
    OUT.mkdir(exist_ok=True)
    cmd = [str(bench), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative, so the daemon's socket path stays short.
           "--harpd", str(harpd), "--out", OUT.name]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    # Own process group, so a timeout also stops the daemons it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # 170 s keeps a default-length run inside a 180 s limit; longer runs
    # (the traced pass adds a unit of every workload) scale with --seconds.
    try:
        stdout, _ = proc.communicate(timeout=max(170, 3 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("harp_bench timed out")
    if proc.returncode != 0:
        fail(f"harp_bench exited with {proc.returncode}")
    doc = json.loads(stdout.strip().splitlines()[-1])

    errors = list(doc["errors"])
    bad, missing = check_hashes(args, doc["hashes"], errors)
    failed = doc["failed"] + bad
    attempted = doc["attempted"] + missing

    if args.trace:
        layers = doc["layers"]
        missing = [name for name in PER_LAYER if name not in layers]
        if missing:
            fail("traced run lacks per-layer metrics: " + ", ".join(missing))
        values = {name: layers[name] for name in PER_LAYER}
        notes = {name[:-2]: f"n={int(v)}" for name, v in layers.items()
                 if name.endswith(".n")}
        table = PER_LAYER
    else:
        if not all(doc["samples"][name] for name in END_TO_END):
            fail("no unit completed: " + "; ".join(errors))
        values, notes = end_to_end(doc["samples"])
        table = END_TO_END

    host = machine(doc)
    size = "smoke" if args.smoke else "full"
    print(f"perfbench {args.workload} seed={args.seed} size={size} "
          f"trace={args.trace} units={doc['units']}")
    shown = table if args.trace else {**END_TO_END, **UNGATED}
    for name, (unit, _) in shown.items():
        note = notes.get(name) or next(
            (n for prefix, n in notes.items() if name.startswith(prefix)), "")
        print(f"  {name:44s} {values[name]:>16.6g} {unit:6s} {note}")
    print(f"  error_rate {failed}/{attempted} = {failed / attempted:.6g}")
    for e in errors:
        print(f"  MISMATCH {e}")
    print("machine " + json.dumps(host, sort_keys=True))

    metrics = {name: {"value": values[name], "unit": table[name][0]}
               for name in table}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{size}.json"
     ).write_text(json.dumps({**result, "machine": host, "errors": errors,
                              "notes": notes, "units": doc["units"],
                              "samples": doc["samples"],
                              "ungated": {n: values[n] for n in UNGATED
                                          if n in values}},
                             indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
