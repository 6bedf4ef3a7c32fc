#!/usr/bin/env bash
# Tier-1 verification: the exact ROADMAP.md command, a smoke campaign
# through the harp_run experiment runner, a harpd smoke (daemon +
# client submit, byte-compared against batch), a chaos smoke (injected
# ENOSPC -> degraded -> SIGKILL -> resume, byte-compared against
# batch; a cancelled degraded campaign stays gone), an overload smoke (two weighted tenants contending + a
# deadline-expired campaign resumed, all byte-compared against batch),
# and a docs lint (Doxygen warnings are errors; skipped when doxygen is
# not installed). Exits nonzero on any failure. Performance is measured
# by `python3 perfbench/run.py --workload W`, not here.
#
#   scripts/verify.sh          # tier-1 + a 10k-chip fleet byte-identity
#                              # smoke
#   scripts/verify.sh --full   # additionally: a reachability audit
#                              # (no library function that no binary
#                              # reaches, outside an allowlist of test
#                              # oracles and seams), the unit +
#                              # fleet + chaos + overload suites under
#                              # TSan and ASan+UBSan (-DHARP_SANITIZE),
#                              # the intra-job scaling check (>= 8 cores
#                              # only), a million-chip fleet
#                              # acceptance sweep, and the benchmark
#                              # self-test (perfbench/selftest.py)
set -euo pipefail

cd "$(dirname "$0")/.."

FULL=0
[[ "${1:-}" == "--full" ]] && FULL=1

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# --- harp_run smoke -------------------------------------------------------
# The human --list footer must agree with the machine-readable registry
# (--list-json): the expected counts are *derived* from the JSON, never
# hard-coded here, so adding an experiment cannot silently break this
# check. The python snippet also cross-validates the JSON against
# itself (count == len(experiments), label_counts == recount).
listing="$(./build/src/harp_run --list)"
expected="$(./build/src/harp_run --list-json | python3 -c '
import json, sys
doc = json.load(sys.stdin)
exps = doc["experiments"]
assert doc["count"] == len(exps), "count != len(experiments)"
for label, n in doc["label_counts"].items():
    recount = sum(1 for e in exps if label in e["labels"])
    assert recount == n, f"label_counts[{label}] {n} != recount {recount}"
lc = doc["label_counts"]
count, bench, example = doc["count"], lc.get("bench", 0), lc.get("example", 0)
print(f"{count} experiments ({bench} bench, {example} example)")
')"
echo "$listing" | grep -qF "$expected" || {
    echo "verify: harp_run --list footer does not match --list-json" \
         "(expected: $expected)" >&2
    exit 1
}

# One small campaign end-to-end: runs two experiments, writes JSONL +
# summary, and must be reproducible (equal result hashes across runs).
smoke_dir="build/verify-smoke"
rm -rf "$smoke_dir"
./build/src/harp_run quickstart table01_repair_survey \
    --seed 1 --threads 2 --out "$smoke_dir/a" > /dev/null
./build/src/harp_run quickstart table01_repair_survey \
    --seed 1 --threads 1 --out "$smoke_dir/b" > /dev/null
for f in quickstart.jsonl table01_repair_survey.jsonl summary.json; do
    test -s "$smoke_dir/a/$f" || {
        echo "verify: missing campaign output $f" >&2
        exit 1
    }
done
cmp -s "$smoke_dir/a/quickstart.jsonl" "$smoke_dir/b/quickstart.jsonl" || {
    echo "verify: campaign results differ across thread counts" >&2
    exit 1
}

# Label selectors resolve through the same registry.
./build/src/harp_run label:example --dry-run > /dev/null

# A negative count is a job error, never a wrapped loop bound.
if ./build/src/harp_run fig06_direct_coverage --words -1 --threads 1 \
    --out "$smoke_dir/negative" > /dev/null 2>&1; then
    echo "verify: harp_run accepted --words -1" >&2
    exit 1
fi

# --- harpd smoke ----------------------------------------------------------
# The resident service must stream byte-identical results to a batch
# `harp_run --no-timings` for the same spec/seed, publish the identical
# files on its own data dir, agree with --list-json on the experiment
# registry, and drain cleanly on the shutdown verb (daemon exit 0).
harpd_root="$PWD/$smoke_dir/harpd"
rm -rf "$harpd_root"
mkdir -p "$harpd_root"
./build/src/harpd --socket "$harpd_root/d.sock" \
    --data "$harpd_root/data" --threads 2 \
    > "$harpd_root/daemon.log" 2>&1 &
harpd_pid=$!
trap 'kill -9 "$harpd_pid" 2> /dev/null || true' EXIT
harpd_up=0
for _ in $(seq 1 200); do
    if ./build/src/harpd_client --socket "$harpd_root/d.sock" ping \
        > /dev/null 2>&1; then
        harpd_up=1
        break
    fi
    sleep 0.05
done
[[ $harpd_up -eq 1 ]] || {
    echo "verify: harpd never came up" >&2
    cat "$harpd_root/daemon.log" >&2 || true
    exit 1
}

# Degenerate campaigns (zero profiling rounds, a negative count) must
# each end in an error event on their own stream while the daemon stays
# up: it answers ping after each and then serves the byte-identical
# smoke campaign below.
for poison in "zero_rounds fig06_direct_coverage rounds 0" \
    "negative_count extension_secondary_interleaving accesses -1"; do
    read -r id experiment knob value <<< "$poison"
    if ./build/src/harpd_client --socket "$harpd_root/d.sock" \
        submit "$id" "$experiment" --set "$knob" "$value" \
        > /dev/null 2> "$harpd_root/$id.err"; then
        echo "verify: harpd accepted the $id campaign as done" >&2
        exit 1
    fi
    grep -q '"code":"campaign_failed"' "$harpd_root/$id.err" || {
        echo "verify: $id campaign did not end in an error event" >&2
        cat "$harpd_root/$id.err" >&2 || true
        exit 1
    }
    ./build/src/harpd_client --socket "$harpd_root/d.sock" ping \
        > /dev/null 2>&1 || {
        echo "verify: harpd stopped answering after the $id campaign" >&2
        cat "$harpd_root/daemon.log" >&2 || true
        exit 1
    }
done

./build/src/harp_run quickstart --seed 3 --threads 2 --repeat 4 \
    --no-timings --out "$harpd_root/batch" > /dev/null
./build/src/harpd_client --socket "$harpd_root/d.sock" \
    submit smoke quickstart --seed 3 --repeat 4 \
    --out "$harpd_root/served" > /dev/null 2> /dev/null || {
    echo "verify: harpd_client submit failed" >&2
    exit 1
}
for f in quickstart.jsonl summary.json; do
    cmp -s "$harpd_root/batch/$f" "$harpd_root/served/$f" || {
        echo "verify: harpd streamed $f differs from batch harp_run" >&2
        exit 1
    }
    cmp -s "$harpd_root/batch/$f" "$harpd_root/data/results/smoke/$f" || {
        echo "verify: harpd published $f differs from batch harp_run" >&2
        exit 1
    }
done

# The list verb must carry the same machine-readable registry document
# as `harp_run --list-json`, and show the finished campaign.
./build/src/harpd_client --socket "$harpd_root/d.sock" list \
    > "$harpd_root/list.json"
./build/src/harp_run --list-json > "$harpd_root/list-ref.json"
python3 - "$harpd_root/list.json" "$harpd_root/list-ref.json" <<'EOF'
import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    served = json.load(f)
with open(sys.argv[2], encoding="utf-8") as f:
    reference = json.load(f)
assert served["registry"] == reference, \
    "harpd list registry != harp_run --list-json"
by_id = {c["id"]: c for c in served["campaigns"]}
assert "smoke" in by_id, f"submitted campaign missing: {sorted(by_id)}"
assert by_id["smoke"]["state"] == "done", by_id["smoke"]
EOF

./build/src/harpd_client --socket "$harpd_root/d.sock" shutdown \
    > /dev/null
wait "$harpd_pid" || {
    echo "verify: harpd exited nonzero after shutdown" >&2
    cat "$harpd_root/daemon.log" >&2 || true
    exit 1
}
trap - EXIT

# Jobs far longer than any wave poll the cancel flag inside their own
# loops (two billion accesses; a fifty-million-chip fleet, before each
# stratum): cancel, then SIGTERM, must let the daemon exit 0 within 2 s
# instead of waiting the job out. A watchdog SIGKILLs a daemon still
# alive after 2 s (wait then reports 137).
for long_job in "extension_secondary_interleaving accesses 2000000000" \
                "fleet_policy_sweep chips 50000000"; do
    read -r long_exp long_knob long_value <<< "$long_job"
    long_root="$PWD/$smoke_dir/harpd_long_$long_knob"
    rm -rf "$long_root"
    mkdir -p "$long_root"
    ./build/src/harpd --socket "$long_root/d.sock" \
        --data "$long_root/data" --threads 2 \
        > "$long_root/daemon.log" 2>&1 &
    long_pid=$!
    trap 'kill -9 "$long_pid" 2> /dev/null || true' EXIT
    for _ in $(seq 1 200); do
        ./build/src/harpd_client --socket "$long_root/d.sock" ping \
            > /dev/null 2>&1 && break
        sleep 0.05
    done
    ./build/src/harpd_client --socket "$long_root/d.sock" \
        submit long "$long_exp" \
        --set "$long_knob" "$long_value" > /dev/null 2>&1 &
    long_client=$!
    for _ in $(seq 1 200); do
        ./build/src/harpd_client --socket "$long_root/d.sock" status long \
            2> /dev/null | grep -q '"state": "running"' && break
        sleep 0.05
    done
    ./build/src/harpd_client --socket "$long_root/d.sock" cancel long \
        > /dev/null
    kill -TERM "$long_pid"
    (sleep 2 && kill -9 "$long_pid" 2> /dev/null) &
    long_watchdog=$!
    long_rc=0
    wait "$long_pid" || long_rc=$?
    kill "$long_watchdog" 2> /dev/null || true
    wait "$long_client" 2> /dev/null || true
    trap - EXIT
    [[ $long_rc -eq 0 ]] || {
        echo "verify: harpd exited $long_rc after cancel + SIGTERM of a" \
             "long $long_exp job (137: still running after 2 s)" >&2
        cat "$long_root/daemon.log" >&2 || true
        exit 1
    }
done

# --- Chaos tier smoke -----------------------------------------------------
# Registration guard first: a mistyped ctest label matches nothing and
# exits 0, so count the fault-injection tier explicitly.
chaos_tests="$(cd build && ctest -L chaos -N | sed -n 's/^Total Tests: //p')"
[[ "${chaos_tests:-0}" -ge 4 ]] || {
    echo "verify: expected >= 4 chaos-labeled tests, found" \
         "'${chaos_tests:-none}'" >&2
    exit 1
}

# Degrade-never-corrupt end-to-end against the real binaries: a daemon
# armed with a deterministic ENOSPC schedule degrades the campaign
# (client exit 4, nothing published), survives a SIGKILL *while*
# degraded, and a clean restart auto-resumes from the checkpoint and
# publishes byte-identically to the batch run.
chaos_root="$PWD/$smoke_dir/chaos"
rm -rf "$chaos_root"
mkdir -p "$chaos_root"
./build/src/harpd --socket "$chaos_root/d.sock" \
    --data "$chaos_root/data" --threads 2 \
    --fault-plan 'write#8+=ENOSPC' \
    > "$chaos_root/daemon.log" 2>&1 &
chaos_pid=$!
trap 'kill -9 "$chaos_pid" 2> /dev/null || true' EXIT
for _ in $(seq 1 200); do
    ./build/src/harpd_client --socket "$chaos_root/d.sock" ping \
        > /dev/null 2>&1 && break
    sleep 0.05
done
chaos_rc=0
./build/src/harpd_client --socket "$chaos_root/d.sock" \
    submit chaos quickstart --seed 3 --repeat 4 \
    > /dev/null 2> "$chaos_root/client.log" || chaos_rc=$?
[[ $chaos_rc -eq 4 ]] || {
    echo "verify: expected degraded exit 4 from submit, got $chaos_rc" >&2
    cat "$chaos_root/client.log" >&2 || true
    exit 1
}
[[ -e "$chaos_root/data/results/chaos" ]] && {
    echo "verify: degraded campaign must not publish results" >&2
    exit 1
}
# A second campaign degrades the same way, then is cancelled: that ends
# it for good (state cancelled, checkpoint gone), so the restart below
# must not bring it back.
chaos_rc=0
./build/src/harpd_client --socket "$chaos_root/d.sock" \
    submit chaos_cancel quickstart --seed 5 --repeat 2 \
    > /dev/null 2> "$chaos_root/client2.log" || chaos_rc=$?
[[ $chaos_rc -eq 4 ]] || {
    echo "verify: expected degraded exit 4 from the second submit," \
         "got $chaos_rc" >&2
    cat "$chaos_root/client2.log" >&2 || true
    exit 1
}
./build/src/harpd_client --socket "$chaos_root/d.sock" \
    cancel chaos_cancel > /dev/null
chaos_cancelled=0
for _ in $(seq 1 200); do
    if ./build/src/harpd_client --socket "$chaos_root/d.sock" \
        status chaos_cancel 2> /dev/null | grep -q '"cancelled"'; then
        chaos_cancelled=1
        break
    fi
    sleep 0.05
done
[[ $chaos_cancelled -eq 1 ]] || {
    echo "verify: cancel on a degraded campaign did not cancel it" >&2
    exit 1
}
[[ -e "$chaos_root/data/checkpoints/chaos_cancel.ckpt" ]] && {
    echo "verify: cancelled campaign kept its checkpoint" >&2
    exit 1
}
# disown before the SIGKILL so the shell does not report the kill as
# job-control noise ("Killed ...") on a later wait.
disown "$chaos_pid"
kill -9 "$chaos_pid"
trap - EXIT

./build/src/harpd --socket "$chaos_root/d.sock" \
    --data "$chaos_root/data" --threads 2 \
    >> "$chaos_root/daemon.log" 2>&1 &
chaos_pid=$!
trap 'kill -9 "$chaos_pid" 2> /dev/null || true' EXIT
chaos_done=0
for _ in $(seq 1 400); do
    if ./build/src/harpd_client --socket "$chaos_root/d.sock" \
        status chaos 2> /dev/null | grep -q '"done"'; then
        chaos_done=1
        break
    fi
    sleep 0.05
done
[[ $chaos_done -eq 1 ]] || {
    echo "verify: degraded campaign never resumed to done" >&2
    cat "$chaos_root/daemon.log" >&2 || true
    exit 1
}
for f in quickstart.jsonl summary.json; do
    cmp -s "$harpd_root/batch/$f" "$chaos_root/data/results/chaos/$f" || {
        echo "verify: resumed chaos campaign $f differs from batch" >&2
        exit 1
    }
done
./build/src/harpd_client --socket "$chaos_root/d.sock" \
    status chaos_cancel > "$chaos_root/status2.log" 2>&1 || true
grep -q unknown_campaign "$chaos_root/status2.log" || {
    echo "verify: the restart brought a cancelled campaign back" >&2
    cat "$chaos_root/status2.log" >&2
    exit 1
}
if [[ -e "$chaos_root/data/checkpoints/chaos_cancel.ckpt" ||
      -e "$chaos_root/data/results/chaos_cancel" ]]; then
    echo "verify: cancelled campaign left a checkpoint or results" >&2
    exit 1
fi
./build/src/harpd_client --socket "$chaos_root/d.sock" shutdown \
    > /dev/null
wait "$chaos_pid" || {
    echo "verify: harpd exited nonzero after chaos shutdown" >&2
    cat "$chaos_root/daemon.log" >&2 || true
    exit 1
}
trap - EXIT

# --- Overload tier smoke --------------------------------------------------
# Registration guard first: a mistyped ctest label matches nothing and
# exits 0, so count the multi-tenant overload tier explicitly.
overload_tests="$(cd build && ctest -L overload -N | sed -n 's/^Total Tests: //p')"
[[ "${overload_tests:-0}" -ge 4 ]] || {
    echo "verify: expected >= 4 overload-labeled tests, found" \
         "'${overload_tests:-none}'" >&2
    exit 1
}

# Two-tenant fairness round-trip against the real binaries: a
# 3:1-weighted pair of tenants contends for a 2-slot pool. Whatever
# interleaving the fair scheduler picks, each campaign must publish
# byte-identically to an uninterrupted batch run — scheduling may
# reorder work, never change bytes. Then deadline propagation: a
# 1 ms deadline parks the campaign resumable (client exit 5, nothing
# published, checkpoint kept) and a plain resume finishes it to the
# same bytes.
ovl_root="$PWD/$smoke_dir/overload"
rm -rf "$ovl_root"
mkdir -p "$ovl_root"
./build/src/harp_run quickstart --seed 23 --threads 2 --repeat 32 \
    --rounds 8192 --no-timings --out "$ovl_root/batch" > /dev/null
./build/src/harpd --socket "$ovl_root/d.sock" \
    --data "$ovl_root/data" --threads 2 \
    --tenant-weight gold=3 --tenant-weight bronze=1 \
    > "$ovl_root/daemon.log" 2>&1 &
ovl_pid=$!
trap 'kill -9 "$ovl_pid" 2> /dev/null || true' EXIT
ovl_up=0
for _ in $(seq 1 200); do
    if ./build/src/harpd_client --socket "$ovl_root/d.sock" ping \
        > /dev/null 2>&1; then
        ovl_up=1
        break
    fi
    sleep 0.05
done
[[ $ovl_up -eq 1 ]] || {
    echo "verify: overload harpd never came up" >&2
    cat "$ovl_root/daemon.log" >&2 || true
    exit 1
}

./build/src/harpd_client --socket "$ovl_root/d.sock" \
    submit gold quickstart --seed 23 --repeat 32 --set rounds 8192 \
    --tenant gold > /dev/null 2>&1 &
gold_pid=$!
./build/src/harpd_client --socket "$ovl_root/d.sock" \
    submit bronze quickstart --seed 23 --repeat 32 --set rounds 8192 \
    --tenant bronze --priority background > /dev/null 2>&1 &
bronze_pid=$!
gold_rc=0
wait "$gold_pid" || gold_rc=$?
bronze_rc=0
wait "$bronze_pid" || bronze_rc=$?
[[ $gold_rc -eq 0 && $bronze_rc -eq 0 ]] || {
    echo "verify: contended submits failed (gold=$gold_rc," \
         "bronze=$bronze_rc)" >&2
    cat "$ovl_root/daemon.log" >&2 || true
    exit 1
}
for name in gold bronze; do
    for f in quickstart.jsonl summary.json; do
        cmp -s "$ovl_root/batch/$f" \
               "$ovl_root/data/results/$name/$f" || {
            echo "verify: contended campaign $name $f differs" \
                 "from batch" >&2
            exit 1
        }
    done
done

# The watchdog enforces deadlines at its 200 ms poll, so the expiring
# campaign must outlast one poll on a fast machine: 8x the work above.
./build/src/harp_run quickstart --seed 23 --threads 2 --repeat 256 \
    --rounds 8192 --no-timings --out "$ovl_root/batch-expiring" > /dev/null
dl_rc=0
./build/src/harpd_client --socket "$ovl_root/d.sock" \
    submit expiring quickstart --seed 23 --repeat 256 \
    --set rounds 8192 --tenant gold --deadline-ms 1 \
    > /dev/null 2>&1 || dl_rc=$?
[[ $dl_rc -eq 5 ]] || {
    echo "verify: expected deadline_exceeded exit 5, got $dl_rc" >&2
    cat "$ovl_root/daemon.log" >&2 || true
    exit 1
}
[[ -e "$ovl_root/data/results/expiring" ]] && {
    echo "verify: expired campaign must not publish results" >&2
    exit 1
}
test -e "$ovl_root/data/checkpoints/expiring.ckpt" || {
    echo "verify: expired campaign lost its checkpoint" >&2
    exit 1
}
./build/src/harpd_client --socket "$ovl_root/d.sock" \
    resume expiring > /dev/null 2>&1 || {
    echo "verify: resume after deadline expiry failed" >&2
    cat "$ovl_root/daemon.log" >&2 || true
    exit 1
}
# resume is fire-and-forget; subscribe streams the revived campaign to
# its terminal event (exit 0 = done).
./build/src/harpd_client --socket "$ovl_root/d.sock" \
    subscribe expiring > /dev/null 2>&1 || {
    echo "verify: resumed campaign did not reach done" >&2
    cat "$ovl_root/daemon.log" >&2 || true
    exit 1
}
for f in quickstart.jsonl summary.json; do
    cmp -s "$ovl_root/batch-expiring/$f" \
           "$ovl_root/data/results/expiring/$f" || {
        echo "verify: resumed expired campaign $f differs from batch" >&2
        exit 1
    }
done

./build/src/harpd_client --socket "$ovl_root/d.sock" shutdown \
    > /dev/null
wait "$ovl_pid" || {
    echo "verify: harpd exited nonzero after overload shutdown" >&2
    cat "$ovl_root/daemon.log" >&2 || true
    exit 1
}
trap - EXIT

# pre_errors past the 16-cell ground-truth enumeration guard must fail
# the job, not silently enumerate a truncated subset range.
if ./build/src/harp_run bch_t_sweep --pre_errors 34 --on_die_t 1 \
        --words 2 --rounds 2 --out "$smoke_dir/bch-pre34" \
        > "$smoke_dir/bch-pre34.log" 2>&1 ||
   ! grep -q "exceeds the ground-truth enumeration limit" \
        "$smoke_dir/bch-pre34.log"; then
    echo "verify: bch_t_sweep --pre_errors 34 did not report a job error" >&2
    cat "$smoke_dir/bch-pre34.log" >&2 || true
    exit 1
fi

# --- Fleet tier smoke -----------------------------------------------------
# The fleet simulator's registration guard first: a mistyped ctest
# label matches nothing and exits 0, so count the tier explicitly.
fleet_tests="$(cd build && ctest -L fleet -N | sed -n 's/^Total Tests: //p')"
[[ "${fleet_tests:-0}" -ge 4 ]] || {
    echo "verify: expected >= 4 fleet-labeled tests, found" \
         "'${fleet_tests:-none}'" >&2
    exit 1
}

# A 10k-chip policy sweep must be byte-identical across thread counts
# (the fleet CRN contract, end-to-end through harp_run), under the
# single-tier DDR4 preset and the three-tier HRM one.
for dist in ddr4 hrm; do
    for threads in 1 4; do
        ./build/src/harp_run fleet_policy_sweep \
            --seed 17 --threads "$threads" \
            --chips 10000 --fit_scale 50 --windows 6 --rounds 8 \
            --profiler harp_u --dist "$dist" \
            --out "$smoke_dir/fleet-$dist-t$threads" > /dev/null
    done
    cmp -s "$smoke_dir/fleet-$dist-t1/fleet_policy_sweep.jsonl" \
           "$smoke_dir/fleet-$dist-t4/fleet_policy_sweep.jsonl" || {
        echo "verify: $dist fleet_policy_sweep.jsonl differs (t1 vs t4)" >&2
        exit 1
    }
done

# --- Reachability audit (full) --------------------------------------------
# Every harp:: function the libraries define must be reachable from a
# shipped binary: harp_run, harpd, harpd_client, bench_micro_kernels and
# perfbench's harp_bench (built from perfbench/CMakeLists.txt as is).
# The binaries are linked unoptimized with -ffunction-sections and
# --gc-sections, so a function survives in a binary only if something
# it runs can call it. Library text symbols missing from every binary
# are dead code, unless the allowlist below names them: test oracles
# and test seams, one line each as "name pattern|reason". A pattern is
# a substring of the demangled name ('*' matches template arguments).
# An allowlist line that matches nothing also fails: the symbol became
# reachable or was deleted, so the line must go.
# -fkeep-inline-functions emits every inline member, so accessors
# defined in class bodies are audited too. It also emits the default,
# copy and move constructors of every class, which the compiler writes
# whether or not anything constructs the class that way; those three
# (a constructor taking nothing or its own class) are not audited.
if [[ $FULL -eq 1 ]]; then
    reach_allow=(
        "harp::gf2::ConstraintSystem::consistent(|oracle: at_risk_reference"
        "harp::ecc::Gf2m::solveQuadratic(|oracle: bch_dec_code's DEC decoder"
        "harp::ecc::Gf2m::trace(|oracle: bch_dec_code's DEC decoder"
        "harp::ecc::HammingCode::parityCheckMatrix(|oracle: H*G = 0 check"
        "harp::ecc::HammingCode::generatorMatrix(|oracle: H*G = 0 check"
        "harp::ecc::HammingCode::syndromeOfErrors(|oracle: syndrome check"
        "harp::gf2::BitMatrix::|oracle: the H*G = 0 and syndrome checks"
        "harp::common::FairScheduler::grantCount(|seam: fair-share tests"
        "harp::common::FairScheduler::grantLog(|seam: grant-order share tests"
        "harp::harpd::Server::fairScheduler(|seam: herd grant-log tests"
        "harp::common::FairScheduler::slotsInUse(|seam: slot-release tests"
        "harp::common::io::FaultPlan::consumed(|seam: I/O fault tests"
        "harp::harpd::Client::halfClose(|seam: EOF-mid-request tests"
        "harp::gf2::BitVector::fromIndices(|debug accessor: test inputs"
        "harp::gf2::BitVector::fromUint(|debug accessor: test inputs"
        "harp::gf2::BitVector::toString|debug accessor: test messages"
        "harp::gf2::BitVector::toUint(|debug accessor: test checks"
        "harp::gf2::BitSlice::clear(|debug accessor: slice tests"
        "harp::gf2::BitSlice::extractWord(|debug accessor: lane checks"
        "harp::gf2::BitSlice::set(|debug accessor: slice tests"
        "harp::gf2::RowDependencies::dependencies(|seam: dependency-span tests"
        "harp::gf2::operator&(|oracle: support property checks"
        "harp::gf2::operator^(|oracle: linear-solver span checks"
        "harp::ecc::BchCode::generatorPolynomial(|oracle: bch_dec_code"
        "harp::ecc::Gf2m::primitivePolynomial(|seam: field construction tests"
        "harp::ecc::ExtendedHammingCode::inner(|seam: SECDED layering tests"
        "harp::ecc::HammingCode::operator==(|oracle: randomSec determinism"
        "harp::ecc::SlicedBchCode::memo(|seam: shared-memo tests"
        "RoundEngine::roundsRun(|seam: both engines' round counters"
        "harp::core::SlicedRoundEngine::lanes(|seam: ragged-block tests"
        "harp::core::SlicedRoundEngine::stats(|seam: observe-elision counters"
        "harp::core::SlicedProfilerGroup::dirty(|seam: dirty-lane tests"
        "harp::core::SlicedProfilerGroup::kind(|seam: group selection tests"
        "harp::core::PatternGenerator::kind(|seam: pattern kind tests"
        "harp::core::BeepProfiler::suspectedCells(|seam: BEEP inference tests"
        "Profiler::identifiedDirect(|seam: HARP direct/indirect split tests"
        "harp::core::HarpAProfiler::predictedIndirect(|seam: HARP-A tests"
        "harp::common::Xoshiro256::max(|interface: URBG bound, compile time"
        "harp::common::Xoshiro256::min(|interface: URBG bound, compile time"
        "harp::common::io::File::isOpen(|seam: I/O fault tests"
        "harp::mem::ErrorProfile::wordBits(|accessor: error-profile tests"
        "harp::mem::MemoryController::profile() const|seam: read-chain tests"
        "harp::mem::RepairMechanism::capacity(|accessor: spare budget tests"
        "harp::mem::RepairMechanism::droppedAllocations(|accessor: budget tests"
        "harp::mem::RepairMechanism::exhausted(|accessor: spare budget tests"
        "harp::fleet::FleetAggregator::repairBitsHistogram(|seam: policy tests"
        "harp::fleet::FleetAggregator::uncorrectableHistogram(|seam: fleet tests"
        "harp::runner::CampaignSession::restoredJobs(|seam: resume tests"
        "harp::harpd::Backoff::reset(|seam: client retry tests"
        "harp::harpd::Server::activeConnections(|seam: connection-limit tests"
        "harp::sat::Solver::conflicts(|seam: solver statistics tests"
        "harp::sat::Solver::decisions(|seam: solver statistics tests"
        "harp::sat::Solver::propagations(|seam: solver statistics tests"
    )
    rdir="build-reach"
    reach_flags="-O0 -g0 -ffunction-sections -fdata-sections"
    reach_flags+=" -fkeep-inline-functions"
    cmake -B "$rdir/tree" -S . -DCMAKE_BUILD_TYPE=None \
        -DCMAKE_CXX_FLAGS="$reach_flags" \
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections \
        -DHARP_BUILD_TESTS=OFF > /dev/null
    cmake -B "$rdir/perfbench" -S perfbench -DCMAKE_BUILD_TYPE=None \
        -DCMAKE_CXX_FLAGS="$reach_flags" \
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections > /dev/null
    if cmake --build "$rdir/tree" --target help |
        grep bench_micro_kernels > /dev/null; then
        cmake --build "$rdir/tree" -j --target harp_run harpd \
            harpd_client bench_micro_kernels > /dev/null
        cmake --build "$rdir/perfbench" -j --target harp_bench > /dev/null
        # Defined text symbols, mangled; the harp:: filter works on the
        # mangled names so std:: instantiations over harp types drop
        # out and lambdas (_ZZ...) stay with their enclosing function.
        # Demangling folds constructor/destructor variants together.
        reach_text() {
            nm --defined-only "$@" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
        }
        reach_text "$rdir"/tree/src/libharp.a \
                   "$rdir"/tree/src/libharp_runner.a \
                   "$rdir"/tree/src/libharp_harpd.a |
            grep -E '^_ZN[KVRO]*4harp' | c++filt | LC_ALL=C sort -u \
            > "$rdir/lib.txt"
        reach_text "$rdir"/tree/src/harp_run "$rdir"/tree/src/harpd \
                   "$rdir"/tree/src/harpd_client \
                   "$rdir"/tree/bench/bench_micro_kernels \
                   "$rdir"/perfbench/harp_bench |
            c++filt | LC_ALL=C sort -u > "$rdir/bin.txt"
        LC_ALL=C comm -23 "$rdir/lib.txt" "$rdir/bin.txt" \
            > "$rdir/unreachable.txt"
        reach_fail=0
        reach_special=0
        declare -A reach_hits=()
        special_re='::([A-Za-z_][A-Za-z0-9_]*)::([A-Za-z_][A-Za-z0-9_]*)[(](.*)[)]$'
        while IFS= read -r sym; do
            if [[ $sym =~ $special_re &&
                  ${BASH_REMATCH[1]} == "${BASH_REMATCH[2]}" ]]; then
                args="${BASH_REMATCH[3]}"
                cls="${BASH_REMATCH[1]}"
                if [[ -z $args || $args == *"::$cls const&" ||
                      $args == *"::$cls&&" ]]; then
                    reach_special=$((reach_special + 1))
                    continue
                fi
            fi
            allowed=0
            for entry in "${reach_allow[@]}"; do
                pattern="${entry%%|*}"
                # shellcheck disable=SC2053  # the pattern is a glob
                if [[ "$sym" == *$pattern* ]]; then
                    allowed=1
                    reach_hits[$pattern]=1
                fi
            done
            if [[ $allowed -eq 0 ]]; then
                echo "verify: unreachable from every binary: $sym" >&2
                reach_fail=1
            fi
        done < "$rdir/unreachable.txt"
        for entry in "${reach_allow[@]}"; do
            pattern="${entry%%|*}"
            if [[ -z "${reach_hits[$pattern]:-}" ]]; then
                echo "verify: allowlisted '$pattern' is now reachable" \
                     "or gone; drop it from the allowlist" >&2
                reach_fail=1
            fi
        done
        [[ $reach_fail -eq 0 ]] || {
            echo "verify: reachability audit failed (delete the code," \
                 "or allowlist a test oracle/seam with a reason)" >&2
            exit 1
        }
        echo "verify: reachability audit: $(wc -l < "$rdir/unreachable.txt")" \
             "unreachable harp:: functions ($reach_special default, copy" \
             "or move constructors), all allowlisted"
    else
        echo "verify: google-benchmark not found, skipping the" \
             "reachability audit (bench_micro_kernels is not built)"
    fi
fi

# --- Sanitizer tier (full) ------------------------------------------------
# The whole unit suite under TSan (memo sharing + intra-job sharding
# races) and ASan+UBSan (lane/transpose pointer arithmetic), in
# dedicated build trees so the sanitizer runtimes never mix with the
# primary build/. The unit label includes the harpd protocol,
# checkpoint, and in-process server suites; the merger/bounded-queue
# contention stress and the out-of-process kill/resume properties are
# labeled stress/integration, so they are run explicitly here. The
# ASan+UBSan tree also drops RelWithDebInfo's -DNDEBUG, so it is the
# tier that executes the code's assert()s.
if [[ $FULL -eq 1 ]]; then
    for san in thread address; do
        sdir="build-tsan"
        san_flags=()
        if [[ $san == address ]]; then
            sdir="build-asan"
            san_flags=(-DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g")
        fi
        cmake -B "$sdir" -S . -DHARP_SANITIZE="$san" \
            -DHARP_BUILD_BENCH=OFF "${san_flags[@]}" > /dev/null
        cmake --build "$sdir" -j
        (cd "$sdir" && ctest -L unit --output-on-failure -j) || {
            echo "verify: unit suite failed under $san sanitizer" >&2
            exit 1
        }
        (cd "$sdir" && ctest --output-on-failure \
            -R '^(test_merge_queue_stress|test_harpd_resume)$') || {
            echo "verify: harpd stress/resume failed under $san" >&2
            exit 1
        }
        # The fault-injection tier: injected I/O faults -> degraded ->
        # resume, SIGKILL-while-degraded, client retries — all with the
        # sanitizer watching the failure paths themselves.
        (cd "$sdir" && ctest -L chaos --output-on-failure) || {
            echo "verify: chaos tier failed under $san sanitizer" >&2
            exit 1
        }
        # The fleet statistical/property tier (chi-square/KS sampler
        # GOF, monotonicity sweeps, reference/thread identity) is
        # labeled integration, so run it explicitly under sanitizers.
        (cd "$sdir" && ctest -L fleet --output-on-failure) || {
            echo "verify: fleet tier failed under $san sanitizer" >&2
            exit 1
        }
        # The overload tier: weighted fair scheduling, bounded
        # admission queues, deadline cancellation, and SIGTERM/SIGHUP
        # handling under multi-tenant contention — the scheduler's
        # locking and the cancel/drain paths are exactly where a data
        # race or use-after-free would hide.
        (cd "$sdir" && ctest -L overload --output-on-failure) || {
            echo "verify: overload tier failed under $san sanitizer" >&2
            exit 1
        }
    done
fi

# --- Fleet acceptance scale (full) ----------------------------------------
# A million-chip policy sweep completes on one machine with
# byte-identical JSONL across --threads {1, 4, hw}.
if [[ $FULL -eq 1 ]]; then
    for variant in t1 t4 thw; do
        threads="${variant#t}"
        [[ "$threads" == "hw" ]] && threads=0
        ./build/src/harp_run fleet_policy_sweep \
            --seed 29 --threads "$threads" \
            --chips 1000000 --fit_scale 20 --windows 8 --rounds 16 \
            --profiler harp_u \
            --out "$smoke_dir/fleet1m-$variant" > /dev/null
    done
    for variant in t4 thw; do
        cmp -s "$smoke_dir/fleet1m-t1/fleet_policy_sweep.jsonl" \
               "$smoke_dir/fleet1m-$variant/fleet_policy_sweep.jsonl" || {
            echo "verify: 1M-chip fleet sweep differs (t1 vs $variant)" >&2
            exit 1
        }
    done
fi

# --- Benchmark self-test (full) -------------------------------------------
# Every pinned result_hash in perfbench/pins.json and the traced
# AtRiskAnalyzer witness (at_risk_probe) must still match: the
# byte-identity proof for changes to the ground-truth enumeration.
if [[ $FULL -eq 1 ]]; then
    python3 perfbench/selftest.py
fi

# --- Intra-job scaling (full, hardware-gated) -----------------------------
# One heavy (point, repeat) job must scale through intra-job block
# sharding: >= 3x wall-clock from --threads 1 to --threads 8 with
# byte-identical JSONL. Meaningless below 8 cores, so gated on nproc.
if [[ $FULL -eq 1 ]]; then
    if [[ "$(nproc)" -ge 8 ]]; then
        for t in 1 8; do
            ./build/src/harp_run fig06_direct_coverage \
                --seed 21 --threads "$t" --codes 1 --words 4096 \
                --rounds 24 --prob 0.5 --pre_errors 3 \
                --out "$smoke_dir/scale-$t" > /dev/null
        done
        cmp -s "$smoke_dir/scale-1/fig06_direct_coverage.jsonl" \
               "$smoke_dir/scale-8/fig06_direct_coverage.jsonl" || {
            echo "verify: sharded JSONL differs from single-threaded" >&2
            exit 1
        }
        python3 - "$smoke_dir/scale-1/summary.json" \
                  "$smoke_dir/scale-8/summary.json" <<'EOF'
import json, sys
walls = []
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        walls.append(json.load(f)["experiments"][0]["wall_seconds"])
scale = walls[0] / walls[1] if walls[1] > 0 else float("inf")
print(f"verify: intra-job scaling 1->8 threads: {scale:.2f}x")
sys.exit(0 if scale >= 3.0 else 1)
EOF
    else
        echo "verify: < 8 hardware threads, skipping intra-job" \
             "scaling check"
    fi
fi

# --- Docs lint ------------------------------------------------------------
if command -v doxygen > /dev/null 2>&1; then
    cmake -B build -S . -DHARP_BUILD_DOCS=ON > /dev/null
    cmake --build build --target docs
    cmake -B build -S . -DHARP_BUILD_DOCS=OFF > /dev/null
else
    echo "verify: doxygen not installed, skipping docs lint"
fi

echo "verify: OK"
