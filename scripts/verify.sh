#!/usr/bin/env bash
# Tier-1 verification: the exact ROADMAP.md command (configure, build,
# every CTest suite) and a docs lint (Doxygen warnings are errors;
# skipped when doxygen is not installed). Every end-to-end claim is a
# CTest case, run against the real binaries where it needs them:
# served bytes equal batch, degrade never corrupts, weighted fairness,
# cancel latency, fleet bytes across thread counts, and job errors for
# out-of-range knobs. This script adds only what CTest cannot run.
# Exits nonzero on any failure. Performance is measured by
# `python3 perfbench/run.py --workload W`, not here.
#
#   scripts/verify.sh          # tier-1
#   scripts/verify.sh --full   # additionally: a reachability audit
#                              # (no library function that no binary
#                              # reaches, outside an allowlist of test
#                              # oracles and seams), the unit + stress +
#                              # chaos + fleet + overload suites under
#                              # TSan and ASan+UBSan (-DHARP_SANITIZE),
#                              # a million-chip fleet acceptance sweep,
#                              # the benchmark self-test
#                              # (perfbench/selftest.py) and the
#                              # intra-job scaling check (>= 8 cores
#                              # only)
set -euo pipefail

cd "$(dirname "$0")/.."

FULL=0
[[ "${1:-}" == "--full" ]] && FULL=1

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# --- Docs lint ------------------------------------------------------------
if command -v doxygen > /dev/null 2>&1; then
    cmake -B build -S . -DHARP_BUILD_DOCS=ON > /dev/null
    cmake --build build --target docs
    cmake -B build -S . -DHARP_BUILD_DOCS=OFF > /dev/null
else
    echo "verify: doxygen not installed, skipping docs lint"
fi

if [[ $FULL -eq 0 ]]; then
    echo "verify: OK"
    exit 0
fi

# Everything below is --full; its campaign runs write under full_dir.
full_dir="build/verify-full"

# --- Reachability audit ---------------------------------------------------
# Every harp:: function the libraries define must be reachable from a
# shipped binary: harp_run, harpd, harpd_client and perfbench's
# harp_bench (built from perfbench/CMakeLists.txt as is).
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
reach_allow=(
    "harp::gf2::ConstraintSystem::consistent(|oracle: at_risk_reference"
    "harp::ecc::Gf2m::solveQuadratic(|oracle: bch_dec_code's DEC decoder"
    "harp::ecc::Gf2m::trace(|oracle: bch_dec_code's DEC decoder"
    "harp::ecc::HammingCode::parityCheckMatrix(|oracle: H*G = 0 check"
    "harp::ecc::HammingCode::generatorMatrix(|oracle: H*G = 0 check"
    "harp::ecc::HammingCode::syndromeOfErrors(|oracle: syndrome check"
    "harp::gf2::BitMatrix::|oracle: the H*G = 0 and syndrome checks"
    "harp::gf2::BitMatrix::random(|test input: random GF(2) systems"
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
cmake --build "$rdir/tree" -j --target harp_run harpd \
    harpd_client > /dev/null
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

# --- Sanitizer tier -------------------------------------------------------
# The whole unit suite under TSan (memo sharing + intra-job sharding
# races) and ASan+UBSan (lane/transpose pointer arithmetic), in
# dedicated build trees so the sanitizer runtimes never mix with the
# primary build/. The unit label includes the harpd protocol,
# checkpoint, and in-process server suites; the merger/bounded-queue
# contention stress and the out-of-process kill/resume properties are
# labeled stress/integration, so they are run explicitly here. The
# ASan+UBSan tree also drops RelWithDebInfo's -DNDEBUG, so it is the
# tier that executes the code's assert()s. A mistyped ctest label
# matches nothing and exits 0, so each label run here is counted first.
for label in unit chaos fleet overload; do
    labeled="$(cd build && ctest -L "$label" -N |
        sed -n 's/^Total Tests: //p')"
    [[ "${labeled:-0}" -ge 4 ]] || {
        echo "verify: expected >= 4 $label-labeled tests, found" \
             "'${labeled:-none}'" >&2
        exit 1
    }
done
for san in thread address; do
    sdir="build-tsan"
    san_flags=()
    if [[ $san == address ]]; then
        sdir="build-asan"
        san_flags=(-DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g")
    fi
    cmake -B "$sdir" -S . -DHARP_SANITIZE="$san" \
        "${san_flags[@]}" > /dev/null
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

# --- Fleet acceptance scale -----------------------------------------------
# A million-chip policy sweep completes on one machine with
# byte-identical JSONL across --threads {1, 4, hw}.
for variant in t1 t4 thw; do
    threads="${variant#t}"
    [[ "$threads" == "hw" ]] && threads=0
    ./build/src/harp_run fleet_policy_sweep \
        --seed 29 --threads "$threads" \
        --chips 1000000 --fit_scale 20 --windows 8 --rounds 16 \
        --profiler harp_u \
        --out "$full_dir/fleet1m-$variant" > /dev/null
done
for variant in t4 thw; do
    cmp -s "$full_dir/fleet1m-t1/fleet_policy_sweep.jsonl" \
           "$full_dir/fleet1m-$variant/fleet_policy_sweep.jsonl" || {
        echo "verify: 1M-chip fleet sweep differs (t1 vs $variant)" >&2
        exit 1
    }
done

# --- Benchmark self-test --------------------------------------------------
# Every pinned result_hash in perfbench/pins.json and the traced
# AtRiskAnalyzer witness (at_risk_probe) must still match: the
# byte-identity proof for changes to the ground-truth enumeration.
python3 perfbench/selftest.py

# --- Intra-job scaling (hardware-gated) -----------------------------------
# One heavy (point, repeat) job must scale through intra-job block
# sharding: >= 3x wall-clock from --threads 1 to --threads 8 with
# byte-identical JSONL. Meaningless below 8 cores, so gated on nproc.
if [[ "$(nproc)" -ge 8 ]]; then
    for t in 1 8; do
        ./build/src/harp_run fig06_direct_coverage \
            --seed 21 --threads "$t" --codes 1 --words 4096 \
            --rounds 24 --prob 0.5 --pre_errors 3 \
            --out "$full_dir/scale-$t" > /dev/null
    done
    cmp -s "$full_dir/scale-1/fig06_direct_coverage.jsonl" \
           "$full_dir/scale-8/fig06_direct_coverage.jsonl" || {
        echo "verify: sharded JSONL differs from single-threaded" >&2
        exit 1
    }
    python3 - "$full_dir/scale-1/summary.json" \
              "$full_dir/scale-8/summary.json" <<'EOF'
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

echo "verify: OK"
