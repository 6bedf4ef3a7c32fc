/**
 * @file
 * Performance experiment: profiling-round throughput of the scalar
 * vs. bit-sliced engine, on a Fig. 6-sized Hamming coverage workload
 * and on a t-error BCH workload (the `bch_t_sweep` extension shape)
 * driven through the memoized sliced BCH datapath.
 *
 * Unlike every other spec, the timing fields of this experiment's
 * metrics are machine- and run-dependent, so its JSONL (and therefore
 * its result_hash) is intentionally *not* reproducible across runs.
 * The `profile_checksum` field, however, is deterministic and must be
 * identical for both engines — the in-band witness that the speedup is
 * measured over bit-identical simulations (docs/PERFORMANCE.md).
 */

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/bits.hh"
#include "core/beep_profiler.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/round_engine.hh"
#include "core/sliced_round_engine.hh"
#include "ecc/bch_general.hh"
#include "ecc/hamming_code.hh"
#include "ecc/sliced_bch.hh"
#include "ecc/sliced_hamming.hh"
#include "runner/campaign.hh"
#include "runner/registry.hh"

namespace harp::runner {

namespace {

using namespace harp;

/** The two engines this experiment times against each other. */
enum class Engine
{
    Scalar,   ///< core::RoundEngine, one word at a time.
    Sliced64, ///< core::SlicedRoundEngine, 64 words per lane-op.
};

/** Scale of one throughput measurement (Fig. 6 defaults). */
struct PerfWorkload
{
    std::size_t k = 64;
    std::size_t numCodes = 8;
    std::size_t wordsPerCode = 24;
    std::size_t rounds = 128;
    std::size_t preErrors = 4;
    double probability = 0.5;
    std::uint64_t seed = 1;
    /** BCH workload instead of the Hamming one. */
    bool bch = false;
    /** Correction capability of the BCH workload's code. */
    std::size_t bchT = 3;
};

/**
 * One simulated word with its workload-specific profiler set, no
 * ground-truth analysis — this experiment times the profiling rounds
 * themselves. Hamming words carry the Fig. 6 set (Naive, BEEP, HARP-U,
 * HARP-A); BCH words carry the code-agnostic set (Naive, HARP-U).
 */
struct PerfWord
{
    PerfWord(const PerfWorkload &workload,
             const ecc::HammingCode *hamming_code,
             const ecc::BchCode *bch_code, std::size_t code_idx,
             std::size_t word_idx)
        : hamming(hamming_code),
          bch(bch_code),
          faults([&] {
              common::Xoshiro256 fault_rng(common::deriveSeed(
                  workload.seed, {0xFA17u, code_idx, word_idx}));
              return fault::WordFaultModel::makeUniformFixedCount(
                  hamming ? hamming->n() : bch->n(), workload.preErrors,
                  workload.probability, fault_rng);
          }()),
          engineSeed(common::deriveSeed(workload.seed,
                                        {0xE221u, code_idx, word_idx}))
    {
        const std::size_t k = hamming ? hamming->k() : bch->k();
        profilers.push_back(std::make_unique<core::NaiveProfiler>(k));
        if (hamming) {
            profilers.push_back(
                std::make_unique<core::BeepProfiler>(*hamming));
            profilers.push_back(
                std::make_unique<core::HarpUProfiler>(k));
            profilers.push_back(
                std::make_unique<core::HarpAProfiler>(*hamming));
        } else {
            profilers.push_back(
                std::make_unique<core::HarpUProfiler>(k));
        }
        for (auto &p : profilers)
            raw.push_back(p.get());
    }

    const ecc::HammingCode *hamming;
    const ecc::BchCode *bch;
    fault::WordFaultModel faults;
    std::uint64_t engineSeed;
    std::vector<std::unique_ptr<core::Profiler>> profilers;
    std::vector<core::Profiler *> raw;
};

/** The pre-built sliced datapaths of one fleet: construction
 *  (lane-mask tables, BCH parity/syndrome matrices) is initialization,
 *  paid alongside the scalar decoder's own table construction — the
 *  timed loops measure profiling rounds, including the BCH memo's
 *  scalar-decode fallbacks. */
struct SlicedDatapaths
{
    void build(const PerfWorkload &workload,
               const std::vector<ecc::HammingCode> &codes,
               const ecc::BchCode *bch_code)
    {
        constexpr std::size_t lanes = gf2::BitSlice::laneCount;
        const std::size_t words =
            workload.numCodes * workload.wordsPerCode;
        if (workload.bch) {
            // One shared datapath for every block of the fleet.
            if (words > 0)
                sharedBch = std::make_unique<ecc::SlicedBchCode>(
                    *bch_code, std::min(lanes, words));
            return;
        }
        // Per-block sliced Hamming datapaths (the lane-mask tables),
        // prebuilt over the same flat block partition driveFleet uses.
        std::vector<const ecc::HammingCode *> flat_codes;
        for (std::size_t c = 0; c < workload.numCodes; ++c)
            for (std::size_t w = 0; w < workload.wordsPerCode; ++w)
                flat_codes.push_back(&codes[c]);
        for (std::size_t begin = 0; begin < flat_codes.size();
             begin += lanes) {
            const std::size_t end =
                std::min(begin + lanes, flat_codes.size());
            slicedHamming.push_back(
                std::make_unique<ecc::SlicedHammingCode>(
                    std::vector<const ecc::HammingCode *>(
                        flat_codes.begin() +
                            static_cast<std::ptrdiff_t>(begin),
                        flat_codes.begin() +
                            static_cast<std::ptrdiff_t>(end))));
        }
    }

    std::unique_ptr<ecc::SlicedBchCode> sharedBch;
    std::vector<std::unique_ptr<ecc::SlicedHammingCode>> slicedHamming;
};

/** The words of one workload, grouped per code (= per sliced block). */
struct PerfFleet
{
    PerfFleet(const PerfWorkload &workload, Engine engine)
    {
        if (workload.bch) {
            // A BCH code is fully determined by (k, t): one shared
            // instance; the `codes` tunable still scales word count.
            bchCode = std::make_unique<ecc::BchCode>(workload.k,
                                                     workload.bchT);
        } else {
            codes.reserve(workload.numCodes);
            for (std::size_t c = 0; c < workload.numCodes; ++c) {
                common::Xoshiro256 code_rng(
                    common::deriveSeed(workload.seed, {0xC0DEu, c}));
                codes.push_back(
                    ecc::HammingCode::randomSec(workload.k, code_rng));
            }
        }
        for (std::size_t c = 0; c < workload.numCodes; ++c) {
            words.emplace_back();
            for (std::size_t w = 0; w < workload.wordsPerCode; ++w)
                words.back().push_back(std::make_unique<PerfWord>(
                    workload, workload.bch ? nullptr : &codes[c],
                    bchCode.get(), c, w));
        }
        // Scalar fleets never touch the sliced datapaths, so they skip
        // the build.
        if (engine == Engine::Sliced64)
            sliced.build(workload, codes, bchCode.get());
    }

    /** From the words actually built, so the profiler_rounds metric
     *  cannot drift from PerfWord's constructor. */
    std::size_t profilersPerWord() const
    {
        if (words.empty() || words[0].empty())
            return 0;
        return words[0][0]->raw.size();
    }

    /** FNV-1a over every profiler's final identified profile, in
     *  deterministic (code, word, profiler) order. */
    std::uint64_t checksum() const
    {
        std::uint64_t hash = common::fnv1a64Init;
        for (const auto &code_words : words) {
            for (const auto &word : code_words) {
                for (const core::Profiler *profiler : word->raw) {
                    for (const std::uint64_t v :
                         profiler->identified().words()) {
                        const char *bytes =
                            reinterpret_cast<const char *>(&v);
                        hash = common::fnv1a64(
                            std::string_view(bytes, sizeof(v)), hash);
                    }
                }
            }
        }
        return hash;
    }

    std::vector<ecc::HammingCode> codes;
    std::unique_ptr<ecc::BchCode> bchCode;
    SlicedDatapaths sliced;
    std::vector<std::vector<std::unique_ptr<PerfWord>>> words;
};

/** One engine measurement: wall seconds of the profiling loop alone,
 *  plus the sliced BCH memo statistics when applicable. */
struct DriveStats
{
    double seconds = 0.0;
    std::uint64_t memoHits = 0;
    std::uint64_t memoMisses = 0;
    std::size_t memoEntries = 0;
};

/** The sliced half of driveFleet; fills the memo fields of @p stats
 *  for BCH workloads. */
void
driveFleetSliced(PerfFleet &fleet, const PerfWorkload &workload,
                 core::EnginePhaseSeconds *phases, DriveStats &stats)
{
    // Batch blocks straight across code boundaries: Hamming lanes
    // carry their own code, BCH lanes share the one code function
    // (and the fleet's pre-built datapath + memo), so every block
    // is as full as possible.
    constexpr std::size_t lanes = gf2::BitSlice::laneCount;
    SlicedDatapaths &datapaths = fleet.sliced;
    std::vector<PerfWord *> flat;
    for (auto &code_words : fleet.words)
        for (auto &word : code_words)
            flat.push_back(word.get());
    for (std::size_t begin = 0; begin < flat.size(); begin += lanes) {
        const std::size_t end = std::min(begin + lanes, flat.size());
        std::vector<const fault::WordFaultModel *> fault_ptrs;
        std::vector<std::uint64_t> seeds;
        std::vector<std::vector<core::Profiler *>> lane_profilers;
        for (std::size_t w = begin; w < end; ++w) {
            fault_ptrs.push_back(&flat[w]->faults);
            seeds.push_back(flat[w]->engineSeed);
            lane_profilers.push_back(flat[w]->raw);
        }
        std::unique_ptr<core::SlicedRoundEngine> round_engine;
        if (workload.bch) {
            round_engine = std::make_unique<core::SlicedRoundEngine>(
                *datapaths.sharedBch, fault_ptrs,
                core::PatternKind::Random, seeds,
                std::move(lane_profilers));
        } else {
            round_engine = std::make_unique<core::SlicedRoundEngine>(
                *datapaths.slicedHamming[begin / lanes], fault_ptrs,
                core::PatternKind::Random, seeds,
                std::move(lane_profilers));
        }
        round_engine->setPhaseSink(phases);
        for (std::size_t r = 0; r < workload.rounds; ++r)
            round_engine->runRound();
    }
    if (datapaths.sharedBch != nullptr) {
        stats.memoHits = datapaths.sharedBch->memoHits();
        stats.memoMisses = datapaths.sharedBch->memoMisses();
        stats.memoEntries = datapaths.sharedBch->memoEntries();
    }
}

/**
 * Drive every word of @p fleet through all rounds with one engine.
 * A non-null @p phases attaches the per-phase wall-time sink to every
 * engine (setup / datapath / observe split); the headline timing reps
 * leave it null so clock reads never contaminate them.
 */
DriveStats
driveFleet(PerfFleet &fleet, const PerfWorkload &workload, Engine engine,
           core::EnginePhaseSeconds *phases = nullptr)
{
    DriveStats stats;
    const auto start = std::chrono::steady_clock::now();
    if (engine == Engine::Scalar) {
        for (auto &code_words : fleet.words) {
            for (auto &word : code_words) {
                std::unique_ptr<core::RoundEngine> round_engine;
                if (word->hamming != nullptr)
                    round_engine = std::make_unique<core::RoundEngine>(
                        *word->hamming, word->faults,
                        core::PatternKind::Random, word->engineSeed,
                        word->raw);
                else
                    round_engine = std::make_unique<core::RoundEngine>(
                        *word->bch, word->faults,
                        core::PatternKind::Random, word->engineSeed,
                        word->raw);
                round_engine->setPhaseSink(phases);
                for (std::size_t r = 0; r < workload.rounds; ++r)
                    round_engine->runRound();
            }
        }
    } else {
        driveFleetSliced(fleet, workload, phases, stats);
    }
    const auto stop = std::chrono::steady_clock::now();
    stats.seconds = std::chrono::duration<double>(stop - start).count();
    return stats;
}

/** Best-of-@p reps wall time plus the (deterministic) profile
 *  checksum for one engine; memo stats come from the last rep, the
 *  phase split from one additional instrumented rep. */
struct EngineMeasurement
{
    double seconds = 0.0;
    std::uint64_t checksum = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t memoMisses = 0;
    std::size_t memoEntries = 0;
    std::size_t profilersPerWord = 0;
    core::EnginePhaseSeconds phases;
};

EngineMeasurement
measureEngine(const PerfWorkload &workload, Engine engine, std::size_t reps)
{
    EngineMeasurement best;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        PerfFleet fleet(workload, engine);
        const DriveStats stats = driveFleet(fleet, workload, engine);
        if (rep == 0 || stats.seconds < best.seconds)
            best.seconds = stats.seconds;
        best.checksum = fleet.checksum();
        best.memoHits = stats.memoHits;
        best.memoMisses = stats.memoMisses;
        best.memoEntries = stats.memoEntries;
        best.profilersPerWord = fleet.profilersPerWord();
    }
    // Extra instrumented reps for the setup/datapath/observe cost
    // split — separate from the headline reps, whose loops never read
    // a clock between phases. The first rep warms caches and
    // allocators; the last rep's split is reported.
    for (int rep = 0; rep < 2; ++rep) {
        best.phases = core::EnginePhaseSeconds{};
        PerfFleet fleet(workload, engine);
        driveFleet(fleet, workload, engine, &best.phases);
    }
    return best;
}

ExperimentSpec
makePerfEngineThroughput()
{
    ExperimentSpec spec;
    spec.name = "perf_engine_throughput";
    spec.description =
        "Profiling-round throughput: scalar vs. sliced64 "
        "engines on Hamming (Fig. 6-sized) and t-error BCH workloads "
        "(timing fields are machine-dependent)";
    spec.labels = {"bench", "perf"};
    spec.grid =
        ParamGrid({ParamAxis{"workload", {"hamming", "bch"}}});
    spec.tunables = {
        {"k", 64, "dataword length of the on-die ECC code"},
        {"codes", 8, "randomly generated codes (word-count scale for "
                       "the BCH workload)"},
        {"words", 24, "simulated ECC words per code"},
        {"rounds", 128, "active-profiling rounds"},
        {"prob", 0.5, "per-bit failure probability of at-risk cells"},
        {"pre_errors", 4, "at-risk cells per ECC word"},
        {"t", 3, "correction capability of the BCH workload's code"},
        {"reps", 3, "measurement repetitions (best-of)"},
    };
    spec.schema = {
        {"words_total", JsonType::Int, "simulated ECC words"},
        {"rounds", JsonType::Int, "profiling rounds per word"},
        {"profilers_per_word", JsonType::Int,
         "profilers driven per word (4 Hamming, 2 BCH)"},
        {"profiler_rounds", JsonType::Int,
         "words x rounds x profilers driven per engine"},
        {"scalar_wall_seconds", JsonType::Double,
         "best-of-reps wall time of the scalar profiling loop"},
        {"sliced64_wall_seconds", JsonType::Double,
         "best-of-reps wall time of the sliced64 profiling loop"},
        {"scalar_rounds_per_sec", JsonType::Double,
         "profiler-rounds/s under the scalar engine"},
        {"sliced64_rounds_per_sec", JsonType::Double,
         "profiler-rounds/s under the sliced64 engine"},
        {"speedup", JsonType::Double,
         "sliced64 throughput / scalar throughput"},
        {"profiles_match", JsonType::Bool,
         "both engines produced identical identified profiles"},
        {"profile_checksum", JsonType::String,
         "FNV-1a over all final identified profiles (deterministic; "
         "equal for both engines)"},
        {"memo_hits", JsonType::Int,
         "sliced BCH syndrome-memo hits (null for Hamming)"},
        {"memo_misses", JsonType::Int,
         "sliced BCH syndrome-memo misses = scalar fallbacks (null for "
         "Hamming)"},
        {"memo_hit_rate", JsonType::Double,
         "memo_hits / (memo_hits + memo_misses) (null for Hamming)"},
        {"memo_entries", JsonType::Int,
         "distinct syndromes memoized (null for Hamming)"},
        {"scalar_setup_seconds", JsonType::Double,
         "scalar pattern/CRN/choose wall seconds (instrumented rep)"},
        {"scalar_datapath_seconds", JsonType::Double,
         "scalar encode+inject+decode wall seconds (instrumented rep)"},
        {"scalar_observe_seconds", JsonType::Double,
         "scalar observation wall seconds (instrumented rep)"},
        {"sliced64_setup_seconds", JsonType::Double,
         "sliced64 pattern/CRN/choose wall seconds (instrumented rep)"},
        {"sliced64_datapath_seconds", JsonType::Double,
         "sliced64 gather+encode+inject+decode wall seconds "
         "(instrumented rep)"},
        {"sliced64_observe_seconds", JsonType::Double,
         "sliced64 observation wall seconds — lane observes, scatters "
         "and scalar observe calls (instrumented rep)"},
    };
    spec.run = [](const RunContext &ctx) {
        PerfWorkload workload;
        workload.k = ctx.getCount("k");
        workload.numCodes = ctx.getCount("codes");
        workload.wordsPerCode = ctx.getCount("words");
        workload.rounds = ctx.getCount("rounds");
        workload.preErrors = ctx.getCount("pre_errors");
        workload.probability = ctx.getDouble("prob");
        workload.seed = ctx.seed();
        workload.bch = ctx.getString("workload") == "bch";
        workload.bchT = ctx.getCount("t");
        // At least one rep: --reps 0 would otherwise report a
        // zero-checksum "match" without measuring anything.
        const auto reps = std::max<std::size_t>(1, ctx.getCount("reps"));

        const EngineMeasurement scalar =
            measureEngine(workload, Engine::Scalar, reps);
        const EngineMeasurement sliced =
            measureEngine(workload, Engine::Sliced64, reps);
        // Degenerate workloads (--words 0, --rounds 0) can time as
        // exactly zero; clamp so the throughput/speedup divisions stay
        // finite (JSON serializes non-finite doubles as null, which
        // would violate the declared schema).
        const double scalar_seconds = std::max(scalar.seconds, 1e-9);
        const double sliced_seconds = std::max(sliced.seconds, 1e-9);

        const std::size_t words_total =
            workload.numCodes * workload.wordsPerCode;
        // From the fleet itself, so the metric can never drift from
        // the profiler sets PerfWord actually constructs.
        const std::size_t profilers = scalar.profilersPerWord;
        const double profiler_rounds = static_cast<double>(
            words_total * workload.rounds * profilers);

        JsonValue metrics = JsonValue::object();
        metrics.set("words_total", JsonValue(words_total));
        metrics.set("rounds", JsonValue(workload.rounds));
        metrics.set("profilers_per_word", JsonValue(profilers));
        metrics.set("profiler_rounds",
                    JsonValue(static_cast<std::uint64_t>(profiler_rounds)));
        metrics.set("scalar_wall_seconds", JsonValue(scalar_seconds));
        metrics.set("sliced64_wall_seconds", JsonValue(sliced_seconds));
        metrics.set("scalar_rounds_per_sec",
                    JsonValue(profiler_rounds / scalar_seconds));
        metrics.set("sliced64_rounds_per_sec",
                    JsonValue(profiler_rounds / sliced_seconds));
        metrics.set("speedup",
                    JsonValue(scalar_seconds / sliced_seconds));
        metrics.set("profiles_match",
                    JsonValue(scalar.checksum == sliced.checksum));
        metrics.set("profile_checksum",
                    JsonValue(formatResultHash(scalar.checksum)));
        const std::uint64_t lookups =
            sliced.memoHits + sliced.memoMisses;
        metrics.set("memo_hits", workload.bch
                                     ? JsonValue(sliced.memoHits)
                                     : JsonValue());
        metrics.set("memo_misses", workload.bch
                                       ? JsonValue(sliced.memoMisses)
                                       : JsonValue());
        metrics.set("memo_hit_rate",
                    workload.bch && lookups > 0
                        ? JsonValue(static_cast<double>(sliced.memoHits) /
                                    static_cast<double>(lookups))
                        : JsonValue());
        metrics.set("memo_entries", workload.bch
                                        ? JsonValue(sliced.memoEntries)
                                        : JsonValue());
        metrics.set("scalar_setup_seconds",
                    JsonValue(scalar.phases.setup));
        metrics.set("scalar_datapath_seconds",
                    JsonValue(scalar.phases.datapath));
        metrics.set("scalar_observe_seconds",
                    JsonValue(scalar.phases.observe));
        metrics.set("sliced64_setup_seconds",
                    JsonValue(sliced.phases.setup));
        metrics.set("sliced64_datapath_seconds",
                    JsonValue(sliced.phases.datapath));
        metrics.set("sliced64_observe_seconds",
                    JsonValue(sliced.phases.observe));
        return metrics;
    };
    return spec;
}

} // namespace

void
registerPerfSpecs(Registry &registry)
{
    registry.add(makePerfEngineThroughput());
}

} // namespace harp::runner
