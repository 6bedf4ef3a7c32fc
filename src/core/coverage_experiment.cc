#include "core/coverage_experiment.hh"

#include <memory>
#include <stdexcept>

#include "common/rng.hh"
#include "core/at_risk_analyzer.hh"
#include "core/beep_profiler.hh"
#include "core/harp_a_beep_profiler.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "ecc/hamming_code.hh"

namespace harp::core {

namespace {

/** Per-word scratch results for one profiler, merged under a mutex. */
struct WordStats
{
    std::vector<std::uint64_t> directIdentified;
    std::vector<std::uint64_t> indirectMissed;
    std::vector<std::uint64_t> falsePositives;
    double bootstrapRound = 0.0;
    std::int64_t maxSimulFinal = 0;
    std::array<double, maxTrackedBound> roundsToBound{};
};

/**
 * One profile and the round statistics derived from it. Every field is
 * a pure function of the profile and the word's fixed ground truth, so
 * a round whose profile equals the last one reuses them unchanged.
 */
struct ProfileMetrics
{
    gf2::BitVector profile;
    std::size_t directFound = 0;
    std::size_t indirectMissed = 0;
    std::size_t falsePositives = 0;
    std::size_t maxSimul = 0;
};

/**
 * Everything one simulated ECC word carries through a coverage run:
 * ground truth, profiler set, and per-round statistics. Both engines
 * drive words through the identical observation code, so their merged
 * aggregates are byte-identical for a fixed seed.
 */
struct WordSim
{
    WordSim(const CoverageConfig &config, const ecc::HammingCode &code,
            std::size_t code_idx, std::size_t word_idx)
        : code(code),
          faults(makeFaults(config, code,
                            common::deriveSeed(config.seed,
                                               {0xFA17u, code_idx, word_idx}))),
          analyzer(code, faults),
          engineSeed(common::deriveSeed(config.seed,
                                        {0xE221u, code_idx, word_idx}))
    {
        profilers.push_back(std::make_unique<NaiveProfiler>(code.k()));
        profilers.push_back(std::make_unique<BeepProfiler>(code));
        profilers.push_back(std::make_unique<HarpUProfiler>(code.k()));
        profilers.push_back(std::make_unique<HarpAProfiler>(code));
        if (config.includeHarpABeep)
            profilers.push_back(std::make_unique<HarpABeepProfiler>(code));
        raw.reserve(profilers.size());
        for (auto &p : profilers)
            raw.push_back(p.get());

        indirectTotal = analyzer.indirectAtRisk().popcount();
        anyGt = analyzer.directAtRisk();
        anyGt |= analyzer.indirectAtRisk();

        // Every profile starts empty: the "0 rounds of profiling" state.
        ProfileMetrics initial;
        measure(initial, gf2::BitVector(code.k()));
        last.assign(profilers.size(), initial);

        stats.resize(profilers.size());
        for (auto &s : stats) {
            s.directIdentified.assign(config.rounds, 0);
            s.indirectMissed.assign(config.rounds, 0);
            s.falsePositives.assign(config.rounds, 0);
            s.bootstrapRound = static_cast<double>(config.rounds + 1);
            for (std::size_t x = 1; x <= maxTrackedBound; ++x)
                s.roundsToBound[x - 1] =
                    initial.maxSimul <= x
                        ? 0.0
                        : static_cast<double>(config.rounds + 1);
        }
    }

    static fault::WordFaultModel makeFaults(const CoverageConfig &config,
                                            const ecc::HammingCode &code,
                                            std::uint64_t fault_seed)
    {
        common::Xoshiro256 fault_rng(fault_seed);
        return fault::WordFaultModel::makeUniformFixedCount(
            code.n(), config.numPreCorrectionErrors,
            config.perBitProbability, fault_rng);
    }

    /** Make @p m describe @p profile, recomputing only when the profile
     *  differs from the one @p m already describes. */
    void measure(ProfileMetrics &m, const gf2::BitVector &profile) const
    {
        if (profile == m.profile)
            return;
        m.profile = profile;
        m.directFound = profile.intersectionCount(analyzer.directAtRisk());
        m.indirectMissed =
            indirectTotal -
            profile.intersectionCount(analyzer.indirectAtRisk());
        m.falsePositives =
            profile.popcount() - profile.intersectionCount(anyGt);
        m.maxSimul = analyzer.maxSimultaneousErrors(profile);
    }

    /** Record every profiler's state after round index @p r. */
    void accumulateRound(const CoverageConfig &config, std::size_t r)
    {
        for (std::size_t pi = 0; pi < raw.size(); ++pi) {
            ProfileMetrics &m = last[pi];
            measure(m, raw[pi]->identified());
            WordStats &s = stats[pi];
            s.directIdentified[r] = m.directFound;
            s.indirectMissed[r] = m.indirectMissed;
            s.falsePositives[r] = m.falsePositives;
            if (m.directFound > 0 &&
                s.bootstrapRound > static_cast<double>(config.rounds))
                s.bootstrapRound = static_cast<double>(r + 1);
            for (std::size_t x = 1; x <= maxTrackedBound; ++x) {
                if (m.maxSimul <= x &&
                    s.roundsToBound[x - 1] >
                        static_cast<double>(config.rounds)) {
                    s.roundsToBound[x - 1] = static_cast<double>(r + 1);
                }
            }
            if (r + 1 == config.rounds)
                s.maxSimulFinal = static_cast<std::int64_t>(m.maxSimul);
        }
    }

    /** Merge into the experiment aggregates; caller holds the mutex. */
    void merge(const CoverageConfig &config, CoverageResult &result) const
    {
        result.totalDirectAtRisk += analyzer.directAtRisk().popcount();
        result.totalIndirectAtRisk += indirectTotal;
        result.numWords += 1;
        for (std::size_t pi = 0; pi < stats.size(); ++pi) {
            ProfilerAggregate &agg = result.profilers[pi];
            for (std::size_t r = 0; r < config.rounds; ++r) {
                agg.directIdentifiedSum[r] +=
                    stats[pi].directIdentified[r];
                agg.indirectMissedSum[r] += stats[pi].indirectMissed[r];
                agg.falsePositiveSum[r] += stats[pi].falsePositives[r];
            }
            agg.bootstrapRounds.add(stats[pi].bootstrapRound);
            agg.maxSimultaneousFinal.add(stats[pi].maxSimulFinal);
            for (std::size_t x = 0; x < maxTrackedBound; ++x)
                agg.roundsToBound[x].add(stats[pi].roundsToBound[x]);
        }
    }

    WordInputs inputs() const { return {&code, &faults, engineSeed, raw}; }

    const ecc::HammingCode &code;
    fault::WordFaultModel faults;
    AtRiskAnalyzer analyzer;
    std::uint64_t engineSeed;
    std::vector<std::unique_ptr<Profiler>> profilers;
    std::vector<Profiler *> raw;
    gf2::BitVector anyGt;
    std::size_t indirectTotal = 0;
    /** Per profiler: the profile seen last round and its statistics. */
    std::vector<ProfileMetrics> last;
    std::vector<WordStats> stats;
};

} // namespace

double
CoverageResult::directCoverage(std::size_t profiler, std::size_t r) const
{
    if (totalDirectAtRisk == 0)
        return 1.0;
    return static_cast<double>(
               profilers[profiler].directIdentifiedSum[r]) /
           static_cast<double>(totalDirectAtRisk);
}

double
CoverageResult::missedIndirectPerWord(std::size_t profiler,
                                      std::size_t r) const
{
    if (numWords == 0)
        return 0.0;
    return static_cast<double>(profilers[profiler].indirectMissedSum[r]) /
           static_cast<double>(numWords);
}

CoverageResult
runCoverageExperiment(const CoverageConfig &config)
{
    if (config.rounds == 0 || config.numCodes == 0 ||
        config.wordsPerCode == 0)
        throw std::invalid_argument(
            "coverage experiment: rounds, codes and words per code must "
            "be positive");
    CoverageResult result;
    result.config = config;

    std::vector<std::string> names = {"Naive", "BEEP", "HARP-U", "HARP-A"};
    if (config.includeHarpABeep)
        names.push_back("HARP-A+BEEP");

    for (const std::string &name : names) {
        ProfilerAggregate agg;
        agg.name = name;
        agg.directIdentifiedSum.assign(config.rounds, 0);
        agg.indirectMissedSum.assign(config.rounds, 0);
        agg.falsePositiveSum.assign(config.rounds, 0);
        result.profilers.push_back(std::move(agg));
    }

    // Deterministic per-word streams, independent of scheduling and of
    // the engine: every engine derives the exact same code, fault and
    // engine seeds per (code_idx, word_idx), and profileWords finishes
    // words in word order, so output bytes are fixed by the seed alone
    // — not by thread count, engine, or completion order. Each code is
    // built once, up front; its words point into it.
    std::vector<ecc::HammingCode> codes;
    codes.reserve(config.numCodes);
    for (std::size_t c = 0; c < config.numCodes; ++c) {
        common::Xoshiro256 code_rng(
            common::deriveSeed(config.seed, {0xC0DEu, c}));
        codes.push_back(ecc::HammingCode::randomSec(config.k, code_rng));
    }
    const WordRun run{config.engine, config.numCodes * config.wordsPerCode,
                      config.rounds, config.pattern, config.threads};
    profileWords<WordSim>(
        run,
        [&](std::size_t g) {
            const std::size_t code_idx = g / config.wordsPerCode;
            return std::make_unique<WordSim>(config, codes[code_idx],
                                             code_idx,
                                             g % config.wordsPerCode);
        },
        [&](WordSim &word, std::size_t r) { word.accumulateRound(config, r); },
        [&](WordSim &word) { word.merge(config, result); });
    return result;
}

} // namespace harp::core
