/**
 * @file
 * Monte-Carlo coverage experiment driving Figs. 6, 7, 8 and 9 of the
 * paper: per-round direct-error coverage, bootstrapping distribution,
 * missed indirect errors, and secondary-ECC sizing metrics for every
 * evaluated profiler.
 */

#ifndef HARP_CORE_COVERAGE_EXPERIMENT_HH
#define HARP_CORE_COVERAGE_EXPERIMENT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/data_pattern.hh"

namespace harp::core {

/** Configuration of one coverage sweep cell. */
struct CoverageConfig
{
    /** Dataword length of the on-die ECC code (64 or 128 in the paper). */
    std::size_t k = 64;
    /** Number of randomly generated codes. */
    std::size_t numCodes = 8;
    /** Simulated ECC words per code. */
    std::size_t wordsPerCode = 24;
    /** Profiling rounds (the paper uses 128). */
    std::size_t rounds = 128;
    /** At-risk cells injected per ECC word (paper: 2-5, Fig. 4: 2-8). */
    std::size_t numPreCorrectionErrors = 2;
    /** Per-bit failure probability of at-risk cells (0.25/0.5/0.75/1.0). */
    double perBitProbability = 0.5;
    /** Shared data-pattern policy for non-crafting profilers. */
    PatternKind pattern = PatternKind::Random;
    /** Include the HARP-A+BEEP hybrid (Fig. 8). */
    bool includeHarpABeep = false;
    std::uint64_t seed = 1;
    /** Worker threads; 0 = hardware concurrency. */
    std::size_t threads = 0;
};

/** Largest simultaneous-error bound tracked for Fig. 9b (x = 1..bound). */
inline constexpr std::size_t maxTrackedBound = 6;

/** Aggregated per-profiler results of a coverage run. */
struct ProfilerAggregate
{
    std::string name;

    /** Per round: identified direct-at-risk bits, summed over words. */
    std::vector<std::uint64_t> directIdentifiedSum;
    /** Per round: missed indirect-at-risk bits, summed over words. */
    std::vector<std::uint64_t> indirectMissedSum;
    /** Per round: identified bits outside the ground-truth at-risk sets
     *  (false positives), summed over words. */
    std::vector<std::uint64_t> falsePositiveSum;

    /** Per word: 1-based round of the first identified direct-at-risk
     *  bit; rounds+1 when never identified (Fig. 7). */
    common::PercentileTracker bootstrapRounds;

    /** Per word: max simultaneous post-correction errors possible after
     *  the final round (Fig. 9a). */
    common::Histogram maxSimultaneousFinal{10};

    /** Per bound x (index x-1): per word, first 0-based-round-count after
     *  which max simultaneous errors <= x; rounds+1 when never (Fig 9b). */
    std::array<common::PercentileTracker, maxTrackedBound> roundsToBound;
};

/** Full result of one coverage sweep cell. */
struct CoverageResult
{
    CoverageConfig config;
    std::vector<ProfilerAggregate> profilers;
    /** Ground-truth totals, summed over all simulated words. */
    std::uint64_t totalDirectAtRisk = 0;
    std::uint64_t totalIndirectAtRisk = 0;
    std::uint64_t numWords = 0;

    /** Direct coverage in [0,1] for @p profiler after round index @p r. */
    double directCoverage(std::size_t profiler, std::size_t r) const;
    /** Mean missed indirect errors per word after round index @p r. */
    double missedIndirectPerWord(std::size_t profiler, std::size_t r) const;
};

/** Run the experiment (parallel over (code, word) tasks; deterministic
 *  for a fixed seed regardless of thread count). */
CoverageResult runCoverageExperiment(const CoverageConfig &config);

} // namespace harp::core

#endif // HARP_CORE_COVERAGE_EXPERIMENT_HH
