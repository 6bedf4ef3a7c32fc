/**
 * @file
 * Thread-count and seed determinism for the remaining experiment
 * drivers (Fig. 4 and the Fig. 10 case study): results must be exact
 * functions of the seed, independent of parallel scheduling — the
 * property that makes every bench output reproducible. The coverage
 * (Figs. 6-9) and case-study aggregates are also pinned to absolute
 * golden hashes, so a change to the per-round bookkeeping that moves
 * any output byte fails here, not only in the benchmark pins.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/case_study_experiment.hh"
#include "core/coverage_experiment.hh"
#include "core/fig4_experiment.hh"
#include "support/golden.hh"

namespace harp::core {
namespace {

/**
 * Golden hash of a complete Fig. 4 result: every sample of every row's
 * distributions, via sorted order so the hash is schedule-independent
 * but still bit-exact on the double values themselves.
 */
std::uint64_t
hashOf(const Fig4Result &result)
{
    // Every variable-length sequence goes through goldenOf, which mixes
    // the length first, so moving a sample between adjacent sequences
    // cannot produce a colliding byte stream.
    std::uint64_t hash = test::goldenMix(test::kGoldenInit,
                                         result.rows.size());
    for (const Fig4Row &row : result.rows) {
        hash = test::goldenMix(hash, row.numPreCorrectionErrors);
        hash = test::goldenMix(hash,
                               test::goldenOf(row.postCorrection
                                                  .sortedSamples()));
        hash = test::goldenMix(hash,
                               test::goldenOf(row.preCorrection
                                                  .sortedSamples()));
    }
    return hash;
}

/** Pool sizes every experiment must agree across: serial, small, the
 *  full machine, and an oversubscribed pool (8 exceeds 4 cores and, on
 *  wider machines, hw covers the full-width case). Deduplicated — on a
 *  4-core machine {1, 4, hw, 8} collapses to {1, 4, 8}. */
std::vector<std::size_t>
poolSizesUnderTest()
{
    const unsigned hw = std::thread::hardware_concurrency();
    std::vector<std::size_t> sizes{1, 4, hw == 0 ? 1 : hw, 8};
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    return sizes;
}

/**
 * Bit-identical results for any ThreadPool size: the hash covers every
 * double of every row/series, so a single sample differing anywhere —
 * even in the last ULP — fails the comparison.
 */
class PoolSizeDeterminism : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PoolSizeDeterminism, Fig4BitIdenticalToSerialBaseline)
{
    Fig4Config config;
    config.numCodes = 5;
    config.wordsPerCode = 6;
    config.minPreCorrectionErrors = 2;
    config.maxPreCorrectionErrors = 4;
    config.seed = 1234;

    // Serial baseline shared across all instantiations of this test.
    static const std::uint64_t baseline = [config]() mutable {
        config.threads = 1;
        return hashOf(runFig4Experiment(config));
    }();

    config.threads = GetParam();
    EXPECT_TRUE(test::goldenMatches(hashOf(runFig4Experiment(config)),
                                    baseline))
        << "Fig4 result diverges at pool size " << GetParam();
}

TEST_P(PoolSizeDeterminism, CaseStudyBitIdenticalToSerialBaseline)
{
    CaseStudyConfig config;
    config.perBitProbability = 0.5;
    config.samplesPerCellCount = 3;
    config.maxConditionedCells = 3;
    config.rounds = 24;
    config.seed = 99;

    static const std::uint64_t baseline = [config]() mutable {
        config.threads = 1;
        return test::goldenOf(runCaseStudyExperiment(config));
    }();

    config.threads = GetParam();
    EXPECT_TRUE(test::goldenMatches(
        test::goldenOf(runCaseStudyExperiment(config)), baseline))
        << "CaseStudy result diverges at pool size " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, PoolSizeDeterminism,
                         ::testing::ValuesIn(poolSizesUnderTest()));

TEST(ExperimentDeterminism, Fig4SeedSensitivity)
{
    Fig4Config config;
    config.numCodes = 4;
    config.wordsPerCode = 6;
    config.minPreCorrectionErrors = 3;
    config.maxPreCorrectionErrors = 3;
    config.threads = 2;

    config.seed = 1;
    const Fig4Result a = runFig4Experiment(config);
    config.seed = 2;
    const Fig4Result b = runFig4Experiment(config);
    // Different seeds draw different codes/faults: the sample sets
    // should differ (identical medians are astronomically unlikely to
    // co-occur with identical counts and means).
    const bool identical =
        a.rows[0].postCorrection.count() ==
            b.rows[0].postCorrection.count() &&
        a.rows[0].postCorrection.mean() ==
            b.rows[0].postCorrection.mean();
    EXPECT_FALSE(identical);
}

TEST(ExperimentDeterminism, CaseStudyRepeatableForFixedSeed)
{
    CaseStudyConfig config;
    config.perBitProbability = 0.75;
    config.samplesPerCellCount = 3;
    config.maxConditionedCells = 2;
    config.rounds = 16;
    config.seed = 11;
    config.threads = 4;
    const CaseStudyResult a = runCaseStudyExperiment(config);
    const CaseStudyResult b = runCaseStudyExperiment(config);
    ASSERT_EQ(a.series.size(), b.series.size());
    for (std::size_t s = 0; s < a.series.size(); ++s)
        EXPECT_EQ(a.series[s].berBefore, b.series[s].berBefore);
}

/** Absolute pin of a small Figs. 6-9 cell with the HARP-A+BEEP
 *  hybrid. */
TEST(ExperimentDeterminism, CoverageGolden)
{
    CoverageConfig config;
    config.numCodes = 3;
    config.wordsPerCode = 10;
    config.rounds = 24;
    config.numPreCorrectionErrors = 4;
    config.perBitProbability = 0.5;
    config.includeHarpABeep = true;
    config.seed = 2024;
    config.threads = 2;
    EXPECT_TRUE(test::goldenMatches(
        test::goldenOf(runCoverageExperiment(config)), 0x0EB39FF6802CD172ULL));
}

/** Absolute pin of a small Fig. 10 facet. */
TEST(ExperimentDeterminism, CaseStudyGolden)
{
    CaseStudyConfig config;
    config.perBitProbability = 0.75;
    config.samplesPerCellCount = 4;
    config.maxConditionedCells = 4;
    config.rounds = 24;
    config.seed = 2024;
    config.threads = 2;
    EXPECT_TRUE(test::goldenMatches(
        test::goldenOf(runCaseStudyExperiment(config)), 0x8F5C867C21AC1666ULL));
}

} // namespace
} // namespace harp::core
