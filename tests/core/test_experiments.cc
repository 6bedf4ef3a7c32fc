/**
 * @file
 * Integration tests for the experiment drivers: small configurations of
 * the coverage experiment (Figs. 6-9), the case study (Fig. 10), and the
 * Fig. 4 probability sweep. These assert the paper's headline orderings
 * on reduced Monte-Carlo samples.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/case_study_experiment.hh"
#include "core/coverage_experiment.hh"
#include "core/fig4_experiment.hh"

namespace harp::core {
namespace {

CoverageConfig
smallCoverageConfig()
{
    CoverageConfig config;
    config.numCodes = 4;
    config.wordsPerCode = 6;
    config.rounds = 64;
    config.numPreCorrectionErrors = 3;
    config.perBitProbability = 0.5;
    config.seed = 99;
    config.threads = 4;
    return config;
}

TEST(CoverageExperiment, ShapesAndInvariants)
{
    const CoverageConfig config = smallCoverageConfig();
    const CoverageResult result = runCoverageExperiment(config);
    ASSERT_EQ(result.profilers.size(), 4u);
    EXPECT_EQ(result.numWords,
              config.numCodes * config.wordsPerCode);
    EXPECT_GT(result.totalDirectAtRisk, 0u);
    for (const ProfilerAggregate &agg : result.profilers) {
        ASSERT_EQ(agg.directIdentifiedSum.size(), config.rounds);
        // Coverage curves are monotone non-decreasing.
        for (std::size_t r = 1; r < config.rounds; ++r) {
            EXPECT_GE(agg.directIdentifiedSum[r],
                      agg.directIdentifiedSum[r - 1])
                << agg.name;
            EXPECT_LE(agg.indirectMissedSum[r],
                      agg.indirectMissedSum[r - 1])
                << agg.name;
        }
        // Coverage never exceeds 1.
        EXPECT_LE(agg.directIdentifiedSum.back(),
                  result.totalDirectAtRisk);
        EXPECT_EQ(agg.bootstrapRounds.count(), result.numWords);
    }
}

TEST(CoverageExperiment, DeterministicAcrossThreadCounts)
{
    CoverageConfig config = smallCoverageConfig();
    config.threads = 1;
    const CoverageResult serial = runCoverageExperiment(config);
    config.threads = 8;
    const CoverageResult parallel = runCoverageExperiment(config);
    ASSERT_EQ(serial.profilers.size(), parallel.profilers.size());
    EXPECT_EQ(serial.totalDirectAtRisk, parallel.totalDirectAtRisk);
    for (std::size_t p = 0; p < serial.profilers.size(); ++p) {
        EXPECT_EQ(serial.profilers[p].directIdentifiedSum,
                  parallel.profilers[p].directIdentifiedSum);
        EXPECT_EQ(serial.profilers[p].indirectMissedSum,
                  parallel.profilers[p].indirectMissedSum);
    }
}

TEST(CoverageExperiment, HarpReachesFullDirectCoverage)
{
    const CoverageResult result =
        runCoverageExperiment(smallCoverageConfig());
    // Profiler order: Naive, BEEP, HARP-U, HARP-A.
    const double harp_u = result.directCoverage(2, 63);
    const double harp_a = result.directCoverage(3, 63);
    EXPECT_DOUBLE_EQ(harp_u, 1.0);
    EXPECT_DOUBLE_EQ(harp_a, 1.0);
}

TEST(CoverageExperiment, HarpDominatesBaselinesEveryRound)
{
    const CoverageResult result =
        runCoverageExperiment(smallCoverageConfig());
    for (std::size_t r = 0; r < result.config.rounds; ++r) {
        EXPECT_GE(result.directCoverage(2, r),
                  result.directCoverage(0, r))
            << "round " << r; // HARP-U >= Naive
        EXPECT_GE(result.directCoverage(2, r),
                  result.directCoverage(1, r))
            << "round " << r; // HARP-U >= BEEP
    }
}

TEST(CoverageExperiment, HarpABootstrapsNoSlowerThanNaive)
{
    const CoverageResult result =
        runCoverageExperiment(smallCoverageConfig());
    EXPECT_LE(result.profilers[2].bootstrapRounds.quantile(0.99),
              result.profilers[0].bootstrapRounds.quantile(0.99));
}

TEST(CoverageExperiment, HarpNeverExceedsOneSimultaneousError)
{
    // Fig. 9a: after 128 (here 64) rounds HARP words never admit > 1
    // simultaneous post-correction error.
    const CoverageResult result =
        runCoverageExperiment(smallCoverageConfig());
    for (const std::size_t profiler : {2u, 3u}) {
        const auto &hist =
            result.profilers[profiler].maxSimultaneousFinal;
        for (std::size_t bin = 2; bin < hist.numBins(); ++bin)
            EXPECT_EQ(hist.bin(bin), 0u)
                << result.profilers[profiler].name << " bin " << bin;
    }
}

TEST(CoverageExperiment, HarpAIndirectMissedBelowHarpU)
{
    const CoverageResult result =
        runCoverageExperiment(smallCoverageConfig());
    const std::size_t last = result.config.rounds - 1;
    // HARP-A's predictions reduce missed indirect errors vs HARP-U.
    EXPECT_LE(result.profilers[3].indirectMissedSum[last],
              result.profilers[2].indirectMissedSum[last]);
    // HARP-U identifies (almost) no indirect bits: missed stays near the
    // total.
    EXPECT_GT(result.profilers[2].indirectMissedSum[last], 0u);
}

TEST(CoverageExperiment, HarpABeepIncluded)
{
    CoverageConfig config = smallCoverageConfig();
    config.includeHarpABeep = true;
    config.wordsPerCode = 4;
    const CoverageResult result = runCoverageExperiment(config);
    ASSERT_EQ(result.profilers.size(), 5u);
    EXPECT_EQ(result.profilers[4].name, "HARP-A+BEEP");
    const std::size_t last = config.rounds - 1;
    // The hybrid misses no more indirect bits than plain HARP-A.
    EXPECT_LE(result.profilers[4].indirectMissedSum[last],
              result.profilers[3].indirectMissedSum[last]);
}

TEST(CoverageExperiment, ProbabilityOneIsInstantForHarp)
{
    CoverageConfig config = smallCoverageConfig();
    config.perBitProbability = 1.0;
    const CoverageResult result = runCoverageExperiment(config);
    // Pattern + inverse charge every cell within two rounds: full direct
    // coverage for HARP by round index 1.
    EXPECT_DOUBLE_EQ(result.directCoverage(2, 1), 1.0);
}

/** An empty sweep cell is a job error, not a crash or a 0/0 metric. */
TEST(CoverageExperiment, ZeroSizedConfigThrows)
{
    for (const auto zero :
         {&CoverageConfig::rounds, &CoverageConfig::numCodes,
          &CoverageConfig::wordsPerCode}) {
        CoverageConfig config = smallCoverageConfig();
        config.*zero = 0;
        EXPECT_THROW(runCoverageExperiment(config), std::invalid_argument);
    }
}

TEST(CaseStudy, ZeroSizedConfigThrows)
{
    for (const auto zero :
         {&CaseStudyConfig::rounds, &CaseStudyConfig::samplesPerCellCount,
          &CaseStudyConfig::maxConditionedCells}) {
        CaseStudyConfig config;
        config.samplesPerCellCount = 2;
        config.maxConditionedCells = 2;
        config.rounds = 4;
        config.*zero = 0;
        EXPECT_THROW(runCaseStudyExperiment(config), std::invalid_argument);
    }
}

TEST(CaseStudy, ShapesAndHeadlineOrdering)
{
    CaseStudyConfig config;
    config.perBitProbability = 0.75;
    config.samplesPerCellCount = 6;
    config.maxConditionedCells = 4;
    config.rounds = 64;
    config.seed = 7;
    config.threads = 4;
    const CaseStudyResult result = runCaseStudyExperiment(config);

    ASSERT_EQ(result.profilerNames.size(), 4u);
    ASSERT_EQ(result.series.size(),
              result.profilerNames.size() * config.rbers.size());
    ASSERT_EQ(result.roundsToZeroAfter.size(), 4u);

    // HARP variants reach zero post-reactive BER, and no later than
    // Naive; BEEP typically never does.
    const std::size_t naive = result.roundsToZeroAfter[0];
    const std::size_t harp_u = result.roundsToZeroAfter[2];
    const std::size_t harp_a = result.roundsToZeroAfter[3];
    EXPECT_LE(harp_u, config.rounds);
    EXPECT_LE(harp_a, config.rounds);
    EXPECT_LE(harp_u, naive);

    // BER curves are non-increasing and scale with RBER.
    for (const CaseStudySeries &s : result.series) {
        for (std::size_t r = 1; r < s.berBefore.size(); ++r) {
            EXPECT_LE(s.berBefore[r], s.berBefore[r - 1] + 1e-18);
            EXPECT_LE(s.berAfter[r], s.berAfter[r - 1] + 1e-18);
        }
    }
    // Higher RBER -> strictly larger initial BER for the same profiler.
    const CaseStudySeries &hi = result.series[0]; // Naive @ 1e-4
    const CaseStudySeries &lo = result.series[2]; // Naive @ 1e-8
    EXPECT_GT(hi.berBefore[0], lo.berBefore[0]);
}

TEST(CaseStudy, BinomialPmf)
{
    EXPECT_NEAR(binomialPmf(0, 10, 0.1), std::pow(0.9, 10), 1e-12);
    EXPECT_NEAR(binomialPmf(1, 10, 0.1),
                10 * 0.1 * std::pow(0.9, 9), 1e-12);
    EXPECT_DOUBLE_EQ(binomialPmf(11, 10, 0.1), 0.0);
    // PMF sums to 1.
    double sum = 0.0;
    for (std::size_t n = 0; n <= 10; ++n)
        sum += binomialPmf(n, 10, 0.3);
    EXPECT_NEAR(sum, 1.0, 1e-12);
    // Tiny p stays finite and positive.
    EXPECT_GT(binomialPmf(2, 71, 1e-8), 0.0);
    EXPECT_LT(binomialPmf(2, 71, 1e-8), 1e-11);
}

TEST(Fig4, DistributionsShiftTowardZero)
{
    Fig4Config config;
    config.numCodes = 6;
    config.wordsPerCode = 10;
    config.minPreCorrectionErrors = 2;
    config.maxPreCorrectionErrors = 6;
    config.seed = 3;
    config.threads = 4;
    const Fig4Result result = runFig4Experiment(config);
    ASSERT_EQ(result.rows.size(), 5u);

    for (const Fig4Row &row : result.rows) {
        EXPECT_GT(row.postCorrection.count(), 0u);
        // Pre-correction reference is exactly p = 0.5 for every cell.
        EXPECT_DOUBLE_EQ(row.preCorrection.quantile(0.0), 0.5);
        EXPECT_DOUBLE_EQ(row.preCorrection.quantile(1.0), 0.5);
        // Post-correction probabilities live in (0, 1).
        EXPECT_GT(row.postCorrection.quantile(0.0), 0.0);
        EXPECT_LT(row.postCorrection.quantile(1.0), 1.0);
    }
    // The paper's observation: medians shift toward zero as the number
    // of pre-correction errors grows (compare n=3 vs n=6).
    EXPECT_GT(result.rows[1].postCorrection.median(),
              result.rows[4].postCorrection.median());
}

} // namespace
} // namespace harp::core
