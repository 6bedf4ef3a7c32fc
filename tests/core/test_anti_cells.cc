/**
 * @file
 * Anti-cell coverage: the paper's evaluation assumes true-cells
 * (section 7.1.2), but real DRAM mixes true- and anti-cell regions. The
 * fault model, analyzer, and profilers must all honour the inverted
 * charge polarity.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/at_risk_analyzer.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/round_engine.hh"
#include "ecc/hamming_code.hh"

namespace harp::core {
namespace {

ecc::HammingCode
makeCode(std::uint64_t seed = 1)
{
    common::Xoshiro256 rng(seed);
    return ecc::HammingCode::randomSec(64, rng);
}

fault::WordFaultModel
antiModel(const ecc::HammingCode &code, std::size_t cells, double prob,
          std::uint64_t seed)
{
    common::Xoshiro256 rng(seed);
    const fault::WordFaultModel placement =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), cells,
                                                     prob, rng);
    return fault::WordFaultModel(code.n(), placement.faults(),
                                 fault::CellTechnology::AntiCell);
}

TEST(AntiCells, ChargedPatternIsHarmlessToAntiCells)
{
    // All-ones data discharges anti-cells in the data region: at-risk
    // data cells cannot fail under the charged pattern.
    const ecc::HammingCode code = makeCode(2);
    const fault::WordFaultModel fm(
        code.n(), {{5, 1.0}, {30, 1.0}},
        fault::CellTechnology::AntiCell);
    HarpUProfiler harp(code.k());
    RoundEngine engine(code, fm, PatternKind::Charged, 3, {&harp});
    for (int r = 0; r < 16; ++r)
        engine.runRound();
    EXPECT_TRUE(harp.identified().isZero());
}

TEST(AntiCells, InvertingPatternsStillCoverEverything)
{
    // Random + inversion charges every cell (of either polarity) once
    // per pattern pair, so HARP coverage is polarity-independent.
    for (std::uint64_t seed = 10; seed < 16; ++seed) {
        const ecc::HammingCode code = makeCode(seed);
        const fault::WordFaultModel fm =
            antiModel(code, 4, 1.0, seed + 100);
        const AtRiskAnalyzer analyzer(code, fm);
        HarpUProfiler harp(code.k());
        RoundEngine engine(code, fm, PatternKind::Random, seed + 200,
                           {&harp});
        for (int r = 0; r < 2; ++r)
            engine.runRound();
        gf2::BitVector covered = harp.identified();
        covered &= analyzer.directAtRisk();
        EXPECT_EQ(covered.popcount(),
                  analyzer.directAtRisk().popcount())
            << "seed " << seed;
    }
}

TEST(AntiCells, AnalyzerFeasibilityRespectsPolarity)
{
    // A probability-1 anti-cell outside the failing pattern must be
    // *charged-off*, i.e.\ store '1'; the analyzer's feasibility
    // constraints must use the inverted encoding.
    const ecc::HammingCode code = makeCode(4);
    const fault::WordFaultModel fm(
        code.n(), {{0, 1.0}, {1, 1.0}},
        fault::CellTechnology::AntiCell);
    const AtRiskAnalyzer analyzer(code, fm);
    // All three nonempty subsets remain feasible (data cells are freely
    // settable in either polarity).
    EXPECT_EQ(analyzer.outcomes().size(), 3u);
    EXPECT_EQ(analyzer.directAtRisk().popcount(), 2u);
}

TEST(AntiCells, PerBitProbabilityInvertsWithPattern)
{
    const ecc::HammingCode code = makeCode(5);
    const fault::WordFaultModel fm(
        code.n(), {{3, 0.5}, {7, 0.5}},
        fault::CellTechnology::AntiCell);
    const AtRiskAnalyzer analyzer(code, fm);

    // All-ones pattern: anti data cells discharged -> zero probability.
    gf2::BitVector ones(code.k());
    ones.fill(true);
    for (const double p : analyzer.perBitErrorProbability(ones))
        EXPECT_DOUBLE_EQ(p, 0.0);

    // All-zero pattern: anti data cells charged; the two at-risk cells
    // produce the n=2 signature (each visible when both fail: p = 0.25),
    // unless the pair syndrome hits parity/no column.
    const gf2::BitVector zeros(code.k());
    const std::vector<double> probs =
        analyzer.perBitErrorProbability(zeros);
    EXPECT_GT(probs[3] + probs[7], 0.0);
}

TEST(AntiCells, NaiveAndHarpOrderingUnchanged)
{
    std::size_t naive_total = 0, harp_total = 0, gt_total = 0;
    for (std::uint64_t seed = 20; seed < 28; ++seed) {
        const ecc::HammingCode code = makeCode(seed);
        const fault::WordFaultModel fm =
            antiModel(code, 3, 0.5, seed + 100);
        const AtRiskAnalyzer analyzer(code, fm);
        NaiveProfiler naive(code.k());
        HarpUProfiler harp(code.k());
        RoundEngine engine(code, fm, PatternKind::Random, seed + 200,
                           {&naive, &harp});
        for (int r = 0; r < 32; ++r)
            engine.runRound();
        gf2::BitVector n_cov = naive.identified();
        n_cov &= analyzer.directAtRisk();
        gf2::BitVector h_cov = harp.identified();
        h_cov &= analyzer.directAtRisk();
        naive_total += n_cov.popcount();
        harp_total += h_cov.popcount();
        gt_total += analyzer.directAtRisk().popcount();
    }
    EXPECT_EQ(harp_total, gt_total);
    EXPECT_LE(naive_total, harp_total);
}

} // namespace
} // namespace harp::core
