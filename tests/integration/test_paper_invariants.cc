/**
 * @file
 * Parameterized property suite encoding the paper's analytical claims as
 * machine-checked invariants, swept across code lengths, at-risk cell
 * counts, and per-bit probabilities:
 *
 *  - Equation 3: a post-correction error at bit i occurs iff (raw error
 *    at i) XOR (the decoder flipped i);
 *  - Table 2: at most 2^n - 1 bits are at risk of post-correction error;
 *  - section 3.2: every post-correction at-risk bit is direct-at-risk or
 *    indirect-at-risk;
 *  - section 6: with all direct-at-risk bits profiled, at most one
 *    (= the on-die correction capability) unprofiled error can occur at
 *    a time, and nothing remains unsafe for a SEC secondary ECC;
 *  - profiler soundness: no profiler identifies a bit the ground truth
 *    rules out (up to HARP-A/BEEP predictions, which must land in the
 *    ground-truth at-risk sets when their inputs are sound).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "core/at_risk_analyzer.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/round_engine.hh"
#include "ecc/hamming_code.hh"

namespace harp {
namespace {

/** (dataword length, at-risk cells, per-bit probability). */
using ParamTuple = std::tuple<std::size_t, std::size_t, double>;

class PaperInvariants : public ::testing::TestWithParam<ParamTuple>
{
  protected:
    std::size_t k() const { return std::get<0>(GetParam()); }
    std::size_t cells() const { return std::get<1>(GetParam()); }
    double prob() const { return std::get<2>(GetParam()); }

    std::uint64_t
    caseSeed() const
    {
        return common::deriveSeed(
            0xBADC0FFEE, {k(), cells(),
                          static_cast<std::uint64_t>(prob() * 100)});
    }
};

TEST_P(PaperInvariants, Equation3PostErrorDecomposition)
{
    common::Xoshiro256 rng(caseSeed());
    const ecc::HammingCode code = ecc::HammingCode::randomSec(k(), rng);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), cells(),
                                                     prob(), rng);
    for (int trial = 0; trial < 200; ++trial) {
        const gf2::BitVector d = gf2::BitVector::random(k(), rng);
        const gf2::BitVector stored = code.encode(d);
        const gf2::BitVector raw_errors = fm.injectErrors(stored, rng);
        gf2::BitVector received = stored;
        received ^= raw_errors;
        const ecc::DecodeResult decoded = code.decode(received);

        for (std::size_t i = 0; i < k(); ++i) {
            const bool post_error = decoded.dataword.get(i) != d.get(i);
            const bool raw = raw_errors.get(i);
            const bool flipped = decoded.correctedPosition &&
                                 *decoded.correctedPosition == i;
            // E_i = R_i xor (decoder flipped i)  (Equation 3).
            EXPECT_EQ(post_error, raw != flipped)
                << "bit " << i << " trial " << trial;
        }
    }
}

TEST_P(PaperInvariants, Table2AmplificationBound)
{
    common::Xoshiro256 rng(caseSeed() + 1);
    const ecc::HammingCode code = ecc::HammingCode::randomSec(k(), rng);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), cells(),
                                                     prob(), rng);
    const core::AtRiskAnalyzer analyzer(code, fm);
    EXPECT_LE(analyzer.postCorrectionAtRisk().popcount(),
              (std::size_t{1} << cells()) - 1);
}

TEST_P(PaperInvariants, PostCorrectionRiskIsDirectOrIndirect)
{
    common::Xoshiro256 rng(caseSeed() + 2);
    const ecc::HammingCode code = ecc::HammingCode::randomSec(k(), rng);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), cells(),
                                                     prob(), rng);
    const core::AtRiskAnalyzer analyzer(code, fm);
    gf2::BitVector either = analyzer.directAtRisk();
    either |= analyzer.indirectAtRisk();
    gf2::BitVector post = analyzer.postCorrectionAtRisk();
    gf2::BitVector overlap = post;
    overlap &= either;
    EXPECT_EQ(overlap, post);
}

TEST_P(PaperInvariants, DirectCoverageBoundsIndirectMultiplicity)
{
    // The paper's central safety theorem (sections 5.1/6.4).
    common::Xoshiro256 rng(caseSeed() + 3);
    const ecc::HammingCode code = ecc::HammingCode::randomSec(k(), rng);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), cells(),
                                                     prob(), rng);
    const core::AtRiskAnalyzer analyzer(code, fm);
    EXPECT_LE(analyzer.maxSimultaneousErrors(analyzer.directAtRisk()),
              1u);
    EXPECT_EQ(analyzer.unsafeBitsAfterReactive(analyzer.directAtRisk()),
              0u);
}

TEST_P(PaperInvariants, ProfilerSoundnessAfterProfiling)
{
    common::Xoshiro256 rng(caseSeed() + 4);
    const ecc::HammingCode code = ecc::HammingCode::randomSec(k(), rng);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), cells(),
                                                     prob(), rng);
    const core::AtRiskAnalyzer analyzer(code, fm);

    core::NaiveProfiler naive(code.k());
    core::HarpUProfiler harp_u(code.k());
    core::HarpAProfiler harp_a(code);
    core::RoundEngine engine(code, fm, core::PatternKind::Random,
                             caseSeed() + 5, {&naive, &harp_u, &harp_a});
    for (int r = 0; r < 48; ++r)
        engine.runRound();

    // Naive only reports observed post-correction errors.
    {
        gf2::BitVector sound = naive.identified();
        sound &= analyzer.postCorrectionAtRisk();
        EXPECT_EQ(sound, naive.identified());
    }
    // HARP-U only reports direct errors.
    {
        gf2::BitVector sound = harp_u.identified();
        sound &= analyzer.directAtRisk();
        EXPECT_EQ(sound, harp_u.identified());
    }
    // HARP-A reports direct errors plus sound indirect predictions.
    {
        gf2::BitVector either = analyzer.directAtRisk();
        either |= analyzer.indirectAtRisk();
        gf2::BitVector sound = harp_a.identified();
        sound &= either;
        EXPECT_EQ(sound, harp_a.identified());
    }
    // Monotone dominance: HARP-A contains HARP-U.
    {
        gf2::BitVector overlap = harp_u.identified();
        overlap &= harp_a.identified();
        EXPECT_EQ(overlap, harp_u.identified());
    }
}

TEST_P(PaperInvariants, HarpCoverageMonotoneAndComplete)
{
    common::Xoshiro256 rng(caseSeed() + 6);
    const ecc::HammingCode code = ecc::HammingCode::randomSec(k(), rng);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), cells(),
                                                     prob(), rng);
    const core::AtRiskAnalyzer analyzer(code, fm);
    core::HarpUProfiler harp(code.k());
    core::RoundEngine engine(code, fm, core::PatternKind::Random,
                             caseSeed() + 7, {&harp});
    std::size_t prev = 0;
    for (int r = 0; r < 96; ++r) {
        engine.runRound();
        const std::size_t now = harp.identified().popcount();
        EXPECT_GE(now, prev);
        prev = now;
    }
    if (prob() >= 0.5) {
        // 96 rounds at p >= 0.5 with inverting patterns: the chance any
        // direct cell is missed is <= 2^-48 per cell.
        gf2::BitVector covered = harp.identified();
        covered &= analyzer.directAtRisk();
        EXPECT_EQ(covered.popcount(),
                  analyzer.directAtRisk().popcount());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PaperInvariants,
    ::testing::Combine(::testing::Values<std::size_t>(16, 32, 64),
                       ::testing::Values<std::size_t>(2, 3, 5),
                       ::testing::Values(0.25, 0.5, 1.0)),
    [](const ::testing::TestParamInfo<ParamTuple> &info) {
        return "k" + std::to_string(std::get<0>(info.param)) + "_n" +
               std::to_string(std::get<1>(info.param)) + "_p" +
               std::to_string(static_cast<int>(
                   std::get<2>(info.param) * 100));
    });

} // namespace
} // namespace harp
