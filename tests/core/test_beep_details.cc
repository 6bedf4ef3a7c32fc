/**
 * @file
 * Focused tests of BEEP's pattern-crafting machinery and the
 * HARP-A+BEEP hybrid's phase switching.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/beep_profiler.hh"
#include "core/harp_a_beep_profiler.hh"
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

TEST(BeepDetails, NoCraftingBeforeFirstError)
{
    const ecc::HammingCode code = makeCode();
    BeepProfiler beep(code);
    gf2::BitVector out;
    for (std::size_t r = 0; r < 5; ++r)
        EXPECT_FALSE(beep.craftDataword(out)) << "round " << r;
    EXPECT_TRUE(beep.suspectedCells().empty());
}

TEST(BeepDetails, CraftedPatternChargesParitySuspects)
{
    const ecc::HammingCode code = makeCode(3);
    BeepProfiler beep(code);
    // Suspect one data cell and one parity cell.
    beep.addSuspectedCell(12);
    beep.addSuspectedCell(66); // parity position (>= 64)
    gf2::BitVector chosen;
    ASSERT_TRUE(beep.craftDataword(chosen));
    EXPECT_TRUE(chosen.get(12));
    // The parity cell must be charged under the crafted dataword.
    const gf2::BitVector codeword = code.encode(chosen);
    EXPECT_TRUE(codeword.get(66));
}

TEST(BeepDetails, ProbeCursorCyclesThroughPositions)
{
    // Consecutive crafted patterns target different probe cells, so the
    // set of charged data cells varies across rounds.
    const ecc::HammingCode code = makeCode(5);
    BeepProfiler beep(code);
    beep.addSuspectedCell(3);
    gf2::BitVector chosen;
    std::set<std::vector<std::size_t>> distinct;
    for (std::size_t r = 0; r < 8; ++r) {
        ASSERT_TRUE(beep.craftDataword(chosen)) << "round " << r;
        distinct.insert(chosen.setBits());
    }
    EXPECT_GE(distinct.size(), 6u);
}

TEST(BeepDetails, PrecomputeAddsPairTargets)
{
    const ecc::HammingCode code = makeCode(7);
    BeepProfiler beep(code);
    // Find a data pair whose syndrome maps to a third data position.
    std::size_t a = 0, b = 0, target = 0;
    bool found = false;
    for (std::size_t i = 0; i < 64 && !found; ++i) {
        for (std::size_t j = i + 1; j < 64 && !found; ++j) {
            const auto t = code.syndromeToPosition(
                code.dataColumn(i) ^ code.dataColumn(j));
            if (t && *t < 64) {
                a = i;
                b = j;
                target = *t;
                found = true;
            }
        }
    }
    ASSERT_TRUE(found);
    // Observation of {a, b} as post-correction errors must pre-add the
    // miscorrection target to the profile.
    gf2::BitVector written(64);
    gf2::BitVector post = written;
    post.flip(a);
    post.flip(b);
    const RoundObservation obs{written, post, written};
    beep.observe(obs);
    EXPECT_TRUE(beep.identified().get(target));
}

TEST(BeepDetails, ObservationOfNothingChangesNothing)
{
    const ecc::HammingCode code = makeCode(9);
    BeepProfiler beep(code);
    gf2::BitVector written(64);
    const RoundObservation obs{written, written, written};
    beep.observe(obs);
    EXPECT_TRUE(beep.identified().isZero());
    EXPECT_TRUE(beep.suspectedCells().empty());
}

TEST(HybridDetails, CraftingEngagesAfterStabilityWindow)
{
    const ecc::HammingCode code = makeCode(11);
    HarpABeepProfiler hybrid(code, /*stability_window=*/4);
    EXPECT_FALSE(hybrid.craftingActive());

    // Rounds with no direct errors: window counts up.
    gf2::BitVector written(64);
    for (int r = 0; r < 4; ++r) {
        const RoundObservation obs{written, written, written};
        hybrid.observe(obs);
    }
    EXPECT_TRUE(hybrid.craftingActive());

    // A fresh direct error resets the window.
    gf2::BitVector raw = written;
    raw.flip(20);
    const RoundObservation with_error{written, written, raw};
    hybrid.observe(with_error);
    EXPECT_FALSE(hybrid.craftingActive());
    EXPECT_TRUE(hybrid.identifiedDirect().get(20));
    EXPECT_EQ(hybrid.suspectedCells().count(20), 1u);

    // Re-observing the same (already known) direct error does not reset.
    for (int r = 0; r < 4; ++r) {
        const RoundObservation obs{written, written, raw};
        hybrid.observe(obs);
    }
    EXPECT_TRUE(hybrid.craftingActive());
}

TEST(HybridDetails, FullRunKeepsDirectCoverageDespiteCrafting)
{
    // Even after switching to crafted patterns, the bypass path keeps
    // direct identification sound and the profile monotone.
    const ecc::HammingCode code = makeCode(13);
    common::Xoshiro256 rng(14);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 4, 0.75,
                                                     rng);
    HarpABeepProfiler hybrid(code, 4);
    RoundEngine engine(code, fm, PatternKind::Random, 15, {&hybrid});
    std::size_t prev = 0;
    for (int r = 0; r < 64; ++r) {
        engine.runRound();
        EXPECT_GE(hybrid.identified().popcount(), prev);
        prev = hybrid.identified().popcount();
    }
    // All direct-at-risk data cells must be identified at p=0.75 in 64
    // rounds (the pre-crafting phase alone charges each cell ~16 times).
    gf2::BitVector direct_gt(code.k());
    for (const auto &f : fm.faults())
        if (f.position < code.k())
            direct_gt.set(f.position, true);
    gf2::BitVector covered = hybrid.identifiedDirect();
    covered &= direct_gt;
    EXPECT_EQ(covered, direct_gt);
}

} // namespace
} // namespace harp::core
