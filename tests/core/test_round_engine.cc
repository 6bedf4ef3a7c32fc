/**
 * @file
 * Unit tests for the round engine: determinism, common random numbers,
 * and the fairness guarantee across profilers.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/round_engine.hh"

namespace harp::core {
namespace {

ecc::HammingCode
makeCode(std::uint64_t seed = 1)
{
    common::Xoshiro256 rng(seed);
    return ecc::HammingCode::randomSec(64, rng);
}

TEST(RoundEngine, RoundCounterAdvances)
{
    const ecc::HammingCode code = makeCode();
    common::Xoshiro256 rng(2);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 2, 0.5,
                                                     rng);
    NaiveProfiler naive(code.k());
    RoundEngine engine(code, fm, PatternKind::Random, 7, {&naive});
    EXPECT_EQ(engine.roundsRun(), 0u);
    engine.runRound();
    engine.runRound();
    EXPECT_EQ(engine.roundsRun(), 2u);
}

TEST(RoundEngine, DeterministicForFixedSeed)
{
    const ecc::HammingCode code = makeCode();
    common::Xoshiro256 rng(3);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 3, 0.5,
                                                     rng);

    auto run = [&](std::uint64_t seed) {
        HarpUProfiler harp(code.k());
        RoundEngine engine(code, fm, PatternKind::Random, seed, {&harp});
        for (int r = 0; r < 32; ++r)
            engine.runRound();
        return harp.identified();
    };
    EXPECT_EQ(run(11), run(11));
}

TEST(RoundEngine, DifferentSeedsDifferentHistories)
{
    const ecc::HammingCode code = makeCode();
    common::Xoshiro256 rng(4);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 3, 0.5,
                                                     rng);
    // Early identification histories differ across seeds with high
    // probability; compare the 4-round profile over several seeds.
    int distinct = 0;
    std::optional<gf2::BitVector> prev;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        HarpUProfiler harp(code.k());
        RoundEngine engine(code, fm, PatternKind::Random, seed, {&harp});
        for (int r = 0; r < 4; ++r)
            engine.runRound();
        if (prev && !(harp.identified() == *prev))
            ++distinct;
        prev = harp.identified();
    }
    EXPECT_GT(distinct, 0);
}

TEST(RoundEngine, IdenticalProfilersGetIdenticalObservations)
{
    // Two HARP-U instances run side by side must build identical
    // profiles: common random numbers + same suggested patterns.
    const ecc::HammingCode code = makeCode(5);
    common::Xoshiro256 rng(5);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 4, 0.5,
                                                     rng);
    HarpUProfiler a(code.k()), b(code.k());
    NaiveProfiler naive(code.k());
    RoundEngine engine(code, fm, PatternKind::Random, 13,
                       {&a, &naive, &b});
    for (int r = 0; r < 32; ++r) {
        engine.runRound();
        EXPECT_EQ(a.identified(), b.identified()) << "round " << r;
    }
}

TEST(RoundEngine, CrnMakesNaiveObservationsSubsetOfHarp)
{
    // Under common random numbers with identical patterns, every raw
    // error Naive could have seen post-correction stems from the same
    // failures HARP sees raw: Naive's identified set (excluding
    // miscorrection positions) is contained in HARP-U's.
    const ecc::HammingCode code = makeCode(6);
    common::Xoshiro256 rng(6);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 3, 0.5,
                                                     rng);
    NaiveProfiler naive(code.k());
    HarpUProfiler harp(code.k());
    RoundEngine engine(code, fm, PatternKind::Random, 17, {&naive, &harp});
    gf2::BitVector direct_gt(code.k());
    for (const auto &f : fm.faults())
        if (f.position < code.k())
            direct_gt.set(f.position, true);
    for (int r = 0; r < 64; ++r)
        engine.runRound();
    gf2::BitVector naive_direct = naive.identified();
    naive_direct &= direct_gt;
    gf2::BitVector overlap = naive_direct;
    overlap &= harp.identified();
    EXPECT_EQ(overlap, naive_direct);
}

TEST(RoundEngine, ChargedPatternOnlyExcitesChargedCells)
{
    // With the all-ones pattern, parity cells that encode to '0' can
    // never fail; a HARP profile after many rounds contains only data
    // positions (trivially, since profiles are data-side) and exactly
    // the at-risk data cells.
    const ecc::HammingCode code = makeCode(7);
    const fault::WordFaultModel fm(code.n(),
                                   {{2, 1.0}, {40, 1.0}});
    HarpUProfiler harp(code.k());
    RoundEngine engine(code, fm, PatternKind::Charged, 19, {&harp});
    engine.runRound();
    EXPECT_EQ(harp.identified().setBits(),
              (std::vector<std::size_t>{2, 40}));
}

TEST(RoundEngine, RejectsMismatchedFaultModelAndProfilers)
{
    // A fault model for a wider word would inject past the codeword,
    // and a profiler of another dataword length would misread every
    // observation: both are rejected up front, in every build type.
    const ecc::HammingCode code = makeCode(8);
    common::Xoshiro256 rng(8);
    const fault::WordFaultModel wide =
        fault::WordFaultModel::makeUniformFixedCount(code.n() + 128, 3,
                                                     0.5, rng);
    const fault::WordFaultModel fits =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 3, 0.5,
                                                     rng);
    HarpUProfiler harp(code.k());
    HarpUProfiler short_k(code.k() / 2);
    EXPECT_THROW(RoundEngine(code, wide, PatternKind::Random, 1, {&harp}),
                 std::invalid_argument);
    EXPECT_THROW(
        RoundEngine(code, fits, PatternKind::Random, 1, {&harp, &short_k}),
        std::invalid_argument);
    EXPECT_NO_THROW(RoundEngine(code, fits, PatternKind::Random, 1, {&harp}));
}

} // namespace
} // namespace harp::core
