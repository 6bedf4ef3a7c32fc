/**
 * @file
 * Unit tests for the active-profiling data patterns (HARP section 7.1.2).
 */

#include <gtest/gtest.h>

#include "core/data_pattern.hh"

namespace harp::core {
namespace {

TEST(DataPattern, Names)
{
    EXPECT_EQ(patternKindFromName("random"), PatternKind::Random);
    EXPECT_EQ(patternKindFromName("charged"), PatternKind::Charged);
    EXPECT_EQ(patternKindFromName("checkered"), PatternKind::Checkered);
    EXPECT_THROW(patternKindFromName("bogus"), std::invalid_argument);
}

TEST(DataPattern, ChargedIsAllOnesEveryRound)
{
    PatternGenerator gen(PatternKind::Charged, 64, 1);
    for (std::size_t r = 0; r < 6; ++r) {
        const gf2::BitVector p = gen.patternView(r);
        EXPECT_EQ(p.popcount(), 64u) << "round " << r;
    }
}

TEST(DataPattern, CheckeredAlternatesAndInverts)
{
    PatternGenerator gen(PatternKind::Checkered, 8, 1);
    const gf2::BitVector even = gen.patternView(0);
    EXPECT_EQ(even.toString(), "10101010");
    const gf2::BitVector odd = gen.patternView(1);
    EXPECT_EQ(odd.toString(), "01010101");
    // Pattern repeats with period 2.
    EXPECT_EQ(gen.patternView(2), even);
    EXPECT_EQ(gen.patternView(3), odd);
}

TEST(DataPattern, RandomInvertsEveryOtherRound)
{
    PatternGenerator gen(PatternKind::Random, 64, 7);
    gf2::BitVector ones(64);
    ones.fill(true);
    for (std::size_t r = 0; r < 8; r += 2) {
        const gf2::BitVector base = gen.patternView(r);
        gf2::BitVector inverted = gen.patternView(r + 1);
        inverted ^= ones;
        EXPECT_EQ(inverted, base) << "rounds " << r << "," << r + 1;
    }
}

TEST(DataPattern, RandomRefreshesAcrossPairs)
{
    PatternGenerator gen(PatternKind::Random, 64, 7);
    const gf2::BitVector first = gen.patternView(0);
    gen.patternView(1);
    const gf2::BitVector second = gen.patternView(2);
    EXPECT_NE(first, second); // 2^-64 collision chance
}

TEST(DataPattern, RandomDeterministicPerSeed)
{
    PatternGenerator a(PatternKind::Random, 64, 11);
    PatternGenerator b(PatternKind::Random, 64, 11);
    PatternGenerator c(PatternKind::Random, 64, 12);
    const gf2::BitVector pa = a.patternView(0);
    EXPECT_EQ(pa, b.patternView(0));
    EXPECT_NE(pa, c.patternView(0));
}

TEST(DataPattern, OddRoundReaderSeesInversesOfEveryRoundBases)
{
    // A reader that skips the even rounds draws each base on its odd
    // round, so the cached inverse must refresh with every new base.
    PatternGenerator every(PatternKind::Random, 64, 5);
    PatternGenerator odd_only(PatternKind::Random, 64, 5);
    gf2::BitVector ones(64);
    ones.fill(true);
    for (std::size_t r = 0; r < 12; r += 2) {
        const gf2::BitVector base = every.patternView(r);
        const gf2::BitVector every_odd = every.patternView(r + 1);
        gf2::BitVector odd = odd_only.patternView(r + 1);
        EXPECT_EQ(odd, every_odd) << "round " << r + 1;
        odd ^= ones;
        EXPECT_EQ(odd, base) << "round " << r + 1;
    }
}

TEST(DataPattern, InversionGuaranteesEveryCellChargedWithinPair)
{
    // The pattern/inverse pair charges every true-cell at least once —
    // the property that lets HARP's active phase observe every at-risk
    // data cell.
    PatternGenerator gen(PatternKind::Random, 64, 3);
    for (std::size_t pair = 0; pair < 4; ++pair) {
        gf2::BitVector coverage = gen.patternView(2 * pair);
        coverage |= gen.patternView(2 * pair + 1);
        EXPECT_EQ(coverage.popcount(), 64u);
    }
}

} // namespace
} // namespace harp::core
