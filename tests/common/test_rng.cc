/**
 * @file
 * Unit tests for the deterministic RNG and stream derivation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hh"

namespace harp::common {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Xoshiro256 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowIsInRange)
{
    Xoshiro256 rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Xoshiro256 rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextBelow(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Xoshiro256 rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        ASSERT_GE(x, 0.0);
        ASSERT_LT(x, 1.0);
        sum += x;
    }
    // Mean of U[0,1) over 10k samples: ~0.5 with stddev ~0.003.
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases)
{
    Xoshiro256 rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBernoulli(0.0));
        EXPECT_TRUE(rng.nextBernoulli(1.0));
    }
    // Out-of-range probabilities are clamped.
    EXPECT_FALSE(rng.nextBernoulli(-0.5));
    EXPECT_TRUE(rng.nextBernoulli(1.5));
}

TEST(Rng, BernoulliFrequency)
{
    Xoshiro256 rng(17);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.nextBernoulli(0.25) ? 1 : 0;
    // 4-sigma band around 0.25 for 20k trials (sigma ~ 0.0031).
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.013);
}

/** nextDouble()'s map from one raw draw, for draws chosen by hand. */
double
uniformOf(std::uint64_t draw)
{
    return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

TEST(Rng, BernoulliThresholdClampsAndScales)
{
    EXPECT_EQ(bernoulliThreshold(0.0), 0u);
    EXPECT_EQ(bernoulliThreshold(-0.0), 0u);
    EXPECT_EQ(bernoulliThreshold(-0.25), 0u);
    EXPECT_EQ(bernoulliThreshold(std::numeric_limits<double>::quiet_NaN()),
              0u);
    EXPECT_EQ(
        bernoulliThreshold(std::numeric_limits<double>::denorm_min()), 1u);
    EXPECT_EQ(bernoulliThreshold(std::nextafter(0x1.0p-53, 0.0)), 1u);
    EXPECT_EQ(bernoulliThreshold(0x1.0p-53), 1u);
    EXPECT_EQ(bernoulliThreshold(std::nextafter(0x1.0p-53, 1.0)), 2u);
    EXPECT_EQ(bernoulliThreshold(0.5), bernoulliScale / 2);
    EXPECT_EQ(bernoulliThreshold(std::nextafter(1.0, 0.0)),
              bernoulliScale - 1);
    EXPECT_EQ(bernoulliThreshold(1.0), bernoulliScale);
    EXPECT_EQ(bernoulliThreshold(2.0), bernoulliScale);
}

TEST(Rng, BernoulliThresholdMatchesNextDoubleOnEdgeProbabilities)
{
    const double edges[] = {0.0,
                            -0.0,
                            -0.25,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::denorm_min(),
                            std::nextafter(0x1.0p-53, 0.0),
                            0x1.0p-53,
                            std::nextafter(0x1.0p-53, 1.0),
                            0.5,
                            std::nextafter(1.0, 0.0),
                            1.0,
                            2.0};
    Xoshiro256 rng(23);
    for (const double p : edges) {
        const std::uint64_t threshold = bernoulliThreshold(p);
        // The 53-bit values on and around the threshold and at both
        // ends of the range, each with nonzero discarded low bits.
        std::vector<std::uint64_t> values = {0, 1, 2, bernoulliScale / 2,
                                             bernoulliScale - 2,
                                             bernoulliScale - 1};
        for (const std::uint64_t near : {threshold - 1, threshold,
                                         threshold + 1})
            if (near < bernoulliScale)
                values.push_back(near);
        std::vector<std::uint64_t> draws;
        for (const std::uint64_t value : values)
            draws.push_back((value << 11) | 0x5A5);
        for (int i = 0; i < 1000; ++i)
            draws.push_back(rng());
        for (const std::uint64_t draw : draws)
            ASSERT_EQ((draw >> 11) < threshold, uniformOf(draw) < p)
                << "p=" << p << " draw=" << draw;
    }
}

TEST(Rng, BernoulliThresholdMatchesNextDoubleOnRandomPairs)
{
    // Half the probabilities are uniform; the other half sit on, just
    // above or just below the value the next draw maps to, where a
    // rounding slip would show.
    Xoshiro256 draws(29);
    Xoshiro256 probs(31);
    std::size_t mismatches = 0;
    for (int i = 0; i < (1 << 20); ++i) {
        Xoshiro256 replay = draws;
        const double next = replay.nextDouble();
        double p = probs.nextDouble();
        if (i % 6 == 1)
            p = next;
        else if (i % 6 == 3)
            p = std::nextafter(next, 1.0);
        else if (i % 6 == 5)
            p = std::nextafter(next, 0.0);
        const bool fast = (draws() >> 11) < bernoulliThreshold(p);
        if (fast != (next < p) && mismatches++ == 0)
            ADD_FAILURE() << "first mismatch at p=" << p << " u=" << next;
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Rng, SplitMixDeterministic)
{
    std::uint64_t s1 = 99, s2 = 99;
    EXPECT_EQ(splitMix64(s1), splitMix64(s2));
    EXPECT_EQ(s1, s2);
}

TEST(Rng, DeriveSeedOrderSensitive)
{
    const std::uint64_t parent = 1234;
    EXPECT_NE(deriveSeed(parent, {1, 2}), deriveSeed(parent, {2, 1}));
    EXPECT_NE(deriveSeed(parent, {1}), deriveSeed(parent, {1, 0}));
    EXPECT_EQ(deriveSeed(parent, {3, 4}), deriveSeed(parent, {3, 4}));
}

TEST(Rng, DeriveSeedParentSensitive)
{
    EXPECT_NE(deriveSeed(1, {7}), deriveSeed(2, {7}));
}

TEST(Rng, DerivedStreamsLookIndependent)
{
    // Streams from adjacent keys should not be trivially correlated.
    Xoshiro256 a(deriveSeed(10, {0}));
    Xoshiro256 b(deriveSeed(10, {1}));
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_EQ(same, 0);
}

} // namespace
} // namespace harp::common
