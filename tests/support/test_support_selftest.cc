/**
 * @file
 * Self-test for the tests/support mini-library: seeded fixtures,
 * golden-value hashing, and the property harness applied across all
 * three ECC families. Doubles as usage documentation for future PRs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "ecc/extended_hamming_code.hh"
#include "ecc/hamming_code.hh"
#include "support/bch_dec_code.hh"
#include "support/golden.hh"
#include "support/property.hh"
#include "support/seeded_fixture.hh"

namespace harp::test {
namespace {

class SupportSelfTest : public SeededTest
{
};

TEST_F(SupportSelfTest, SeedIsStableWithinATest)
{
    EXPECT_EQ(seed(), currentTestSeed());
    EXPECT_EQ(seed(), seed());
}

TEST_F(SupportSelfTest, ChildStreamsAreIndependent)
{
    common::Xoshiro256 a = makeRng(1);
    common::Xoshiro256 b = makeRng(2);
    // Distinct keys must give distinct streams (64-bit collision aside).
    EXPECT_NE(a(), b());
}

TEST_F(SupportSelfTest, GoldenHashIsOrderSensitive)
{
    const std::vector<std::uint64_t> forward{1, 2, 3};
    const std::vector<std::uint64_t> backward{3, 2, 1};
    EXPECT_NE(goldenOf(forward), goldenOf(backward));
    EXPECT_TRUE(goldenMatches(goldenOf(forward), goldenOf(forward)));
    EXPECT_FALSE(goldenMatches(goldenOf(forward), goldenOf(backward)));
}

TEST_F(SupportSelfTest, GoldenHashCoversBitVectorLength)
{
    // A zero vector of different length must hash differently.
    EXPECT_NE(goldenOf(gf2::BitVector(7)), goldenOf(gf2::BitVector(8)));
}

TEST_F(SupportSelfTest, SubsetAssertionReportsExtraPositions)
{
    const gf2::BitVector small = gf2::BitVector::fromIndices(8, {1, 3});
    const gf2::BitVector big = gf2::BitVector::fromIndices(8, {1, 3, 5});
    EXPECT_TRUE(isSubsetOf(small, big));
    EXPECT_FALSE(isSubsetOf(big, small));
    EXPECT_FALSE(isSubsetOf(small, gf2::BitVector(9)));
}

TEST(SupportProperty, HammingRoundTripAcrossSeeds)
{
    forEachSeed(16, [](std::uint64_t, common::Xoshiro256 &rng) {
        const ecc::HammingCode code = ecc::HammingCode::randomSec(64, rng);
        EXPECT_TRUE(roundTripsCleanly(code, rng));
    });
}

TEST(SupportProperty, ExtendedHammingRoundTripAcrossSeeds)
{
    forEachSeed(16, [](std::uint64_t, common::Xoshiro256 &rng) {
        const ecc::ExtendedHammingCode code =
            ecc::ExtendedHammingCode::randomSecDed(32, rng);
        EXPECT_TRUE(roundTripsCleanly(code, rng));
    });
}

TEST(SupportProperty, BchRoundTripAcrossSeeds)
{
    const ecc::BchDecCode code(64);
    forEachSeed(16, [&code](std::uint64_t, common::Xoshiro256 &rng) {
        EXPECT_TRUE(roundTripsCleanly(code, rng));
    });
}

TEST(SupportProperty, IdentifiedWithinAtRiskNamesProfiler)
{
    const gf2::BitVector identified = gf2::BitVector::fromIndices(4, {0, 2});
    const gf2::BitVector atRisk = gf2::BitVector::fromIndices(4, {0});
    const ::testing::AssertionResult result =
        identifiedWithinAtRisk(identified, atRisk, "HARP-U");
    EXPECT_FALSE(result);
    EXPECT_NE(std::string(result.message()).find("HARP-U"),
              std::string::npos);
}

} // namespace
} // namespace harp::test
