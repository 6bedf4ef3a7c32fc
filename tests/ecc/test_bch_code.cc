/**
 * @file
 * Unit, property, and parameterized tests for the double-error-correcting
 * BCH code (the stronger-on-die-ECC extension). The decisive properties:
 * every 1- and 2-bit error pattern is corrected exactly; >= 3-bit
 * patterns either flag uncorrectable or miscorrect by at most t = 2
 * flips — which is what bounds HARP's concurrent indirect errors at 2.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "support/bch_dec_code.hh"

namespace harp::ecc {
namespace {

TEST(BchDecCode, Geometry64)
{
    const BchDecCode code(64);
    EXPECT_EQ(code.k(), 64u);
    EXPECT_EQ(code.field().m(), 7u);
    EXPECT_EQ(code.p(), 14u); // deg m1 + deg m3 = 7 + 7
    EXPECT_EQ(code.n(), 78u); // shortened BCH(127,113) -> (78,64)
}

TEST(BchDecCode, GeneratorDividesCodewords)
{
    // Every encoded word, viewed as a polynomial, must be divisible by
    // g(x): check via syndrome-free decode over random datawords.
    const BchDecCode code(32);
    common::Xoshiro256 rng(1);
    for (int trial = 0; trial < 50; ++trial) {
        const gf2::BitVector d = gf2::BitVector::random(32, rng);
        const BchDecodeResult r = code.decode(code.encode(d));
        EXPECT_EQ(r.dataword, d);
        EXPECT_TRUE(r.correctedPositions.empty());
        EXPECT_FALSE(r.detectedUncorrectable);
    }
}

TEST(BchDecCode, SystematicEncoding)
{
    const BchDecCode code(64);
    common::Xoshiro256 rng(2);
    for (int trial = 0; trial < 20; ++trial) {
        const gf2::BitVector d = gf2::BitVector::random(64, rng);
        EXPECT_EQ(code.encode(d).slice(0, 64), d);
    }
}

TEST(BchDecCode, ParityRowsMatchEncoder)
{
    const BchDecCode code(48);
    common::Xoshiro256 rng(3);
    const gf2::BitVector d = gf2::BitVector::random(48, rng);
    const gf2::BitVector c = code.encode(d);
    for (std::size_t j = 0; j < code.p(); ++j)
        EXPECT_EQ(c.get(code.k() + j), code.parityRow(j).dot(d));
}

TEST(BchDecCode, LinearityOfEncoding)
{
    const BchDecCode code(64);
    common::Xoshiro256 rng(4);
    const gf2::BitVector a = gf2::BitVector::random(64, rng);
    const gf2::BitVector b = gf2::BitVector::random(64, rng);
    gf2::BitVector sum = a;
    sum ^= b;
    gf2::BitVector expected = code.encode(a);
    expected ^= code.encode(b);
    EXPECT_EQ(code.encode(sum), expected);
}

class BchSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BchSweep, EverySingleErrorCorrected)
{
    const BchDecCode code(GetParam());
    common::Xoshiro256 rng(100 + GetParam());
    const gf2::BitVector d = gf2::BitVector::random(code.k(), rng);
    const gf2::BitVector clean = code.encode(d);
    for (std::size_t pos = 0; pos < code.n(); ++pos) {
        gf2::BitVector c = clean;
        c.flip(pos);
        const BchDecodeResult r = code.decode(c);
        EXPECT_EQ(r.dataword, d) << "error at " << pos;
        ASSERT_EQ(r.correctedPositions.size(), 1u);
        EXPECT_EQ(r.correctedPositions[0], pos);
    }
}

TEST_P(BchSweep, EveryDoubleErrorCorrected)
{
    const BchDecCode code(GetParam());
    common::Xoshiro256 rng(200 + GetParam());
    const gf2::BitVector d = gf2::BitVector::random(code.k(), rng);
    const gf2::BitVector clean = code.encode(d);
    // Exhaustive over all pairs for small codes, sampled for larger.
    const bool exhaustive = code.n() <= 40;
    auto check = [&](std::size_t i, std::size_t j) {
        gf2::BitVector c = clean;
        c.flip(i);
        c.flip(j);
        const BchDecodeResult r = code.decode(c);
        EXPECT_EQ(r.dataword, d) << "errors at " << i << "," << j;
        ASSERT_EQ(r.correctedPositions.size(), 2u);
        EXPECT_EQ(r.correctedPositions[0], std::min(i, j));
        EXPECT_EQ(r.correctedPositions[1], std::max(i, j));
    };
    if (exhaustive) {
        for (std::size_t i = 0; i < code.n(); ++i)
            for (std::size_t j = i + 1; j < code.n(); ++j)
                check(i, j);
    } else {
        for (int s = 0; s < 400; ++s) {
            const std::size_t i = rng.nextBelow(code.n());
            std::size_t j = rng.nextBelow(code.n());
            while (j == i)
                j = rng.nextBelow(code.n());
            check(i, j);
        }
    }
}

TEST_P(BchSweep, TripleErrorsNeverFlipMoreThanTwo)
{
    // The generalized HARP bound: a t=2 decoder can add at most 2
    // erroneous flips (indirect errors), no matter the input pattern.
    const BchDecCode code(GetParam());
    common::Xoshiro256 rng(300 + GetParam());
    const gf2::BitVector d = gf2::BitVector::random(code.k(), rng);
    const gf2::BitVector clean = code.encode(d);
    int miscorrections = 0, detected = 0;
    for (int trial = 0; trial < 300; ++trial) {
        gf2::BitVector c = clean;
        std::set<std::size_t> errors;
        while (errors.size() < 3)
            errors.insert(rng.nextBelow(code.n()));
        for (const std::size_t pos : errors)
            c.flip(pos);
        const BchDecodeResult r = code.decode(c);
        EXPECT_LE(r.correctedPositions.size(), 2u);
        if (r.detectedUncorrectable) {
            ++detected;
            EXPECT_TRUE(r.correctedPositions.empty());
        } else if (!r.correctedPositions.empty()) {
            ++miscorrections;
        }
    }
    // Both behaviours occur for triple errors in a shortened DEC code.
    EXPECT_GT(detected, 0);
    EXPECT_GT(miscorrections, 0);
}

INSTANTIATE_TEST_SUITE_P(DatawordLengths, BchSweep,
                         ::testing::Values(16, 32, 64, 128));

TEST(BchDecCode, DecodeErrorPatternMatchesFullDecode)
{
    const BchDecCode code(64);
    common::Xoshiro256 rng(5);
    for (int trial = 0; trial < 100; ++trial) {
        const gf2::BitVector d = gf2::BitVector::random(64, rng);
        std::set<std::size_t> errors;
        const std::size_t count = 1 + rng.nextBelow(4);
        while (errors.size() < count)
            errors.insert(rng.nextBelow(code.n()));
        gf2::BitVector c = code.encode(d);
        for (const std::size_t pos : errors)
            c.flip(pos);
        const BchDecodeResult full = code.decode(c);
        gf2::BitVector diff = full.dataword;
        diff ^= d;
        EXPECT_EQ(diff.setBits(),
                  code.decodeErrorPattern(std::vector<std::size_t>(
                      errors.begin(), errors.end())))
            << "trial " << trial;
    }
}

TEST(BchDecCode, StrictlyStrongerThanHamming)
{
    // Sanity comparison: on the same double-error patterns the SEC
    // Hamming code miscorrects or leaves errors; the DEC BCH corrects.
    const BchDecCode bch(64);
    common::Xoshiro256 rng(6);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    const gf2::BitVector clean = bch.encode(d);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t i = rng.nextBelow(bch.n());
        std::size_t j = rng.nextBelow(bch.n());
        while (j == i)
            j = rng.nextBelow(bch.n());
        gf2::BitVector c = clean;
        c.flip(i);
        c.flip(j);
        EXPECT_EQ(bch.decode(c).dataword, d);
    }
}

} // namespace
} // namespace harp::ecc
