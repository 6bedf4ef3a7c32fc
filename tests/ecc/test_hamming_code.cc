/**
 * @file
 * Unit, property, and parameterized tests for the systematic SEC Hamming
 * code implementation (on-die ECC model).
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "ecc/hamming_code.hh"
#include "gf2/bit_matrix.hh"

namespace harp::ecc {
namespace {

/** The k=4 example code from the paper's Equation 1. */
HammingCode
paperExampleCode()
{
    // H rows: 1110100 / 1101010 / 1011001 -> data columns (LSB = row 0):
    // col0 = 111b, col1 = 011b, col2 = 101b, col3 = 110b.
    return HammingCode(4, {0b111, 0b011, 0b101, 0b110});
}

TEST(HammingCode, MinParityBits)
{
    EXPECT_EQ(HammingCode::minParityBits(1), 2u);
    EXPECT_EQ(HammingCode::minParityBits(4), 3u);
    EXPECT_EQ(HammingCode::minParityBits(11), 4u);
    EXPECT_EQ(HammingCode::minParityBits(26), 5u);
    EXPECT_EQ(HammingCode::minParityBits(57), 6u);
    EXPECT_EQ(HammingCode::minParityBits(64), 7u);   // (71, 64)
    EXPECT_EQ(HammingCode::minParityBits(120), 7u);
    EXPECT_EQ(HammingCode::minParityBits(128), 8u);  // (136, 128)
}

TEST(HammingCode, PaperExampleEncode)
{
    const HammingCode code = paperExampleCode();
    EXPECT_EQ(code.k(), 4u);
    EXPECT_EQ(code.p(), 3u);
    EXPECT_EQ(code.n(), 7u);
    // G^T row 0 in Equation 1: d = 1000 -> c = 1000111.
    const gf2::BitVector d = gf2::BitVector::fromUint(0b0001, 4);
    const gf2::BitVector c = code.encode(d);
    EXPECT_EQ(c.toString(), "1000111");
}

TEST(HammingCode, GeneratorAnnihilatedByParityCheck)
{
    common::Xoshiro256 rng(2);
    for (int trial = 0; trial < 5; ++trial) {
        const HammingCode code = HammingCode::randomSec(16, rng);
        const gf2::BitMatrix product =
            code.parityCheckMatrix().multiply(code.generatorMatrix());
        for (std::size_t r = 0; r < product.rows(); ++r)
            EXPECT_TRUE(product.row(r).isZero());
    }
}

TEST(HammingCode, RejectsBadColumns)
{
    EXPECT_THROW(HammingCode(2, {0b11}), std::invalid_argument);  // count
    EXPECT_THROW(HammingCode(2, {0b11, 0b11}),
                 std::invalid_argument);                          // dup
    EXPECT_THROW(HammingCode(2, {0b11, 0b01}),
                 std::invalid_argument);                          // weight 1
    EXPECT_THROW(HammingCode(2, {0b11, 0}), std::invalid_argument); // zero
    EXPECT_THROW(HammingCode(2, {0b11, 0b1000}),
                 std::invalid_argument);                          // range
    EXPECT_THROW(HammingCode(0, {}), std::invalid_argument);      // k = 0
    common::Xoshiro256 rng(1);
    EXPECT_THROW(HammingCode::randomSec(0, rng), std::invalid_argument);
}

TEST(HammingCode, SystematicEncodingPreservesData)
{
    common::Xoshiro256 rng(3);
    const HammingCode code = HammingCode::randomSec(64, rng);
    for (int trial = 0; trial < 20; ++trial) {
        const gf2::BitVector d = gf2::BitVector::random(64, rng);
        const gf2::BitVector c = code.encode(d);
        EXPECT_EQ(c.slice(0, 64), d);
    }
}

TEST(HammingCode, CleanDecodeRoundTrip)
{
    common::Xoshiro256 rng(5);
    const HammingCode code = HammingCode::randomSec(64, rng);
    for (int trial = 0; trial < 20; ++trial) {
        const gf2::BitVector d = gf2::BitVector::random(64, rng);
        const DecodeResult r = code.decode(code.encode(d));
        EXPECT_EQ(r.dataword, d);
        EXPECT_FALSE(r.correctedPosition.has_value());
        EXPECT_FALSE(r.detectedUncorrectable);
        EXPECT_EQ(r.syndrome, 0u);
    }
}

TEST(HammingCode, SyndromeToPositionInvertsColumns)
{
    common::Xoshiro256 rng(7);
    const HammingCode code = HammingCode::randomSec(64, rng);
    for (std::size_t pos = 0; pos < code.n(); ++pos) {
        const auto inverse =
            code.syndromeToPosition(code.codewordColumn(pos));
        ASSERT_TRUE(inverse.has_value());
        EXPECT_EQ(*inverse, pos);
    }
    EXPECT_FALSE(code.syndromeToPosition(0).has_value());
}

TEST(HammingCode, SyndromeOfErrorsMatchesDecodePath)
{
    common::Xoshiro256 rng(9);
    const HammingCode code = HammingCode::randomSec(32, rng);
    const gf2::BitVector d = gf2::BitVector::random(32, rng);
    gf2::BitVector c = code.encode(d);
    const std::vector<std::size_t> errors = {3, 17, 35};
    for (const std::size_t e : errors)
        c.flip(e);
    EXPECT_EQ(code.syndrome(c), code.syndromeOfErrors(errors));
}

TEST(HammingCode, DoubleErrorNeverCorrectsEitherVictim)
{
    // For distinct columns a, b: a ^ b != a and != b, so syndrome
    // decoding can never land on one of the two true error positions.
    common::Xoshiro256 rng(11);
    const HammingCode code = HammingCode::randomSec(16, rng);
    for (std::size_t i = 0; i < code.n(); ++i) {
        for (std::size_t j = i + 1; j < code.n(); ++j) {
            const std::uint32_t s = code.codewordColumn(i) ^
                                    code.codewordColumn(j);
            const auto target = code.syndromeToPosition(s);
            if (target) {
                EXPECT_NE(*target, i);
                EXPECT_NE(*target, j);
            }
        }
    }
}

TEST(HammingCode, DoubleErrorOutcomesMatchEnumeration)
{
    common::Xoshiro256 rng(13);
    const HammingCode code = HammingCode::randomSec(16, rng);
    const gf2::BitVector d = gf2::BitVector::random(16, rng);
    int miscorrections = 0, silent = 0, parity_fix = 0;
    for (std::size_t i = 0; i < code.n(); ++i) {
        for (std::size_t j = i + 1; j < code.n(); ++j) {
            gf2::BitVector c = code.encode(d);
            c.flip(i);
            c.flip(j);
            const DecodeResult r = code.decode(c);
            // Expected post-correction data errors.
            gf2::BitVector expected = d;
            if (i < code.k())
                expected.flip(i);
            if (j < code.k())
                expected.flip(j);
            const std::uint32_t s = code.codewordColumn(i) ^
                                    code.codewordColumn(j);
            const auto target = code.syndromeToPosition(s);
            if (target) {
                if (*target < code.k()) {
                    expected.flip(*target);
                    ++miscorrections;
                } else {
                    ++parity_fix;
                }
                EXPECT_EQ(r.correctedPosition, target);
            } else {
                EXPECT_TRUE(r.detectedUncorrectable);
                ++silent;
            }
            EXPECT_EQ(r.dataword, expected) << "errors at " << i << ","
                                            << j;
        }
    }
    // A shortened random code exhibits all three behaviours.
    EXPECT_GT(miscorrections, 0);
    EXPECT_GT(silent, 0);
    EXPECT_GT(parity_fix, 0);
}

TEST(HammingCode, RandomSecDeterministicPerSeed)
{
    common::Xoshiro256 rng1(42), rng2(42), rng3(43);
    const HammingCode a = HammingCode::randomSec(64, rng1);
    const HammingCode b = HammingCode::randomSec(64, rng2);
    const HammingCode c = HammingCode::randomSec(64, rng3);
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == c);
}

TEST(HammingCode, RandomSecColumnsValid)
{
    common::Xoshiro256 rng(17);
    for (int trial = 0; trial < 10; ++trial) {
        const HammingCode code = HammingCode::randomSec(64, rng);
        std::set<std::uint32_t> seen;
        for (std::size_t i = 0; i < 64; ++i) {
            const std::uint32_t col = code.dataColumn(i);
            EXPECT_GE(std::popcount(col), 2);
            EXPECT_LT(col, 1u << 7);
            EXPECT_TRUE(seen.insert(col).second) << "duplicate column";
        }
    }
}

/**
 * Oracle for the word-at-a-time parity rows and the packed syndrome:
 * row j holds bit j of every data column, and the syndrome of any word
 * equals the XOR of the columns of its set positions
 * (syndromeOfErrors), split form included. k = 100 and 128 give rows
 * of two storage words, one of them ragged.
 */
TEST(HammingCode, ParityRowsAndSyndromeMatchPerBitDefinition)
{
    common::Xoshiro256 rng(23);
    for (const std::size_t k : {4, 11, 64, 100, 128}) {
        const HammingCode code = HammingCode::randomSec(k, rng);
        for (std::size_t j = 0; j < code.p(); ++j) {
            ASSERT_EQ(code.parityRow(j).size(), k);
            for (std::size_t i = 0; i < k; ++i)
                ASSERT_EQ(code.parityRow(j).get(i),
                          ((code.dataColumn(i) >> j) & 1) != 0)
                    << "k " << k << ", row " << j << ", column " << i;
        }
        for (int trial = 0; trial < 64; ++trial) {
            const gf2::BitVector word =
                gf2::BitVector::random(code.n(), rng);
            const std::uint32_t expected =
                code.syndromeOfErrors(word.setBits());
            ASSERT_EQ(code.syndrome(word), expected) << "k " << k;
            // The same word split into data and a parity piece at an
            // offset that straddles a storage word.
            gf2::BitVector parity(code.p() + 61);
            parity.assignAt(61, word.slice(k, code.n()));
            ASSERT_EQ(code.syndrome(word, parity, 61), expected);
        }
    }
}

/**
 * Parameterized single-error correction sweep: every single-bit error in
 * every position must be corrected, for representative dataword lengths
 * including the paper's (71,64) and (136,128) configurations.
 */
class HammingSingleError : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(HammingSingleError, EverySingleErrorCorrected)
{
    const std::size_t k = GetParam();
    common::Xoshiro256 rng(1000 + k);
    const HammingCode code = HammingCode::randomSec(k, rng);
    const gf2::BitVector d = gf2::BitVector::random(k, rng);
    const gf2::BitVector clean = code.encode(d);
    for (std::size_t pos = 0; pos < code.n(); ++pos) {
        gf2::BitVector c = clean;
        c.flip(pos);
        const DecodeResult r = code.decode(c);
        EXPECT_EQ(r.dataword, d) << "error at " << pos;
        ASSERT_TRUE(r.correctedPosition.has_value());
        EXPECT_EQ(*r.correctedPosition, pos);
        EXPECT_FALSE(r.detectedUncorrectable);
    }
}

TEST_P(HammingSingleError, CodewordColumnsAreDistinctNonzero)
{
    const std::size_t k = GetParam();
    common::Xoshiro256 rng(2000 + k);
    const HammingCode code = HammingCode::randomSec(k, rng);
    std::set<std::uint32_t> seen;
    for (std::size_t pos = 0; pos < code.n(); ++pos) {
        const std::uint32_t col = code.codewordColumn(pos);
        EXPECT_NE(col, 0u);
        EXPECT_TRUE(seen.insert(col).second);
    }
}

INSTANTIATE_TEST_SUITE_P(DatawordLengths, HammingSingleError,
                         ::testing::Values(4, 8, 16, 26, 32, 57, 64, 120,
                                           128));

} // namespace
} // namespace harp::ecc
