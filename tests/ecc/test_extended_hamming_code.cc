/**
 * @file
 * Unit and parameterized tests for the SECDED secondary ECC: corrects all
 * single errors, detects (never miscorrects) all double errors — the
 * property HARP's reactive profiling safety argument rests on.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "ecc/extended_hamming_code.hh"
#include "support/memsys_reference.hh"

namespace harp::ecc {
namespace {

TEST(ExtendedHamming, Dimensions)
{
    common::Xoshiro256 rng(1);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(64, rng);
    EXPECT_EQ(code.k(), 64u);
    EXPECT_EQ(code.checkBits(), 8u); // 7 Hamming + 1 overall parity
    EXPECT_EQ(code.n(), 72u);        // the classic (72, 64) SECDED shape
}

TEST(ExtendedHamming, EncodeHasEvenOverallParity)
{
    common::Xoshiro256 rng(2);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(32, rng);
    for (int trial = 0; trial < 20; ++trial) {
        const gf2::BitVector d = gf2::BitVector::random(32, rng);
        const gf2::BitVector c = code.encode(d);
        EXPECT_EQ(c.popcount() % 2, 0u);
    }
}

TEST(ExtendedHamming, CleanDecode)
{
    common::Xoshiro256 rng(3);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(64, rng);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    const SecondaryDecodeResult r = code.decode(code.encode(d));
    EXPECT_EQ(r.status, SecondaryDecodeStatus::NoError);
    EXPECT_EQ(r.dataword, d);
    EXPECT_FALSE(r.correctedPosition.has_value());
}

class SecDedSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SecDedSweep, EverySingleErrorCorrected)
{
    const std::size_t k = GetParam();
    common::Xoshiro256 rng(100 + k);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(k, rng);
    const gf2::BitVector d = gf2::BitVector::random(k, rng);
    const gf2::BitVector clean = code.encode(d);
    for (std::size_t pos = 0; pos < code.n(); ++pos) {
        gf2::BitVector c = clean;
        c.flip(pos);
        const SecondaryDecodeResult r = code.decode(c);
        EXPECT_EQ(r.status, SecondaryDecodeStatus::CorrectedSingle)
            << "error at " << pos;
        EXPECT_EQ(r.dataword, d);
        ASSERT_TRUE(r.correctedPosition.has_value());
        EXPECT_EQ(*r.correctedPosition, pos);
    }
}

TEST_P(SecDedSweep, EveryDoubleErrorDetectedNotMiscorrected)
{
    const std::size_t k = GetParam();
    common::Xoshiro256 rng(200 + k);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(k, rng);
    const gf2::BitVector d = gf2::BitVector::random(k, rng);
    const gf2::BitVector clean = code.encode(d);
    // Exhaustive for small k; sampled pairs for larger k.
    const bool exhaustive = code.n() <= 24;
    const int samples = exhaustive ? 0 : 300;
    auto check_pair = [&](std::size_t i, std::size_t j) {
        gf2::BitVector c = clean;
        c.flip(i);
        c.flip(j);
        const SecondaryDecodeResult r = code.decode(c);
        EXPECT_EQ(r.status,
                  SecondaryDecodeStatus::DetectedUncorrectable)
            << "errors at " << i << "," << j;
    };
    if (exhaustive) {
        for (std::size_t i = 0; i < code.n(); ++i)
            for (std::size_t j = i + 1; j < code.n(); ++j)
                check_pair(i, j);
    } else {
        for (int s = 0; s < samples; ++s) {
            const std::size_t i = rng.nextBelow(code.n());
            std::size_t j = rng.nextBelow(code.n());
            while (j == i)
                j = rng.nextBelow(code.n());
            check_pair(i, j);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(DatawordLengths, SecDedSweep,
                         ::testing::Values(8, 16, 64, 128));

TEST(ExtendedHamming, OverallParityBitErrorCorrected)
{
    common::Xoshiro256 rng(4);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(16, rng);
    const gf2::BitVector d = gf2::BitVector::random(16, rng);
    gf2::BitVector c = code.encode(d);
    c.flip(code.n() - 1); // the overall parity bit itself
    const SecondaryDecodeResult r = code.decode(c);
    EXPECT_EQ(r.status, SecondaryDecodeStatus::CorrectedSingle);
    ASSERT_TRUE(r.correctedPosition.has_value());
    EXPECT_EQ(*r.correctedPosition, code.n() - 1);
    EXPECT_EQ(r.dataword, d);
}

TEST(ExtendedHamming, TripleErrorsNeverReportNoError)
{
    // SECDED guarantees end at 2 errors, but a triple error must never be
    // reported as a clean word (it has odd parity).
    common::Xoshiro256 rng(5);
    const ExtendedHammingCode code =
        ExtendedHammingCode::randomSecDed(32, rng);
    const gf2::BitVector d = gf2::BitVector::random(32, rng);
    const gf2::BitVector clean = code.encode(d);
    for (int trial = 0; trial < 100; ++trial) {
        gf2::BitVector c = clean;
        std::set<std::size_t> positions;
        while (positions.size() < 3)
            positions.insert(rng.nextBelow(code.n()));
        for (const std::size_t pos : positions)
            c.flip(pos);
        const SecondaryDecodeResult r = code.decode(c);
        EXPECT_NE(r.status, SecondaryDecodeStatus::NoError);
    }
}

/**
 * The split-input decode core against the bit-at-a-time reference
 * decode (support/memsys_reference): every single and double error,
 * then seeded weight-3 and weight-4 patterns, half of them forced onto
 * the overall-parity bit. Status, corrected position and dataword must
 * match, both from classify() on the split pieces and from decode() on
 * the assembled word; encode and the check-bits path must match the
 * reference encode.
 */
class SecDedCoreEquivalence : public ::testing::TestWithParam<std::size_t>
{
  protected:
    void SetUp() override
    {
        rng_ = common::Xoshiro256(0x5EC0DE + GetParam());
        code_.emplace(ExtendedHammingCode::randomSecDed(GetParam(), rng_));
    }

    void expectMatches(const std::vector<std::size_t> &errors)
    {
        const ExtendedHammingCode &code = *code_;
        const gf2::BitVector d = gf2::BitVector::random(code.k(), rng_);
        gf2::BitVector received = test::referenceSecdedEncode(code, d);
        ASSERT_EQ(code.encode(d), received);
        gf2::BitVector check(code.checkBits());
        code.encodeCheckBitsInto(d, check);
        ASSERT_EQ(check,
                  test::referenceSlice(received, code.k(), code.n()));
        for (const std::size_t pos : errors)
            received.flip(pos);

        const SecondaryDecodeResult want =
            test::referenceSecdedDecode(code, received);
        const SecondaryClassification core =
            code.classify(test::referenceSlice(received, 0, code.k()),
                          test::referenceSlice(received, code.k(),
                                               code.n()));
        EXPECT_EQ(core.status, want.status);
        EXPECT_EQ(core.correctedPosition, want.correctedPosition);
        const SecondaryDecodeResult got = code.decode(received);
        EXPECT_EQ(got.status, want.status);
        EXPECT_EQ(got.correctedPosition, want.correctedPosition);
        EXPECT_EQ(got.dataword, want.dataword);
    }

    common::Xoshiro256 rng_{0};
    std::optional<ExtendedHammingCode> code_;
};

TEST_P(SecDedCoreEquivalence, EverySingleAndDoubleError)
{
    const std::size_t n = code_->n();
    for (std::size_t i = 0; i < n; ++i) {
        SCOPED_TRACE("single " + std::to_string(i));
        expectMatches({i});
        for (std::size_t j = i + 1; j < n; ++j) {
            SCOPED_TRACE("double " + std::to_string(j));
            expectMatches({i, j});
            if (HasFailure())
                return;
        }
    }
}

TEST_P(SecDedCoreEquivalence, SeededTripleAndQuadrupleErrors)
{
    const std::size_t n = code_->n();
    for (std::size_t trial = 0; trial < 2000; ++trial) {
        std::set<std::size_t> positions;
        if (trial % 2 == 0)
            positions.insert(n - 1);
        const std::size_t weight = 3 + trial % 4 / 2;
        while (positions.size() < weight)
            positions.insert(rng_.nextBelow(n));
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectMatches({positions.begin(), positions.end()});
        if (HasFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(DatawordLengths, SecDedCoreEquivalence,
                         ::testing::Values(8, 64, 128));

} // namespace
} // namespace harp::ecc
