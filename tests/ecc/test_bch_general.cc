/**
 * @file
 * Tests for the general t-error-correcting BCH code (Berlekamp-Massey +
 * Chien search), including a cross-check against the closed-form t=2
 * decoder and exhaustive/sampled error sweeps for t = 1..4.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "ecc/bch_general.hh"
#include "support/bch_dec_code.hh"

namespace harp::ecc {
namespace {

/** Random distinct error positions. */
std::set<std::size_t>
randomErrors(std::size_t count, std::size_t n, common::Xoshiro256 &rng)
{
    std::set<std::size_t> errors;
    while (errors.size() < count)
        errors.insert(rng.nextBelow(n));
    return errors;
}

TEST(BchGeneral, GeometryScalesWithT)
{
    const BchCode t1(64, 1);
    const BchCode t2(64, 2);
    const BchCode t3(64, 3);
    EXPECT_EQ(t1.p(), 7u);  // degenerates to the Hamming parity count
    EXPECT_EQ(t2.p(), 14u); // matches BchDecCode
    EXPECT_EQ(t3.p(), 21u); // three degree-7 minimal polynomials
    EXPECT_LT(t1.n(), t2.n());
    EXPECT_LT(t2.n(), t3.n());
}

TEST(BchGeneral, RejectsBadT)
{
    EXPECT_THROW(BchCode(64, 0), std::invalid_argument);
    EXPECT_THROW(BchCode(64, 9), std::invalid_argument);
    // A zero-bit dataword is no code at all.
    EXPECT_THROW(BchCode(0, 1), std::invalid_argument);
}

TEST(BchGeneral, CleanDecode)
{
    const BchCode code(64, 3);
    common::Xoshiro256 rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        const gf2::BitVector d = gf2::BitVector::random(64, rng);
        const BchGeneralDecodeResult r = code.decode(code.encode(d));
        EXPECT_EQ(r.dataword, d);
        EXPECT_TRUE(r.correctedPositions.empty());
        EXPECT_FALSE(r.detectedUncorrectable);
    }
}

TEST(BchGeneral, MatchesClosedFormT2Decoder)
{
    // Same k and t: the generator polynomials coincide, and decode
    // outcomes must agree on every error pattern up to weight 3.
    const BchCode general(64, 2);
    const BchDecCode closed(64);
    ASSERT_EQ(general.generatorPolynomial(),
              closed.generatorPolynomial());
    ASSERT_EQ(general.n(), closed.n());

    common::Xoshiro256 rng(2);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t weight = 1 + rng.nextBelow(3);
        const auto errors = randomErrors(weight, general.n(), rng);
        const std::vector<std::size_t> positions(errors.begin(),
                                                 errors.end());
        EXPECT_EQ(general.decodeErrorPattern(positions),
                  closed.decodeErrorPattern(positions))
            << "trial " << trial;
    }
}

class BchGeneralSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>>
{
  protected:
    std::size_t k() const { return std::get<0>(GetParam()); }
    std::size_t t() const { return std::get<1>(GetParam()); }
};

TEST_P(BchGeneralSweep, CorrectsUpToTErrors)
{
    const BchCode code(k(), t());
    common::Xoshiro256 rng(100 + k() * 10 + t());
    const gf2::BitVector d = gf2::BitVector::random(k(), rng);
    const gf2::BitVector clean = code.encode(d);
    for (std::size_t weight = 1; weight <= t(); ++weight) {
        for (int trial = 0; trial < 120; ++trial) {
            const auto errors = randomErrors(weight, code.n(), rng);
            gf2::BitVector c = clean;
            for (const std::size_t pos : errors)
                c.flip(pos);
            const BchGeneralDecodeResult r = code.decode(c);
            EXPECT_EQ(r.dataword, d)
                << "weight " << weight << " trial " << trial;
            EXPECT_EQ(r.correctedPositions,
                      std::vector<std::size_t>(errors.begin(),
                                               errors.end()));
        }
    }
}

TEST_P(BchGeneralSweep, NeverFlipsMoreThanTOnOverload)
{
    // t+1 .. t+2 errors: the decoder may detect or miscorrect, but can
    // never apply more than t flips — the bound that generalizes HARP's
    // indirect-error argument.
    const BchCode code(k(), t());
    common::Xoshiro256 rng(200 + k() * 10 + t());
    const gf2::BitVector d = gf2::BitVector::random(k(), rng);
    const gf2::BitVector clean = code.encode(d);
    for (std::size_t overload = 1; overload <= 2; ++overload) {
        for (int trial = 0; trial < 120; ++trial) {
            const auto errors =
                randomErrors(t() + overload, code.n(), rng);
            gf2::BitVector c = clean;
            for (const std::size_t pos : errors)
                c.flip(pos);
            const BchGeneralDecodeResult r = code.decode(c);
            EXPECT_LE(r.correctedPositions.size(), t());
            if (r.detectedUncorrectable) {
                EXPECT_TRUE(r.correctedPositions.empty());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    KTSweep, BchGeneralSweep,
    ::testing::Combine(::testing::Values<std::size_t>(32, 64),
                       ::testing::Values<std::size_t>(1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t,
                                                 std::size_t>> &info) {
        return "k" + std::to_string(std::get<0>(info.param)) + "_t" +
               std::to_string(std::get<1>(info.param));
    });

TEST(BchGeneral, DetectedUncorrectableLeavesDataUntouched)
{
    // >t errors the decoder explicitly flags: the dataword must be the
    // uncorrected prefix and no flips may be reported.
    const BchCode code(64, 2);
    common::Xoshiro256 rng(7);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    const gf2::BitVector clean = code.encode(d);
    std::size_t detected = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const auto errors = randomErrors(4, code.n(), rng);
        gf2::BitVector c = clean;
        for (const std::size_t pos : errors)
            c.flip(pos);
        const BchGeneralDecodeResult r = code.decode(c);
        if (!r.detectedUncorrectable)
            continue;
        ++detected;
        EXPECT_TRUE(r.correctedPositions.empty());
        EXPECT_EQ(r.dataword, c.slice(0, code.k()));
    }
    EXPECT_GT(detected, 0u);
}

TEST(BchGeneral, ShortenedOutOfRangeChienRootsRejected)
{
    // A (virtual) single error at a coefficient c >= n of the parent
    // code has the same syndromes as the parity-region pattern
    // x^c mod g (g divides their sum, and g(alpha^j) = 0 for the
    // syndrome powers). Berlekamp-Massey then yields a degree-1
    // locator whose only root lies outside the shortened code, so the
    // Chien search must reject it: detected uncorrectable, data
    // untouched — never a phantom correction.
    const BchCode code(16, 2);
    ASSERT_LT(code.n(), code.field().order());
    common::Xoshiro256 rng(8);
    const gf2::BitVector d = gf2::BitVector::random(16, rng);
    const gf2::BitVector clean = code.encode(d);
    for (std::size_t c = code.n(); c < code.field().order(); ++c) {
        // x^c mod g by shift-and-reduce.
        std::uint64_t rem = 1;
        for (std::size_t step = 0; step < c; ++step) {
            rem <<= 1;
            if ((rem >> code.p()) & 1)
                rem ^= code.generatorPolynomial();
        }
        gf2::BitVector received = clean;
        for (std::size_t j = 0; j < code.p(); ++j)
            if ((rem >> j) & 1)
                received.flip(code.k() + j);
        const BchGeneralDecodeResult r = code.decode(received);
        EXPECT_TRUE(r.detectedUncorrectable) << "coefficient " << c;
        EXPECT_TRUE(r.correctedPositions.empty());
        EXPECT_EQ(r.dataword, d); // the pattern only touches parity
    }
}

/**
 * Exact decoder semantics on fully-enumerable codes: for every sampled
 * received word, compare against brute-force nearest-codeword search.
 * Within distance t the decoder must return the (unique) nearest
 * codeword with exactly the differing positions; beyond distance t it
 * must either flag detected-uncorrectable (no flips) or miscorrect
 * onto some *codeword* within t flips — never onto a non-codeword.
 */
TEST(BchGeneral, BruteForceNearestCodewordSmallCodes)
{
    for (const std::size_t t : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
        const std::size_t k = 6;
        const BchCode code(k, t);
        std::vector<gf2::BitVector> codewords;
        for (std::uint64_t v = 0; v < (std::uint64_t{1} << k); ++v)
            codewords.push_back(
                code.encode(gf2::BitVector::fromUint(v, k)));

        const auto distance = [](const gf2::BitVector &a,
                                 const gf2::BitVector &b) {
            gf2::BitVector diff = a;
            diff ^= b;
            return diff.popcount();
        };

        common::Xoshiro256 rng(31 + t);
        std::vector<gf2::BitVector> samples;
        for (int trial = 0; trial < 300; ++trial)
            samples.push_back(gf2::BitVector::random(code.n(), rng));
        for (std::size_t weight = 1; weight <= t + 1; ++weight) {
            for (int trial = 0; trial < 100; ++trial) {
                gf2::BitVector c =
                    codewords[rng.nextBelow(codewords.size())];
                for (const std::size_t pos :
                     randomErrors(weight, code.n(), rng))
                    c.flip(pos);
                samples.push_back(std::move(c));
            }
        }

        for (const gf2::BitVector &received : samples) {
            std::size_t dmin = code.n() + 1, nearest = 0;
            for (std::size_t i = 0; i < codewords.size(); ++i) {
                const std::size_t dist = distance(received, codewords[i]);
                if (dist < dmin) {
                    dmin = dist;
                    nearest = i;
                }
            }
            const BchGeneralDecodeResult r = code.decode(received);
            EXPECT_LE(r.correctedPositions.size(), t);
            if (dmin <= t) {
                // Unique by minimum distance >= 2t+1.
                EXPECT_FALSE(r.detectedUncorrectable);
                EXPECT_EQ(r.dataword, codewords[nearest].slice(0, k));
                std::vector<std::size_t> expected_flips;
                for (std::size_t pos = 0; pos < code.n(); ++pos)
                    if (received.get(pos) != codewords[nearest].get(pos))
                        expected_flips.push_back(pos);
                EXPECT_EQ(r.correctedPositions, expected_flips);
            } else if (r.detectedUncorrectable) {
                EXPECT_TRUE(r.correctedPositions.empty());
                EXPECT_EQ(r.dataword, received.slice(0, k));
            } else {
                // Miscorrection: the flips must land on a codeword.
                gf2::BitVector corrected = received;
                for (const std::size_t pos : r.correctedPositions)
                    corrected.flip(pos);
                bool is_codeword = false;
                for (const gf2::BitVector &cw : codewords)
                    is_codeword = is_codeword || corrected == cw;
                EXPECT_TRUE(is_codeword)
                    << "t=" << t << ": silent non-codeword result";
            }
        }
    }
}

TEST(BchGeneral, DecodeIntoReusesResultAndMatchesDecode)
{
    const BchCode code(64, 3);
    common::Xoshiro256 rng(9);
    BchGeneralDecodeResult reused;
    for (int trial = 0; trial < 60; ++trial) {
        const gf2::BitVector d = gf2::BitVector::random(64, rng);
        gf2::BitVector received = code.encode(d);
        const std::size_t weight = rng.nextBelow(6); // 0..5 errors
        for (const std::size_t pos :
             randomErrors(weight, code.n(), rng))
            received.flip(pos);
        code.decodeInto(received, reused);
        const BchGeneralDecodeResult fresh = code.decode(received);
        EXPECT_EQ(reused.dataword, fresh.dataword);
        EXPECT_EQ(reused.correctedPositions, fresh.correctedPositions);
        EXPECT_EQ(reused.detectedUncorrectable,
                  fresh.detectedUncorrectable);
    }
}

TEST(BchGeneral, EncodeIntoMatchesEncode)
{
    const BchCode code(32, 2);
    common::Xoshiro256 rng(10);
    gf2::BitVector codeword(code.n());
    for (int trial = 0; trial < 20; ++trial) {
        const gf2::BitVector d = gf2::BitVector::random(32, rng);
        code.encodeInto(d, codeword);
        EXPECT_EQ(codeword, code.encode(d));
    }
}

TEST(BchGeneral, ParityRowsMatchEncoder)
{
    const BchCode code(32, 3);
    common::Xoshiro256 rng(3);
    const gf2::BitVector d = gf2::BitVector::random(32, rng);
    const gf2::BitVector c = code.encode(d);
    for (std::size_t j = 0; j < code.p(); ++j)
        EXPECT_EQ(c.get(code.k() + j), code.parityRow(j).dot(d));
}

TEST(BchGeneral, T1BehavesLikeSecCode)
{
    // t=1 general BCH is a (shortened) Hamming code: every single error
    // corrected, double errors never silently accepted as clean.
    const BchCode code(64, 1);
    common::Xoshiro256 rng(4);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    const gf2::BitVector clean = code.encode(d);
    for (std::size_t pos = 0; pos < code.n(); ++pos) {
        gf2::BitVector c = clean;
        c.flip(pos);
        const BchGeneralDecodeResult r = code.decode(c);
        EXPECT_EQ(r.dataword, d);
        ASSERT_EQ(r.correctedPositions.size(), 1u);
        EXPECT_EQ(r.correctedPositions[0], pos);
    }
}

} // namespace
} // namespace harp::ecc
