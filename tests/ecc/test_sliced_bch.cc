/**
 * @file
 * Tests for the sliced t-error BCH datapath: encode and memoized
 * syndrome decoding must be bit-identical per lane to the scalar
 * BchCode, across t, lane counts (including ragged tails) and error
 * weights up to beyond t; the memo must actually memoize; and lane
 * counts outside 1..64 must be rejected.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "ecc/bch_general.hh"
#include "ecc/sliced_bch.hh"
#include "gf2/bit_slice.hh"

namespace harp::ecc {
namespace {

/** Random datawords, one per lane. */
std::vector<gf2::BitVector>
randomWords(std::size_t lanes, std::size_t bits, common::Xoshiro256 &rng)
{
    std::vector<gf2::BitVector> words;
    words.reserve(lanes);
    for (std::size_t w = 0; w < lanes; ++w)
        words.push_back(gf2::BitVector::random(bits, rng));
    return words;
}

TEST(SlicedBch, EncodeMatchesScalarIncludingRaggedTails)
{
    common::Xoshiro256 rng(1);
    for (const std::size_t t : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
        const BchCode code(64, t);
        for (const std::size_t lanes :
             {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
            const SlicedBchCode sliced(code, lanes);
            ASSERT_EQ(sliced.k(), code.k());
            ASSERT_EQ(sliced.n(), code.n());
            ASSERT_EQ(sliced.lanes(), lanes);

            const auto datawords = randomWords(lanes, code.k(), rng);
            gf2::BitSlice64 data(code.k());
            gf2::BitSlice64 codeword(code.n());
            data.gather(datawords);
            sliced.encode(data, codeword);
            for (std::size_t w = 0; w < lanes; ++w)
                EXPECT_EQ(codeword.extractWord(w),
                          code.encode(datawords[w]))
                    << "t " << t << ", lane " << w;
        }
    }
}

TEST(SlicedBch, DecodeDataMatchesScalarAcrossErrorWeights)
{
    common::Xoshiro256 rng(2);
    for (const std::size_t t : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
        const BchCode code(64, t);
        const std::size_t lanes = 23; // ragged (not a full block)
        // Cold memo: this test pins the fallback bookkeeping (every
        // miss inserts exactly one entry), so skip the pre-warm.
        const SlicedBchCode sliced(code, lanes, /*prewarm=*/false);
        EXPECT_FALSE(sliced.memoPrewarmed());

        for (int round = 0; round < 8; ++round) {
            std::vector<gf2::BitVector> received;
            for (std::size_t w = 0; w < lanes; ++w) {
                gf2::BitVector c = code.encode(
                    gf2::BitVector::random(code.k(), rng));
                // 0 .. t+2 errors: clean lanes, correctable lanes and
                // detected-uncorrectable lanes all share the block.
                const std::size_t weight = rng.nextBelow(t + 3);
                for (std::size_t e = 0; e < weight; ++e)
                    c.flip(rng.nextBelow(code.n()));
                received.push_back(std::move(c));
            }
            gf2::BitSlice64 received_slice(code.n());
            gf2::BitSlice64 data_out(code.k());
            received_slice.gather(received);
            sliced.decodeData(received_slice, data_out);
            for (std::size_t w = 0; w < lanes; ++w)
                EXPECT_EQ(data_out.extractWord(w),
                          code.decode(received[w]).dataword)
                    << "t " << t << ", round " << round << ", lane "
                    << w;
        }
        // Every miss inserts exactly one memo entry; repeats hit.
        EXPECT_EQ(sliced.memoEntries(), sliced.memoMisses());
        EXPECT_GT(sliced.memoMisses(), 0u);
    }
}

TEST(SlicedBch, RepeatedSyndromesHitTheMemo)
{
    common::Xoshiro256 rng(3);
    const BchCode code(64, 2);
    const std::size_t lanes = 16;
    // Cold memo, so the first block demonstrably falls back to the
    // scalar decoder before repeats start hitting.
    const SlicedBchCode sliced(code, lanes, /*prewarm=*/false);

    std::vector<gf2::BitVector> received;
    for (std::size_t w = 0; w < lanes; ++w) {
        gf2::BitVector c =
            code.encode(gf2::BitVector::random(code.k(), rng));
        c.flip(rng.nextBelow(code.n()));
        received.push_back(std::move(c));
    }
    gf2::BitSlice64 received_slice(code.n());
    gf2::BitSlice64 data_out(code.k());
    received_slice.gather(received);

    sliced.decodeData(received_slice, data_out);
    const std::uint64_t misses_after_first = sliced.memoMisses();
    EXPECT_GT(misses_after_first, 0u);

    // The identical block again: pure hits, no new scalar fallbacks.
    sliced.decodeData(received_slice, data_out);
    EXPECT_EQ(sliced.memoMisses(), misses_after_first);
    EXPECT_GE(sliced.memoHits(), misses_after_first);
    for (std::size_t w = 0; w < lanes; ++w)
        EXPECT_EQ(data_out.extractWord(w),
                  code.decode(received[w]).dataword);
}

TEST(SlicedBch, PrewarmCoversEveryCorrectableSyndrome)
{
    common::Xoshiro256 rng(7);
    for (const std::size_t t : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
        const BchCode code(64, t);
        const std::size_t lanes = 17;
        const SlicedBchCode sliced(code, lanes);
        ASSERT_TRUE(sliced.memoPrewarmed());

        // Entry count = sum_{w=1..t} C(n, w), every weight <= t
        // syndrome distinct (minimum distance >= 2t+1).
        std::size_t expected = 0;
        for (std::size_t w = 1; w <= t; ++w) {
            std::size_t choose = 1;
            for (std::size_t i = 0; i < w; ++i)
                choose = choose * (code.n() - i) / (i + 1);
            expected += choose;
        }
        EXPECT_EQ(sliced.memoEntries(), expected) << "t " << t;

        // Correctable blocks never fall back to the scalar decoder
        // and still decode bit-identically to it.
        for (int round = 0; round < 6; ++round) {
            std::vector<gf2::BitVector> received;
            for (std::size_t w = 0; w < lanes; ++w) {
                gf2::BitVector c = code.encode(
                    gf2::BitVector::random(code.k(), rng));
                const std::size_t weight = rng.nextBelow(t + 1);
                for (std::size_t e = 0; e < weight; ++e)
                    c.flip(rng.nextBelow(code.n()));
                received.push_back(std::move(c));
            }
            gf2::BitSlice64 received_slice(code.n());
            gf2::BitSlice64 data_out(code.k());
            received_slice.gather(received);
            sliced.decodeData(received_slice, data_out);
            for (std::size_t w = 0; w < lanes; ++w)
                EXPECT_EQ(data_out.extractWord(w),
                          code.decode(received[w]).dataword)
                    << "t " << t << ", round " << round << ", lane "
                    << w;
        }
        EXPECT_EQ(sliced.memoMisses(), 0u) << "t " << t;
        EXPECT_GT(sliced.memoHits(), 0u) << "t " << t;
    }
}

TEST(SlicedBch, PrewarmSkippedBeyondTheEntryCap)
{
    // k=128, t=3 -> n=152: C(152,1)+C(152,2)+C(152,3) ~ 575k entries,
    // beyond prewarmEntryCap — construction must start cold instead of
    // stalling, and decoding still works through the fallback path.
    common::Xoshiro256 rng(8);
    const BchCode code(128, 3);
    const SlicedBchCode sliced(code, 4);
    EXPECT_FALSE(sliced.memoPrewarmed());
    EXPECT_EQ(sliced.memoEntries(), 0u);

    std::vector<gf2::BitVector> received;
    for (std::size_t w = 0; w < 4; ++w) {
        gf2::BitVector c =
            code.encode(gf2::BitVector::random(code.k(), rng));
        c.flip(rng.nextBelow(code.n()));
        received.push_back(std::move(c));
    }
    gf2::BitSlice64 received_slice(code.n());
    gf2::BitSlice64 data_out(code.k());
    received_slice.gather(received);
    sliced.decodeData(received_slice, data_out);
    for (std::size_t w = 0; w < 4; ++w)
        EXPECT_EQ(data_out.extractWord(w),
                  code.decode(received[w]).dataword);
    EXPECT_GT(sliced.memoMisses(), 0u);
}

TEST(SlicedBch, ZeroSyndromeLanesSkipTheMemo)
{
    common::Xoshiro256 rng(4);
    const BchCode code(64, 3);
    const std::size_t lanes = 10;
    const SlicedBchCode sliced(code, lanes);

    const auto datawords = randomWords(lanes, code.k(), rng);
    std::vector<gf2::BitVector> clean;
    for (const gf2::BitVector &d : datawords)
        clean.push_back(code.encode(d));
    gf2::BitSlice64 received_slice(code.n());
    gf2::BitSlice64 data_out(code.k());
    received_slice.gather(clean);
    sliced.decodeData(received_slice, data_out);
    EXPECT_EQ(sliced.memoHits(), 0u);
    EXPECT_EQ(sliced.memoMisses(), 0u);
    for (std::size_t w = 0; w < lanes; ++w)
        EXPECT_EQ(data_out.extractWord(w), datawords[w]);
}

TEST(SlicedBch, RejectsBadLaneCounts)
{
    const BchCode t2(64, 2);
    EXPECT_THROW(SlicedBchCode(t2, 0), std::invalid_argument);
    EXPECT_THROW(SlicedBchCode(t2, 65), std::invalid_argument);
}

} // namespace
} // namespace harp::ecc
