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
            gf2::BitSlice data(code.k());
            gf2::BitSlice codeword(code.n());
            data.gather(datawords);
            sliced.encode(data, codeword);
            for (std::size_t w = 0; w < lanes; ++w)
                EXPECT_EQ(codeword.extractWord(w),
                          code.encode(datawords[w]))
                    << "t " << t << ", lane " << w;
        }
    }
}

TEST(SlicedBch, FreshDatapathHasAnEmptyMemo)
{
    // The memo fills on demand only: construction enumerates nothing
    // (all weight <= 3 syndromes of this code would be 102,425 entries).
    const SlicedBchCode sliced(BchCode(64, 3), 64);
    EXPECT_EQ(sliced.memoEntries(), 0u);
    EXPECT_EQ(sliced.memoHits(), 0u);
    EXPECT_EQ(sliced.memoMisses(), 0u);
}

/** Blocks of 0..t+2 errors per lane (clean, correctable and
 *  detected-uncorrectable lanes share each block): bit-identical to the
 *  scalar decoder, one memo entry per miss, and a second pass over the
 *  same blocks is all hits. */
TEST(SlicedBch, OnDemandMemoMatchesScalar)
{
    common::Xoshiro256 rng(7);
    for (const std::size_t t : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
        const BchCode code(64, t);
        const std::size_t lanes = 64 - 5; // ragged tail
        const SlicedBchCode sliced(code, lanes);

        std::vector<std::vector<gf2::BitVector>> blocks;
        for (int round = 0; round < 4; ++round) {
            blocks.emplace_back();
            for (std::size_t w = 0; w < lanes; ++w) {
                gf2::BitVector c = code.encode(
                    gf2::BitVector::random(code.k(), rng));
                const std::size_t weight = rng.nextBelow(t + 3);
                for (std::size_t e = 0; e < weight; ++e)
                    c.flip(rng.nextBelow(code.n()));
                blocks.back().push_back(std::move(c));
            }
        }
        const auto decodeAll = [&] {
            for (std::size_t b = 0; b < blocks.size(); ++b) {
                gf2::BitSlice received_slice(code.n());
                gf2::BitSlice data_out(code.k());
                received_slice.gather(blocks[b]);
                sliced.decodeData(received_slice, data_out);
                for (std::size_t w = 0; w < lanes; ++w)
                    EXPECT_EQ(data_out.extractWord(w),
                              code.decode(blocks[b][w]).dataword)
                        << "t " << t << ", block " << b << ", lane " << w;
            }
        };

        decodeAll();
        const std::uint64_t misses = sliced.memoMisses();
        const std::uint64_t hits = sliced.memoHits();
        EXPECT_GT(misses, 0u) << "t " << t;
        EXPECT_EQ(sliced.memoEntries(), misses) << "t " << t;

        decodeAll();
        EXPECT_EQ(sliced.memoMisses(), misses) << "t " << t;
        EXPECT_EQ(sliced.memoEntries(), misses) << "t " << t;
        EXPECT_EQ(sliced.memoHits(), 2 * hits + misses) << "t " << t;
    }
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
    gf2::BitSlice received_slice(code.n());
    gf2::BitSlice data_out(code.k());
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
