/**
 * @file
 * Unit tests for the BitSlice transposed word block: the 64x64 bit
 * transpose, gather/scatter round trips (including ragged lane counts
 * and non-multiple-of-64 position counts, both gather forms), prefix
 * scatter, orXorPrefix and diffLanesPrefix against a scalar per-bit
 * reference, and the ragged-tail live-lane mask.
 */

#include <bit>

#include <gtest/gtest.h>

#include "common/bits.hh"
#include "gf2/bit_slice.hh"
#include "support/property.hh"
#include "support/seeded_fixture.hh"

namespace harp::gf2 {
namespace {

using test::forEachSeed;

TEST(Transpose64, MatchesNaiveOnRandomMatrices)
{
    forEachSeed(8, [](std::uint64_t, common::Xoshiro256 &rng) {
        std::uint64_t m[64];
        std::uint64_t original[64];
        for (std::size_t r = 0; r < 64; ++r)
            original[r] = m[r] = rng();
        transpose64x64(m);
        for (std::size_t r = 0; r < 64; ++r)
            for (std::size_t c = 0; c < 64; ++c)
                ASSERT_EQ((m[r] >> c) & 1, (original[c] >> r) & 1)
                    << "element (" << r << "," << c << ")";
    });
}

TEST(Transpose64, IsAnInvolution)
{
    forEachSeed(4, [](std::uint64_t, common::Xoshiro256 &rng) {
        std::uint64_t m[64];
        std::uint64_t original[64];
        for (std::size_t r = 0; r < 64; ++r)
            original[r] = m[r] = rng();
        transpose64x64(m);
        transpose64x64(m);
        for (std::size_t r = 0; r < 64; ++r)
            ASSERT_EQ(m[r], original[r]);
    });
}

TEST(BitSlice, GatherScatterRoundTrips)
{
    const std::size_t position_counts[] = {1, 5, 63, 64, 65, 71, 128, 137};
    const std::size_t lane_counts[] = {1, 5, 63, 64};
    forEachSeed(3, [&](std::uint64_t, common::Xoshiro256 &rng) {
        for (const std::size_t positions : position_counts) {
            for (const std::size_t lanes : lane_counts) {
                std::vector<BitVector> words;
                for (std::size_t w = 0; w < lanes; ++w)
                    words.push_back(BitVector::random(positions, rng));

                BitSlice slice(positions);
                slice.gather(words);
                // Lane bits match the gathered words...
                for (std::size_t w = 0; w < lanes; ++w)
                    for (std::size_t pos = 0; pos < positions; ++pos)
                        ASSERT_EQ(slice.get(pos, w), words[w].get(pos))
                            << positions << " positions, lane " << w
                            << ", pos " << pos;
                // ...unpopulated lanes are zeroed...
                for (std::size_t w = lanes; w < 64; ++w)
                    ASSERT_TRUE(slice.extractWord(w).isZero());
                // ...and scatter restores the originals.
                std::vector<BitVector> out(lanes, BitVector(positions));
                slice.scatter(out);
                for (std::size_t w = 0; w < lanes; ++w)
                    ASSERT_EQ(out[w], words[w]);
            }
        }
    });
}

TEST(BitSlice, BorrowedGatherMatchesOwningGather)
{
    forEachSeed(2, [](std::uint64_t, common::Xoshiro256 &rng) {
        const std::size_t positions = 71;
        const std::size_t lanes = 61;
        std::vector<BitVector> words;
        for (std::size_t w = 0; w < lanes; ++w)
            words.push_back(BitVector::random(positions, rng));
        std::vector<const BitVector *> views;
        for (const BitVector &word : words)
            views.push_back(&word);

        BitSlice owning(positions);
        owning.gather(words);
        BitSlice borrowed(positions);
        borrowed.gather(views.data(), views.size());
        for (std::size_t pos = 0; pos < positions; ++pos)
            ASSERT_EQ(owning.lane(pos), borrowed.lane(pos)) << "pos " << pos;
    });
}

TEST(BitSlice, ScatterPrefixExtractsLeadingPositions)
{
    forEachSeed(3, [](std::uint64_t, common::Xoshiro256 &rng) {
        const std::size_t positions = 71; // (71,64) codeword length
        const std::size_t prefix = 64;
        for (const std::size_t lanes : {10, 63}) {
            std::vector<BitVector> words;
            for (std::size_t w = 0; w < lanes; ++w)
                words.push_back(BitVector::random(positions, rng));
            BitSlice slice(positions);
            slice.gather(words);

            std::vector<BitVector> out(words.size(), BitVector(prefix));
            slice.scatterPrefix(prefix, out);
            for (std::size_t w = 0; w < words.size(); ++w)
                ASSERT_EQ(out[w], words[w].slice(0, prefix))
                    << lanes << " lanes, lane " << w;
        }
    });
}

TEST(BitSlice, OrXorPrefixMatchesScalarReference)
{
    forEachSeed(3, [](std::uint64_t, common::Xoshiro256 &rng) {
        const std::size_t positions = 71;
        const std::size_t prefix = 64;
        const std::size_t lanes = 59;
        std::vector<BitVector> a_words, b_words;
        for (std::size_t w = 0; w < lanes; ++w) {
            a_words.push_back(BitVector::random(positions, rng));
            // Give some word pairs identical prefixes so the returned
            // mismatch mask has zero lanes to witness.
            if (w % 3 == 0)
                b_words.push_back(a_words.back());
            else
                b_words.push_back(BitVector::random(positions, rng));
        }

        BitSlice a(positions), b(positions), acc(prefix);
        a.gather(a_words);
        b.gather(b_words);
        const std::uint64_t changed = acc.orXorPrefix(a, b, prefix);

        for (std::size_t w = 0; w < lanes; ++w) {
            bool any = false;
            for (std::size_t pos = 0; pos < prefix; ++pos) {
                const bool mismatch =
                    a_words[w].get(pos) != b_words[w].get(pos);
                any = any || mismatch;
                ASSERT_EQ(acc.get(pos, w), mismatch)
                    << "lane " << w << ", pos " << pos;
            }
            ASSERT_EQ(((changed >> w) & 1) != 0, any) << "lane " << w;
        }
        // Accumulation: a second pass ORs into the existing state, and
        // reports only the lanes that gained a bit — those with a
        // position the first pass left clear.
        BitSlice ones(prefix);
        std::vector<BitVector> one_words(lanes, BitVector(prefix));
        for (auto &word : one_words)
            for (std::size_t pos = 0; pos < prefix; ++pos)
                word.set(pos, true);
        ones.gather(one_words);
        BitSlice zeros(prefix);
        zeros.gather(std::vector<BitVector>(lanes, BitVector(prefix)));
        const BitSlice before = acc;
        const std::uint64_t grew = acc.orXorPrefix(ones, zeros, prefix);
        for (std::size_t w = 0; w < lanes; ++w) {
            bool gained = false;
            for (std::size_t pos = 0; pos < prefix; ++pos) {
                gained = gained || !before.get(pos, w);
                ASSERT_TRUE(acc.get(pos, w));
            }
            ASSERT_EQ(((grew >> w) & 1) != 0, gained) << "lane " << w;
        }
        // A repeat of the same mismatches sets nothing new.
        const std::uint64_t live = (std::uint64_t{1} << lanes) - 1;
        EXPECT_EQ(acc.orXorPrefix(ones, zeros, prefix) & live, 0u);
    });
}

TEST(BitSlice, DiffLanesPrefixMatchesScalarReference)
{
    forEachSeed(3, [](std::uint64_t, common::Xoshiro256 &rng) {
        const std::size_t positions = 71;
        const std::size_t prefix = 64;
        const std::size_t lanes = BitSlice::laneCount;
        std::vector<BitVector> a_words, b_words;
        for (std::size_t w = 0; w < lanes; ++w) {
            a_words.push_back(BitVector::random(positions, rng));
            b_words.push_back(a_words.back());
        }
        // Flip one bit in a spread of lanes: some inside the prefix
        // (must be reported), some beyond it (must not).
        for (std::size_t w = 0; w < lanes; w += 7)
            b_words[w].set(w % prefix, !b_words[w].get(w % prefix));
        for (std::size_t w = 3; w < lanes; w += 11) {
            const std::size_t pos = prefix + (w % (positions - prefix));
            if (w % 7 != 0)
                b_words[w].set(pos, !b_words[w].get(pos));
        }

        BitSlice a(positions), b(positions);
        a.gather(a_words);
        b.gather(b_words);
        const std::uint64_t diff = a.diffLanesPrefix(b, prefix);
        for (std::size_t w = 0; w < lanes; ++w) {
            const bool expect = !(a_words[w].slice(0, prefix) ==
                                  b_words[w].slice(0, prefix));
            ASSERT_EQ(((diff >> w) & 1) != 0, expect) << "lane " << w;
        }
    });
}

TEST(BitSlice, RaggedTailMaskSelectsExactlyLiveLanes)
{
    for (std::size_t lanes = 0; lanes <= BitSlice::laneCount; ++lanes) {
        const std::uint64_t mask = common::laneMask(lanes);
        ASSERT_EQ(static_cast<std::size_t>(std::popcount(mask)), lanes);
        for (std::size_t w = 0; w < BitSlice::laneCount; ++w)
            ASSERT_EQ(((mask >> w) & 1) != 0, w < lanes)
                << lanes << " live lanes, lane " << w;
    }
}

TEST(BitSlice, LaneAccessAndSetBit)
{
    BitSlice slice(3);
    EXPECT_EQ(slice.positions(), 3u);
    slice.set(2, 63, true);
    slice.set(0, 0, true);
    EXPECT_TRUE(slice.get(2, 63));
    EXPECT_TRUE(slice.get(0, 0));
    EXPECT_FALSE(slice.get(1, 0));
    EXPECT_EQ(slice.lane(0), 1u);
    EXPECT_EQ(slice.lane(2), std::uint64_t{1} << 63);
    slice.lane(1) = 0xFF;
    EXPECT_TRUE(slice.get(1, 7));
    slice.clear();
    EXPECT_EQ(slice.lane(1), 0u);
}

TEST(BitVectorSetWord, MasksTailBits)
{
    BitVector v(70);
    v.setWord(0, ~std::uint64_t{0});
    v.setWord(1, ~std::uint64_t{0});
    EXPECT_EQ(v.popcount(), 70u);
    v.setWord(1, 0);
    EXPECT_EQ(v.popcount(), 64u);
}

} // namespace
} // namespace harp::gf2
