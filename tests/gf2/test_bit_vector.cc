/**
 * @file
 * Unit and property tests for gf2::BitVector.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bits.hh"
#include "common/rng.hh"
#include "gf2/bit_vector.hh"

namespace harp::gf2 {
namespace {

/** Per-bit reference for slice(). */
BitVector
sliceByBits(const BitVector &v, std::size_t begin, std::size_t end)
{
    BitVector out(end - begin);
    for (std::size_t i = begin; i < end; ++i)
        out.set(i - begin, v.get(i));
    return out;
}

/** True iff every storage bit past size() is zero. */
bool
tailIsMasked(const BitVector &v)
{
    return v.words().empty() ||
           (v.words().back() & ~common::tailMask(v.size())) == 0;
}

/** End offsets worth slicing to from @p begin in a @p size -bit vector:
 *  empty, to the end, and spans of 1-4 storage words either side of
 *  every word boundary. */
std::vector<std::size_t>
endsFor(std::size_t begin, std::size_t size)
{
    std::vector<std::size_t> ends{begin, size};
    for (const std::size_t span :
         {1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256})
        if (begin + span <= size)
            ends.push_back(begin + span);
    return ends;
}

TEST(BitVector, DefaultIsZero)
{
    const BitVector v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_TRUE(v.isZero());
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, SetGetFlip)
{
    BitVector v(71);
    v.set(0, true);
    v.set(70, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(70));
    EXPECT_FALSE(v.get(35));
    v.flip(70);
    EXPECT_FALSE(v.get(70));
    v.flip(35);
    EXPECT_TRUE(v.get(35));
    EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVector, FromUint)
{
    const BitVector v = BitVector::fromUint(0b1011, 8);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(1));
    EXPECT_FALSE(v.get(2));
    EXPECT_TRUE(v.get(3));
    EXPECT_EQ(v.toUint(), 0b1011u);
}

TEST(BitVector, FromUintMasksHighBits)
{
    const BitVector v = BitVector::fromUint(0xFF, 4);
    EXPECT_EQ(v.popcount(), 4u);
    EXPECT_EQ(v.toUint(), 0xFu);
}

TEST(BitVector, FromIndices)
{
    const BitVector v = BitVector::fromIndices(100, {0, 64, 99});
    EXPECT_EQ(v.popcount(), 3u);
    EXPECT_TRUE(v.get(64));
    const auto bits = v.setBits();
    EXPECT_EQ(bits, (std::vector<std::size_t>{0, 64, 99}));
}

TEST(BitVector, FillRespectsTail)
{
    BitVector v(71);
    v.fill(true);
    EXPECT_EQ(v.popcount(), 71u);
    v.fill(false);
    EXPECT_TRUE(v.isZero());
}

TEST(BitVector, XorIsSelfInverse)
{
    common::Xoshiro256 rng(1);
    const BitVector a = BitVector::random(200, rng);
    const BitVector b = BitVector::random(200, rng);
    BitVector c = a;
    c ^= b;
    c ^= b;
    EXPECT_EQ(c, a);
}

TEST(BitVector, AndOrSemantics)
{
    const BitVector a = BitVector::fromUint(0b1100, 4);
    const BitVector b = BitVector::fromUint(0b1010, 4);
    BitVector and_v = a;
    and_v &= b;
    EXPECT_EQ(and_v.toUint(), 0b1000u);
    BitVector or_v = a;
    or_v |= b;
    EXPECT_EQ(or_v.toUint(), 0b1110u);
}

TEST(BitVector, DotProduct)
{
    const BitVector a = BitVector::fromUint(0b1101, 4);
    const BitVector b = BitVector::fromUint(0b1011, 4);
    // Overlap = {0, 3} -> even -> 0.
    EXPECT_FALSE(a.dot(b));
    const BitVector c = BitVector::fromUint(0b0001, 4);
    EXPECT_TRUE(a.dot(c));
}

TEST(BitVector, DotDistributesOverXor)
{
    common::Xoshiro256 rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        const BitVector a = BitVector::random(97, rng);
        const BitVector b = BitVector::random(97, rng);
        const BitVector c = BitVector::random(97, rng);
        BitVector bc = b;
        bc ^= c;
        EXPECT_EQ(a.dot(bc), a.dot(b) != a.dot(c));
    }
}

TEST(BitVector, SliceExtractsRange)
{
    BitVector v(71);
    v.set(64, true);
    v.set(70, true);
    v.set(3, true);
    const BitVector data = v.slice(0, 64);
    EXPECT_EQ(data.size(), 64u);
    EXPECT_EQ(data.popcount(), 1u);
    EXPECT_TRUE(data.get(3));
    const BitVector parity = v.slice(64, 71);
    EXPECT_EQ(parity.size(), 7u);
    EXPECT_TRUE(parity.get(0));
    EXPECT_TRUE(parity.get(6));
    EXPECT_EQ(parity.popcount(), 2u);
}

/** Word-wise slice() equals the per-bit copy for every size 0-200,
 *  every begin (aligned or not), and spans of 0 to 4 storage words;
 *  the result's tail stays masked so == and popcount() are exact. */
TEST(BitVector, SliceMatchesPerBitReference)
{
    common::Xoshiro256 rng(0x511CE);
    for (std::size_t size = 0; size <= 200; ++size) {
        const BitVector v = BitVector::random(size, rng);
        for (std::size_t begin = 0; begin <= size; ++begin) {
            for (const std::size_t end : endsFor(begin, size)) {
                const BitVector got = v.slice(begin, end);
                const BitVector want = sliceByBits(v, begin, end);
                ASSERT_EQ(got, want) << size << ": [" << begin << ", "
                                     << end << ")";
                ASSERT_EQ(got.popcount(), want.popcount());
                ASSERT_TRUE(tailIsMasked(got));
            }
        }
    }
}

/** assignAt() is the per-bit store, leaves every other bit alone, and
 *  keeps the tail masked; equalsPrefixOf() and dotPrefix() agree with
 *  comparing and dotting against a slice. */
TEST(BitVector, RangeStoreAndPrefixOpsMatchPerBitReference)
{
    common::Xoshiro256 rng(0xA55);
    for (std::size_t size = 0; size <= 200; ++size) {
        const BitVector v = BitVector::random(size, rng);
        for (std::size_t begin = 0; begin <= size; ++begin) {
            for (const std::size_t end : endsFor(begin, size)) {
                const BitVector src = BitVector::random(end - begin, rng);
                BitVector got = v;
                got.assignAt(begin, src);
                BitVector want = v;
                for (std::size_t i = begin; i < end; ++i)
                    want.set(i, src.get(i - begin));
                ASSERT_EQ(got, want) << size << ": [" << begin << ", "
                                     << end << ")";
                ASSERT_TRUE(tailIsMasked(got));
            }
        }
        for (std::size_t len = 0; len <= size; ++len) {
            const BitVector prefix = sliceByBits(v, 0, len);
            ASSERT_TRUE(prefix.equalsPrefixOf(v));
            const BitVector other = BitVector::random(len, rng);
            ASSERT_EQ(other.equalsPrefixOf(v), other == prefix);
            ASSERT_EQ(other.dotPrefix(v), other.dot(prefix));
            if (len > 0) {
                BitVector off = prefix;
                off.flip(rng.nextBelow(len));
                ASSERT_FALSE(off.equalsPrefixOf(v));
            }
        }
    }
}

TEST(BitVector, ForEachSetBitAscending)
{
    const BitVector v = BitVector::fromIndices(150, {149, 0, 64, 63});
    std::vector<std::size_t> seen;
    v.forEachSetBit([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 63, 64, 149}));
}

TEST(BitVector, Comparison)
{
    const BitVector a = BitVector::fromUint(1, 8);
    const BitVector b = BitVector::fromUint(2, 8);
    EXPECT_NE(a, b);
    const BitVector shorter = BitVector::fromUint(1, 4);
    EXPECT_NE(a, shorter);
}

TEST(BitVector, ToString)
{
    const BitVector v = BitVector::fromUint(0b101, 5);
    EXPECT_EQ(v.toString(), "10100");
}

TEST(BitVector, RandomHasRoughlyHalfOnes)
{
    common::Xoshiro256 rng(13);
    std::size_t total = 0;
    const int trials = 50;
    for (int i = 0; i < trials; ++i)
        total += BitVector::random(256, rng).popcount();
    const double mean = static_cast<double>(total) / trials;
    EXPECT_NEAR(mean, 128.0, 12.0);
}

TEST(BitVector, RandomMasksTail)
{
    common::Xoshiro256 rng(19);
    for (int i = 0; i < 20; ++i) {
        const BitVector v = BitVector::random(71, rng);
        EXPECT_LE(v.popcount(), 71u);
        // Words beyond the tail must be masked: slice back and compare.
        EXPECT_EQ(v.slice(0, 71), v);
    }
}

} // namespace
} // namespace harp::gf2
