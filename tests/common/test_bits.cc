/**
 * @file
 * Unit tests for low-level bit helpers.
 */

#include <gtest/gtest.h>

#include "common/bits.hh"

namespace harp::common {
namespace {

TEST(Bits, WordIndexAndOffset)
{
    EXPECT_EQ(wordIndex(0), 0u);
    EXPECT_EQ(wordIndex(63), 0u);
    EXPECT_EQ(wordIndex(64), 1u);
    EXPECT_EQ(wordIndex(128), 2u);
    EXPECT_EQ(bitOffset(0), 0u);
    EXPECT_EQ(bitOffset(63), 63u);
    EXPECT_EQ(bitOffset(64), 0u);
    EXPECT_EQ(bitOffset(65), 1u);
}

TEST(Bits, WordsFor)
{
    EXPECT_EQ(wordsFor(0), 0u);
    EXPECT_EQ(wordsFor(1), 1u);
    EXPECT_EQ(wordsFor(64), 1u);
    EXPECT_EQ(wordsFor(65), 2u);
    EXPECT_EQ(wordsFor(128), 2u);
    EXPECT_EQ(wordsFor(129), 3u);
}

TEST(Bits, TailMask)
{
    EXPECT_EQ(tailMask(64), ~std::uint64_t{0});
    EXPECT_EQ(tailMask(128), ~std::uint64_t{0});
    EXPECT_EQ(tailMask(1), 1u);
    EXPECT_EQ(tailMask(7), 0x7Fu);
    EXPECT_EQ(tailMask(71), 0x7Fu);
}

TEST(Bits, Parity64)
{
    EXPECT_EQ(parity64(0), 0);
    EXPECT_EQ(parity64(1), 1);
    EXPECT_EQ(parity64(3), 0);
    EXPECT_EQ(parity64(7), 1);
    EXPECT_EQ(parity64(~std::uint64_t{0}), 0);
}

} // namespace
} // namespace harp::common
