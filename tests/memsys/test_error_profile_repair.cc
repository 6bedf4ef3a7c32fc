/**
 * @file
 * Unit tests for the error profile and the ideal bit-repair mechanism.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "memsys/error_profile.hh"
#include "memsys/repair_mechanism.hh"

namespace harp::mem {
namespace {

TEST(ErrorProfile, StartsEmpty)
{
    const ErrorProfile profile(4, 64);
    EXPECT_EQ(profile.wordBits(), 64u);
    EXPECT_EQ(profile.totalAtRisk(), 0u);
    EXPECT_FALSE(profile.isAtRisk(0, 0));
}

TEST(ErrorProfile, MarkIsIdempotent)
{
    ErrorProfile profile(2, 64);
    profile.markAtRisk(1, 10);
    profile.markAtRisk(1, 10);
    EXPECT_TRUE(profile.isAtRisk(1, 10));
    EXPECT_FALSE(profile.isAtRisk(0, 10));
    EXPECT_EQ(profile.totalAtRisk(), 1u);
}

TEST(ErrorProfile, WordBitmap)
{
    ErrorProfile profile(1, 16);
    profile.markAtRisk(0, 3);
    profile.markAtRisk(0, 9);
    EXPECT_EQ(profile.wordBitmap(0).setBits(),
              (std::vector<std::size_t>{3, 9}));
}

TEST(ErrorProfile, OutOfRangeThrows)
{
    ErrorProfile profile(1, 8);
    EXPECT_THROW(profile.markAtRisk(1, 0), std::out_of_range);
}

TEST(ErrorProfile, MarkWordBitmapOrsIntoExistingEntries)
{
    ErrorProfile profile(2, 8);
    profile.markAtRisk(1, 0);
    gf2::BitVector bits(8);
    bits.set(2, true);
    bits.set(5, true);
    profile.markWordBitmap(1, bits);
    EXPECT_EQ(profile.wordBitmap(1).setBits(),
              (std::vector<std::size_t>{0, 2, 5}));
    EXPECT_EQ(profile.totalAtRisk(), 3u);

    EXPECT_THROW(profile.markWordBitmap(1, gf2::BitVector(9)),
                 std::invalid_argument);
    EXPECT_THROW(profile.markWordBitmap(2, bits), std::out_of_range);
}

TEST(RepairMechanism, RepairsProfiledBitsAfterCapture)
{
    ErrorProfile profile(1, 16);
    profile.markAtRisk(0, 5);
    RepairMechanism repair(1);

    gf2::BitVector written = gf2::BitVector::fromUint(0xBEEF, 16);
    repair.onWrite(0, written, profile);

    gf2::BitVector read_back = written;
    read_back.flip(5); // the profiled bit got corrupted
    read_back.flip(9); // an unprofiled bit got corrupted too
    EXPECT_EQ(repair.repair(0, read_back), 1u);
    EXPECT_EQ(read_back.get(5), written.get(5));
    EXPECT_NE(read_back.get(9), written.get(9)); // not repaired
}

TEST(RepairMechanism, NoSpareNoRepair)
{
    // A bit profiled after the last write has no captured value yet.
    ErrorProfile profile(1, 16);
    RepairMechanism repair(1);
    const gf2::BitVector written = gf2::BitVector::fromUint(0x0F0F, 16);
    repair.onWrite(0, written, profile); // profile empty at write time
    profile.markAtRisk(0, 2);

    gf2::BitVector read_back = written;
    read_back.flip(2);
    EXPECT_EQ(repair.repair(0, read_back), 0u);
}

TEST(RepairMechanism, RepairIsValueAccurate)
{
    // Repair restores the captured value, it does not blindly flip.
    ErrorProfile profile(1, 8);
    profile.markAtRisk(0, 3);
    RepairMechanism repair(1);
    gf2::BitVector written(8);
    written.set(3, true);
    repair.onWrite(0, written, profile);

    gf2::BitVector clean_read = written;
    EXPECT_EQ(repair.repair(0, clean_read), 0u); // value already correct
    EXPECT_EQ(clean_read, written);
}

TEST(RepairMechanism, SpareAccounting)
{
    ErrorProfile profile(2, 8);
    profile.markAtRisk(0, 1);
    profile.markAtRisk(1, 2);
    profile.markAtRisk(1, 3);
    RepairMechanism repair(2);
    const gf2::BitVector d(8);
    repair.onWrite(0, d, profile);
    EXPECT_EQ(repair.spareBitsUsed(), 1u);
    repair.onWrite(1, d, profile);
    EXPECT_EQ(repair.spareBitsUsed(), 3u);
    // Re-writing the same word does not double-count.
    repair.onWrite(1, d, profile);
    EXPECT_EQ(repair.spareBitsUsed(), 3u);
}

TEST(RepairMechanism, BudgetExhaustionIsFirstComeFirstServed)
{
    // Word 0 carries profiled bits {3, 7, 11}, word 1 carries {2}.
    // With a budget of 2, the first capturing write wins the spares in
    // ascending bit order: {3, 7} get slots, 11 and word 1's bit 2 are
    // dropped deterministically.
    ErrorProfile profile(2, 16);
    for (const std::size_t bit : {3, 7, 11})
        profile.markAtRisk(0, bit);
    profile.markAtRisk(1, 2);
    RepairMechanism repair(2);
    repair.setCapacity(2);
    EXPECT_EQ(repair.capacity(), 2u);
    EXPECT_FALSE(repair.exhausted());

    const gf2::BitVector w0 = gf2::BitVector::fromUint(0xFFFF, 16);
    repair.onWrite(0, w0, profile);
    EXPECT_EQ(repair.spareBitsUsed(), 2u);
    EXPECT_TRUE(repair.exhausted());
    EXPECT_EQ(repair.droppedAllocations(), 1u); // bit 11

    const gf2::BitVector w1 = gf2::BitVector::fromUint(0x0004, 16);
    repair.onWrite(1, w1, profile);
    EXPECT_EQ(repair.spareBitsUsed(), 2u);
    EXPECT_EQ(repair.droppedAllocations(), 2u); // + word 1 bit 2

    // Exactly the FCFS winners {3, 7} are repaired; 11 and (1, 2) leak.
    gf2::BitVector read0 = w0;
    for (const std::size_t bit : {3, 7, 11})
        read0.flip(bit);
    EXPECT_EQ(repair.repair(0, read0), 2u);
    EXPECT_TRUE(read0.get(3));
    EXPECT_TRUE(read0.get(7));
    EXPECT_FALSE(read0.get(11));
    gf2::BitVector read1 = w1;
    read1.flip(2);
    EXPECT_EQ(repair.repair(1, read1), 0u);

    // Raising the budget lets the *next* capturing writes claim slots
    // for the previously dropped bits.
    repair.setCapacity(4);
    EXPECT_FALSE(repair.exhausted());
    repair.onWrite(0, w0, profile);
    repair.onWrite(1, w1, profile);
    EXPECT_EQ(repair.spareBitsUsed(), 4u);
    gf2::BitVector again = w0;
    again.flip(11);
    EXPECT_EQ(repair.repair(0, again), 1u);
    EXPECT_EQ(again, w0);
}

TEST(RepairMechanism, ValueRefreshNeverConsumesBudget)
{
    // Rewriting a word refreshes the values of already-allocated spares
    // without touching the budget or the dropped counter.
    ErrorProfile profile(1, 8);
    profile.markAtRisk(0, 5);
    RepairMechanism repair(1);
    repair.setCapacity(1);

    gf2::BitVector first(8);
    first.set(5, true);
    repair.onWrite(0, first, profile);
    EXPECT_TRUE(repair.exhausted());

    gf2::BitVector second(8); // bit 5 now 0
    repair.onWrite(0, second, profile);
    EXPECT_EQ(repair.spareBitsUsed(), 1u);
    EXPECT_EQ(repair.droppedAllocations(), 0u);

    // The spare tracks the latest write, not the first.
    gf2::BitVector read = second;
    read.flip(5);
    EXPECT_EQ(repair.repair(0, read), 1u);
    EXPECT_EQ(read, second);
}

TEST(RepairMechanism, ShrinkingCapacityDoesNotEvictSpares)
{
    // Spare rows cannot be un-soldered: shrinking the budget below the
    // allocated count keeps existing repairs working and only blocks
    // new allocations.
    ErrorProfile profile(1, 8);
    for (const std::size_t bit : {1, 4, 6})
        profile.markAtRisk(0, bit);
    RepairMechanism repair(1);
    const gf2::BitVector d = gf2::BitVector::fromUint(0xFF, 8);
    repair.onWrite(0, d, profile);
    EXPECT_EQ(repair.spareBitsUsed(), 3u);

    repair.setCapacity(1);
    EXPECT_TRUE(repair.exhausted());
    EXPECT_EQ(repair.spareBitsUsed(), 3u);
    gf2::BitVector read = d;
    for (const std::size_t bit : {1, 4, 6})
        read.flip(bit);
    EXPECT_EQ(repair.repair(0, read), 3u);

    // A newly profiled bit can no longer be captured.
    profile.markAtRisk(0, 0);
    repair.onWrite(0, d, profile);
    EXPECT_EQ(repair.spareBitsUsed(), 3u);
    EXPECT_EQ(repair.droppedAllocations(), 1u);
}

TEST(RepairMechanism, ZeroCapacityCapturesNothing)
{
    ErrorProfile profile(1, 8);
    profile.markAtRisk(0, 3);
    RepairMechanism repair(1);
    repair.setCapacity(0);
    EXPECT_TRUE(repair.exhausted());

    const gf2::BitVector d = gf2::BitVector::fromUint(0xAB, 8);
    repair.onWrite(0, d, profile);
    EXPECT_EQ(repair.spareBitsUsed(), 0u);
    EXPECT_EQ(repair.droppedAllocations(), 1u);
    gf2::BitVector read = d;
    read.flip(3);
    EXPECT_EQ(repair.repair(0, read), 0u);
}

/**
 * The mask-and-value spares against the per-bit model they replaced: a
 * map of captured (position, value) pairs per word, filled in
 * ascending bit order while the budget lasts. Random profile growth,
 * writes, capacity changes, reads and resets, over 1..3-storage-word
 * datawords, must agree on every repaired read and every counter.
 */
TEST(RepairMechanism, MatchesPerBitMapModel)
{
    common::Xoshiro256 rng(41);
    for (const std::size_t bits : {8, 64, 71, 136}) {
        constexpr std::size_t kWords = 3;
        ErrorProfile profile(kWords, bits);
        RepairMechanism repair(kWords);
        std::vector<std::map<std::size_t, bool>> model(kWords);
        std::size_t capacity = RepairMechanism::kUnlimited;
        std::size_t used = 0, dropped = 0;
        for (int op = 0; op < 4000; ++op) {
            const std::size_t word = rng.nextBelow(kWords);
            switch (rng.nextBelow(10)) {
              case 0:
              case 1:
                profile.markAtRisk(word, rng.nextBelow(bits));
                break;
              case 2:
              case 3:
              case 4: {
                const gf2::BitVector data =
                    gf2::BitVector::random(bits, rng);
                repair.onWrite(word, data, profile);
                profile.wordBitmap(word).forEachSetBit([&](std::size_t b) {
                    auto it = model[word].find(b);
                    if (it != model[word].end())
                        it->second = data.get(b);
                    else if (used >= capacity)
                        ++dropped;
                    else
                        model[word].emplace(b, data.get(b)), ++used;
                });
                break;
              }
              case 5:
                capacity = rng.nextBelow(2) ? RepairMechanism::kUnlimited
                                            : rng.nextBelow(12);
                repair.setCapacity(capacity);
                break;
              case 6:
                if (rng.nextBelow(20) == 0) {
                    repair.reset(kWords);
                    profile.reset(kWords, bits);
                    for (auto &spares : model)
                        spares.clear();
                    capacity = RepairMechanism::kUnlimited;
                    used = dropped = 0;
                }
                break;
              default: {
                gf2::BitVector read = gf2::BitVector::random(bits, rng);
                gf2::BitVector expected = read;
                std::size_t changed = 0;
                for (const auto &[b, value] : model[word]) {
                    changed += expected.get(b) != value;
                    expected.set(b, value);
                }
                ASSERT_EQ(repair.repair(word, read), changed);
                ASSERT_EQ(read, expected);
                break;
              }
            }
            ASSERT_EQ(repair.spareBitsUsed(), used);
            ASSERT_EQ(repair.droppedAllocations(), dropped);
        }
    }
}

} // namespace
} // namespace harp::mem
