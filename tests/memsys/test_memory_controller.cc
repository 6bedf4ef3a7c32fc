/**
 * @file
 * Unit and integration tests for the memory controller: repair + reactive
 * secondary-ECC profiling on the read path (HARP Fig. 5).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "memsys/memory_controller.hh"

namespace harp::mem {
namespace {

struct Rig
{
    ecc::HammingCode code;
    ecc::ExtendedHammingCode secondaryCode;
    MemoryChip chip;
    MemoryController controller;

    explicit Rig(std::uint64_t seed = 1, bool secondary = true)
        : code([&] {
              common::Xoshiro256 rng(seed);
              return ecc::HammingCode::randomSec(64, rng);
          }()),
          secondaryCode([&] {
              common::Xoshiro256 rng(seed + 1);
              return ecc::ExtendedHammingCode::randomSecDed(64, rng);
          }()),
          chip(code, 4),
          controller(chip, secondary ? &secondaryCode : nullptr)
    {
    }
};

TEST(MemoryController, CleanWriteReadRoundTrip)
{
    Rig rig;
    common::Xoshiro256 rng(2);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d);
    const ControllerReadResult r = rig.controller.read(0);
    EXPECT_EQ(r.dataword, d);
    EXPECT_FALSE(r.corrupt);
    EXPECT_FALSE(r.newlyProfiledBit.has_value());
    EXPECT_EQ(rig.controller.stats().reads, 1u);
    EXPECT_EQ(rig.controller.stats().writes, 1u);
}

TEST(MemoryController, OnDieEccAbsorbsSingleRawError)
{
    Rig rig;
    common::Xoshiro256 rng(3);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d);
    gf2::BitVector mask(71);
    mask.set(20, true);
    rig.chip.corrupt(0, mask);
    const ControllerReadResult r = rig.controller.read(0);
    EXPECT_EQ(r.dataword, d);
    EXPECT_FALSE(r.corrupt);
    // On-die ECC corrected it before the controller ever saw an error.
    EXPECT_EQ(rig.controller.stats().secondaryCorrections, 0u);
}

TEST(MemoryController, ReactiveProfilingIdentifiesIndirectError)
{
    // Find a double raw error whose decode miscorrects a third data bit;
    // the secondary ECC must correct it and record the bit in the profile.
    Rig rig;
    common::Xoshiro256 rng(4);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);

    std::optional<std::pair<std::size_t, std::size_t>> pair;
    std::size_t miscorrected = 0;
    for (std::size_t i = 0; i < 71 && !pair; ++i) {
        for (std::size_t j = i + 1; j < 71 && !pair; ++j) {
            const std::uint32_t s = rig.code.codewordColumn(i) ^
                                    rig.code.codewordColumn(j);
            const auto target = rig.code.syndromeToPosition(s);
            // Want both raw errors in parity so the *only* data-visible
            // error is the miscorrection itself (a pure indirect error).
            if (target && *target < 64 && i >= 64 && j >= 64) {
                pair = {i, j};
                miscorrected = *target;
            }
        }
    }
    ASSERT_TRUE(pair.has_value()) << "no parity-parity miscorrection in "
                                     "this code; seed choice invalid";

    rig.controller.write(0, d);
    gf2::BitVector mask(71);
    mask.set(pair->first, true);
    mask.set(pair->second, true);
    rig.chip.corrupt(0, mask);

    const ControllerReadResult r = rig.controller.read(0);
    EXPECT_EQ(r.dataword, d) << "secondary ECC must undo the miscorrection";
    EXPECT_FALSE(r.corrupt);
    ASSERT_TRUE(r.newlyProfiledBit.has_value());
    EXPECT_EQ(*r.newlyProfiledBit, miscorrected);
    EXPECT_TRUE(rig.controller.profile().isAtRisk(0, miscorrected));
    EXPECT_EQ(rig.controller.stats().reactiveIdentifications, 1u);
    // The same bit failing again is corrected but not re-identified.
    rig.controller.write(0, d);
    rig.chip.corrupt(0, mask);
    const ControllerReadResult r2 = rig.controller.read(0);
    EXPECT_FALSE(r2.newlyProfiledBit.has_value());
    EXPECT_EQ(rig.controller.stats().reactiveIdentifications, 1u);
}

TEST(MemoryController, RepairShieldsSecondaryFromProfiledBits)
{
    Rig rig;
    common::Xoshiro256 rng(5);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    // Pre-profile data bit 12, then write (capturing the spare value).
    rig.controller.profile().markAtRisk(0, 12);
    rig.controller.write(0, d);

    // Two raw data errors: one at the profiled bit and one elsewhere.
    // Without repair the secondary SECDED would see a double error; with
    // repair it sees a single (safe) one.
    gf2::BitVector mask(71);
    mask.set(12, true);
    // Find a companion data position whose pair syndrome maps nowhere or
    // to parity, so post-correction errors are exactly {12, companion}.
    std::size_t companion = 71;
    for (std::size_t j = 0; j < 64; ++j) {
        if (j == 12)
            continue;
        const std::uint32_t s = rig.code.codewordColumn(12) ^
                                rig.code.codewordColumn(j);
        const auto target = rig.code.syndromeToPosition(s);
        if (!target || *target >= 64) {
            companion = j;
            break;
        }
    }
    ASSERT_LT(companion, 71u);
    mask.set(companion, true);
    rig.chip.corrupt(0, mask);

    const ControllerReadResult r = rig.controller.read(0);
    EXPECT_FALSE(r.corrupt);
    EXPECT_EQ(r.dataword, d);
    EXPECT_EQ(rig.controller.stats().repairedBits, 1u);
    EXPECT_EQ(rig.controller.stats().secondaryCorrections, 1u);
}

TEST(MemoryController, UncorrectableDoubleErrorFlagged)
{
    Rig rig;
    common::Xoshiro256 rng(6);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d);

    // Two data errors whose syndrome maps to parity or nowhere: the
    // post-correction word carries both, exceeding SECDED correction.
    std::size_t a = 71, b = 71;
    for (std::size_t i = 0; i < 64 && a == 71; ++i) {
        for (std::size_t j = i + 1; j < 64; ++j) {
            const std::uint32_t s = rig.code.codewordColumn(i) ^
                                    rig.code.codewordColumn(j);
            const auto target = rig.code.syndromeToPosition(s);
            if (!target || *target >= 64) {
                a = i;
                b = j;
                break;
            }
        }
    }
    ASSERT_LT(a, 71u);
    gf2::BitVector mask(71);
    mask.set(a, true);
    mask.set(b, true);
    rig.chip.corrupt(0, mask);

    const ControllerReadResult r = rig.controller.read(0);
    EXPECT_TRUE(r.corrupt);
    EXPECT_EQ(rig.controller.stats().uncorrectableEvents, 1u);
}

TEST(MemoryController, DetectedUncorrectableNeitherProfilesNorRepairs)
{
    // A detected-but-uncorrectable read must be reported and *only*
    // reported: no reactive identification (SECDED cannot localize a
    // double error), no profile growth, no spare allocation — and the
    // event recurs on every read while the corruption persists.
    Rig rig(10);
    common::Xoshiro256 rng(11);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d);

    std::size_t a = 71, b = 71;
    for (std::size_t i = 0; i < 64 && a == 71; ++i) {
        for (std::size_t j = i + 1; j < 64; ++j) {
            const std::uint32_t s = rig.code.codewordColumn(i) ^
                                    rig.code.codewordColumn(j);
            const auto target = rig.code.syndromeToPosition(s);
            if (!target || *target >= 64) {
                a = i;
                b = j;
                break;
            }
        }
    }
    ASSERT_LT(a, 71u);
    gf2::BitVector mask(71);
    mask.set(a, true);
    mask.set(b, true);
    rig.chip.corrupt(0, mask);

    for (std::size_t attempt = 1; attempt <= 3; ++attempt) {
        const ControllerReadResult r = rig.controller.read(0);
        EXPECT_TRUE(r.corrupt);
        EXPECT_NE(r.dataword, d);
        EXPECT_FALSE(r.newlyProfiledBit.has_value());
        EXPECT_EQ(rig.controller.stats().uncorrectableEvents, attempt);
    }
    EXPECT_EQ(rig.controller.stats().reactiveIdentifications, 0u);
    EXPECT_EQ(rig.controller.profile().totalAtRisk(), 0u);
    EXPECT_EQ(rig.controller.repairMechanism().spareBitsUsed(), 0u);
    EXPECT_EQ(rig.controller.stats().secondaryCorrections, 0u);

    // An application rewrite clears the stored corruption.
    rig.controller.write(0, d);
    const ControllerReadResult clean = rig.controller.read(0);
    EXPECT_FALSE(clean.corrupt);
    EXPECT_EQ(clean.dataword, d);
}

TEST(MemoryController, ZeroRepairCapacityExposesProfiledBitToSecondary)
{
    // With the spare budget at zero, a profiled bit's error is no
    // longer absorbed by repair; the secondary SECDED has to correct
    // it on the read path instead.
    Rig rig(12);
    rig.controller.profile().markAtRisk(0, 12);
    rig.controller.setRepairCapacity(0);
    common::Xoshiro256 rng(13);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d);

    EXPECT_TRUE(rig.controller.repairMechanism().exhausted());
    EXPECT_EQ(rig.controller.repairMechanism().capacity(), 0u);
    EXPECT_EQ(rig.controller.repairMechanism().droppedAllocations(), 1u);
    EXPECT_EQ(rig.controller.repairMechanism().spareBitsUsed(), 0u);

    gf2::BitVector mask(71);
    mask.set(12, true);
    // A lone parity companion keeps the post-correction error single:
    // find one whose pair syndrome maps nowhere or to parity.
    std::size_t companion = 71;
    for (std::size_t j = 0; j < 64; ++j) {
        if (j == 12)
            continue;
        const std::uint32_t s = rig.code.codewordColumn(12) ^
                                rig.code.codewordColumn(j);
        const auto target = rig.code.syndromeToPosition(s);
        if (!target || *target >= 64) {
            companion = j;
            break;
        }
    }
    ASSERT_LT(companion, 71u);
    mask.set(companion, true);
    rig.chip.corrupt(0, mask);

    // Same construction as RepairShieldsSecondaryFromProfiledBits, but
    // the shield is gone: both errors reach the secondary SECDED and
    // the word is uncorrectable.
    const ControllerReadResult r = rig.controller.read(0);
    EXPECT_TRUE(r.corrupt);
    EXPECT_EQ(rig.controller.stats().repairedBits, 0u);
    EXPECT_EQ(rig.controller.stats().uncorrectableEvents, 1u);
}

TEST(MemoryController, WithoutSecondaryEccErrorsPassThrough)
{
    Rig rig(7, /*secondary=*/false);
    common::Xoshiro256 rng(8);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d);

    // Same double-data-error construction as above.
    std::size_t a = 71, b = 71;
    for (std::size_t i = 0; i < 64 && a == 71; ++i) {
        for (std::size_t j = i + 1; j < 64; ++j) {
            const std::uint32_t s = rig.code.codewordColumn(i) ^
                                    rig.code.codewordColumn(j);
            const auto target = rig.code.syndromeToPosition(s);
            if (!target || *target >= 64) {
                a = i;
                b = j;
                break;
            }
        }
    }
    ASSERT_LT(a, 71u);
    gf2::BitVector mask(71);
    mask.set(a, true);
    mask.set(b, true);
    rig.chip.corrupt(0, mask);

    const ControllerReadResult r = rig.controller.read(0);
    EXPECT_NE(r.dataword, d); // errors reach the CPU unchecked
    EXPECT_FALSE(r.corrupt);  // and unreported: no secondary ECC
}

/**
 * One result reused across every kind of read must come out exactly as
 * a fresh read() would: readInto overwrites every field, so no flag of
 * an earlier read (a newly profiled bit, an uncorrectable verdict) and
 * no stale dataword survives into the next one.
 */
TEST(MemoryController, ReadIntoReusedResultMatchesFreshRead)
{
    Rig reused;
    Rig fresh;
    const ecc::HammingCode &code = reused.code;

    // Two parity errors the on-die decoder miscorrects into a data bit:
    // the secondary corrects it and newly profiles the bit.
    gf2::BitVector indirect(71);
    for (std::size_t i = 64; i < 71 && indirect.isZero(); ++i)
        for (std::size_t j = i + 1; j < 71; ++j) {
            const auto target = code.syndromeToPosition(
                code.codewordColumn(i) ^ code.codewordColumn(j));
            if (target && *target < 64) {
                indirect.set(i, true);
                indirect.set(j, true);
                break;
            }
        }
    ASSERT_FALSE(indirect.isZero());
    // Two data errors the on-die decoder leaves alone: uncorrectable.
    gf2::BitVector uncorrectable(71);
    for (std::size_t i = 0; i < 64 && uncorrectable.isZero(); ++i)
        for (std::size_t j = i + 1; j < 64; ++j) {
            const auto target = code.syndromeToPosition(
                code.codewordColumn(i) ^ code.codewordColumn(j));
            if (!target || *target >= 64) {
                uncorrectable.set(i, true);
                uncorrectable.set(j, true);
                break;
            }
        }
    ASSERT_FALSE(uncorrectable.isZero());
    const gf2::BitVector clean(71);

    // Start from a result no read could produce.
    ControllerReadResult result;
    result.dataword = gf2::BitVector(3);
    result.corrupt = true;
    result.newlyProfiledBit = 2;

    common::Xoshiro256 rng(14);
    std::size_t profiled = 0, corrupt = 0;
    // The second `indirect` corrects a bit that is already profiled.
    const std::vector<const gf2::BitVector *> steps = {
        &clean, &indirect, &clean, &uncorrectable, &clean, &indirect,
        &clean};
    for (const gf2::BitVector *mask : steps) {
        const gf2::BitVector d = gf2::BitVector::random(64, rng);
        for (Rig *rig : {&reused, &fresh}) {
            rig->controller.write(0, d);
            rig->chip.corrupt(0, *mask);
        }
        reused.controller.readInto(0, result);
        const ControllerReadResult expected = fresh.controller.read(0);
        EXPECT_EQ(result.dataword, expected.dataword);
        EXPECT_EQ(result.corrupt, expected.corrupt);
        EXPECT_EQ(result.newlyProfiledBit, expected.newlyProfiledBit);
        profiled += expected.newlyProfiledBit.has_value();
        corrupt += expected.corrupt;
    }
    EXPECT_EQ(profiled, 1u);
    EXPECT_EQ(corrupt, 1u);
    EXPECT_EQ(reused.controller.stats().reads, 7u);
    EXPECT_EQ(reused.controller.stats().secondaryCorrections,
              fresh.controller.stats().secondaryCorrections);
    EXPECT_EQ(reused.controller.profile().totalAtRisk(), 1u);
}

/** Stats and profile counters of a controller, for whole-state
 *  equality. */
std::vector<std::size_t>
countersOf(const MemoryController &c)
{
    const ControllerStats &s = c.stats();
    return {s.reads,
            s.writes,
            s.repairedBits,
            s.secondaryCorrections,
            s.uncorrectableEvents,
            s.reactiveIdentifications,
            s.scrubs,
            s.scrubWritebacks,
            c.profile().totalAtRisk(),
            c.repairMechanism().spareBitsUsed(),
            c.repairMechanism().droppedAllocations()};
}

/**
 * A chip and controller reset onto new codes and a new word count act
 * exactly like a freshly built pair: one random workload of writes,
 * raw strikes, reads, scrubs, profiling and a repair budget runs on
 * both, and every read, stored codeword and counter must agree. The
 * resets go 64 -> 128 -> 64 data bits and 4 -> 6 -> 2 words, so stale
 * storage of every size is reused.
 */
TEST(MemoryController, ResetPairMatchesFreshPair)
{
    common::Xoshiro256 rng(15);
    Rig reused;
    for (const auto &[k, words] :
         {std::pair<std::size_t, std::size_t>{64, 4}, {128, 6}, {64, 2}}) {
        const ecc::HammingCode code = ecc::HammingCode::randomSec(k, rng);
        const ecc::ExtendedHammingCode secondary =
            ecc::ExtendedHammingCode::randomSecDed(k, rng);
        reused.chip.reset(code, words);
        reused.controller.reset(&secondary);
        MemoryChip chip(code, words);
        MemoryController fresh(chip, &secondary);
        for (MemoryController *c : {&reused.controller, &fresh})
            c->setRepairCapacity(5);

        ControllerReadResult got;
        for (int op = 0; op < 600; ++op) {
            const std::size_t word = rng.nextBelow(words);
            switch (rng.nextBelow(6)) {
              case 0: {
                const gf2::BitVector d = gf2::BitVector::random(k, rng);
                reused.controller.write(word, d);
                fresh.write(word, d);
                break;
              }
              case 1: {
                gf2::BitVector mask(code.n());
                for (std::size_t e = 1 + rng.nextBelow(2); e > 0; --e)
                    mask.flip(rng.nextBelow(code.n()));
                reused.chip.corrupt(word, mask);
                chip.corrupt(word, mask);
                break;
              }
              case 2: {
                const std::size_t bit = rng.nextBelow(k);
                reused.controller.profile().markAtRisk(word, bit);
                fresh.profile().markAtRisk(word, bit);
                break;
              }
              case 3:
                ASSERT_EQ(reused.controller.scrubAll(), fresh.scrubAll());
                break;
              default: {
                reused.controller.readInto(word, got);
                const ControllerReadResult expected = fresh.read(word);
                ASSERT_EQ(got.dataword, expected.dataword);
                ASSERT_EQ(got.corrupt, expected.corrupt);
                ASSERT_EQ(got.newlyProfiledBit, expected.newlyProfiledBit);
                break;
              }
            }
            ASSERT_EQ(reused.chip.storedCodeword(word),
                      chip.storedCodeword(word));
        }
        EXPECT_EQ(countersOf(reused.controller), countersOf(fresh));
        EXPECT_GT(fresh.stats().uncorrectableEvents, 0u);
        EXPECT_GT(fresh.stats().scrubWritebacks, 0u);
    }
}

TEST(MemoryController, ReadRawUsesBypassPath)
{
    Rig rig;
    common::Xoshiro256 rng(9);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d);
    gf2::BitVector mask(71);
    mask.set(30, true);
    rig.chip.corrupt(0, mask);
    gf2::BitVector expected = d;
    expected.flip(30);
    EXPECT_EQ(rig.controller.readRaw(0), expected);
}

} // namespace
} // namespace harp::mem
