/**
 * @file
 * Unit tests for the simulated memory chip: on-die ECC read/write paths,
 * the decode-bypass path, and retention-error injection.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "memsys/memory_chip.hh"

namespace harp::mem {
namespace {

ecc::HammingCode
makeCode(std::uint64_t seed = 1)
{
    common::Xoshiro256 rng(seed);
    return ecc::HammingCode::randomSec(64, rng);
}

TEST(MemoryChip, Geometry)
{
    const ecc::HammingCode code = makeCode();
    MemoryChip chip(code, 8);
    EXPECT_EQ(chip.numWords(), 8u);
    EXPECT_EQ(chip.datawordBits(), 64u);
    EXPECT_EQ(chip.storedCodeword(7).size(), 71u);
}

TEST(MemoryChip, WriteReadRoundTrip)
{
    const ecc::HammingCode code = makeCode();
    MemoryChip chip(code, 4);
    common::Xoshiro256 rng(2);
    gf2::BitVector read(64);
    for (std::size_t w = 0; w < chip.numWords(); ++w) {
        const gf2::BitVector d = gf2::BitVector::random(64, rng);
        chip.write(w, d);
        chip.readInto(w, read);
        EXPECT_EQ(read, d);
        EXPECT_EQ(chip.readRaw(w), d);
    }
}

TEST(MemoryChip, RawReadExposesUncorrectedErrors)
{
    const ecc::HammingCode code = makeCode();
    MemoryChip chip(code, 1);
    common::Xoshiro256 rng(3);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    chip.write(0, d);

    // Single data-bit corruption: normal read corrects it, raw read does
    // not — exactly the difference HARP's active phase exploits.
    gf2::BitVector mask(71);
    mask.set(10, true);
    chip.corrupt(0, mask);

    gf2::BitVector read(64);
    chip.readInto(0, read);
    EXPECT_EQ(read, d);
    gf2::BitVector expected_raw = d;
    expected_raw.flip(10);
    EXPECT_EQ(chip.readRaw(0), expected_raw);
}

TEST(MemoryChip, RawReadHidesParityBits)
{
    const ecc::HammingCode code = makeCode();
    MemoryChip chip(code, 1);
    common::Xoshiro256 rng(4);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    chip.write(0, d);
    // Corrupt only a parity cell: the raw (data-only) view is unchanged.
    gf2::BitVector mask(71);
    mask.set(68, true);
    chip.corrupt(0, mask);
    EXPECT_EQ(chip.readRaw(0), d);
    EXPECT_EQ(chip.readRaw(0).size(), 64u);
}

TEST(MemoryChip, ErrorsPersistUntilRewrite)
{
    const ecc::HammingCode code = makeCode();
    MemoryChip chip(code, 1);
    common::Xoshiro256 rng(5);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    chip.write(0, d);
    gf2::BitVector mask(71);
    mask.set(0, true);
    mask.set(1, true);
    chip.corrupt(0, mask);
    // Two raw errors stay visible across reads (reads are non-destructive).
    EXPECT_EQ(chip.readRaw(0), chip.readRaw(0));
    EXPECT_NE(chip.readRaw(0), d);
    // Rewriting clears them.
    chip.write(0, d);
    EXPECT_EQ(chip.readRaw(0), d);
}

TEST(MemoryChip, RetentionTickHonoursFaultModel)
{
    const ecc::HammingCode code = makeCode();
    MemoryChip chip(code, 1);
    common::Xoshiro256 rng(6);
    gf2::BitVector d(64);
    d.fill(true); // every data cell charged
    chip.write(0, d);

    chip.setFaultModel(0, fault::WordFaultModel(71, {{7, 1.0}}));
    EXPECT_EQ(chip.retentionTick(0, rng), 1u);
    EXPECT_FALSE(chip.readRaw(0).get(7));
    // A second tick cannot flip the (now discharged) true-cell again.
    EXPECT_EQ(chip.retentionTick(0, rng), 0u);
}

TEST(MemoryChip, RetentionWithNoFaultModelIsNoop)
{
    const ecc::HammingCode code = makeCode();
    MemoryChip chip(code, 2);
    common::Xoshiro256 rng(7);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    chip.write(1, d);
    EXPECT_EQ(chip.retentionTick(1, rng), 0u);
    EXPECT_EQ(chip.readRaw(1), d);
}

TEST(MemoryChip, SetFaultModelValidatesSize)
{
    const ecc::HammingCode code = makeCode();
    MemoryChip chip(code, 1);
    EXPECT_THROW(chip.setFaultModel(0, fault::WordFaultModel(64, {})),
                 std::invalid_argument);
}

TEST(MemoryChip, OutOfRangeWordThrows)
{
    const ecc::HammingCode code = makeCode();
    MemoryChip chip(code, 2);
    gf2::BitVector d(64);
    EXPECT_THROW(chip.write(2, d), std::out_of_range);
    EXPECT_THROW(chip.readInto(5, d), std::out_of_range);
    EXPECT_THROW(chip.readRaw(3), std::out_of_range);
}

TEST(MemoryChip, StoredCodewordMatchesEncoder)
{
    const ecc::HammingCode code = makeCode(9);
    MemoryChip chip(code, 1);
    common::Xoshiro256 rng(9);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    chip.write(0, d);
    EXPECT_EQ(chip.storedCodeword(0), code.encode(d));
}

} // namespace
} // namespace harp::mem
