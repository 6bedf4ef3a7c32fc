/**
 * @file
 * Tests for ECC scrubbing — the classic reactive-profiling mechanism
 * (HARP section 2.3.2) — on the memory controller.
 */

#include <gtest/gtest.h>

#include <array>

#include "common/rng.hh"
#include "memsys/memory_controller.hh"

namespace harp::mem {
namespace {

struct Rig
{
    ecc::HammingCode code;
    ecc::ExtendedHammingCode secondary;
    MemoryChip chip;
    MemoryController controller;

    explicit Rig(std::uint64_t seed = 1, std::size_t words = 2)
        : code([&] {
              common::Xoshiro256 rng(seed);
              return ecc::HammingCode::randomSec(64, rng);
          }()),
          secondary([&] {
              common::Xoshiro256 rng(seed + 1);
              return ecc::ExtendedHammingCode::randomSecDed(64, rng);
          }()),
          chip(code, words),
          controller(chip, &secondary)
    {
    }
};

TEST(Scrubbing, CleanWordNeedsNoWriteback)
{
    Rig rig;
    common::Xoshiro256 rng(2);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d);
    const ControllerReadResult r = rig.controller.scrub(0);
    EXPECT_FALSE(r.corrupt);
    EXPECT_EQ(r.dataword, d);
    EXPECT_EQ(rig.controller.stats().scrubs, 1u);
    EXPECT_EQ(rig.controller.stats().scrubWritebacks, 0u);
}

TEST(Scrubbing, WritebackClearsAccumulatedDataErrors)
{
    Rig rig;
    common::Xoshiro256 rng(3);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d);
    // One raw data error: on-die ECC corrects it on read; scrubbing must
    // also rewrite the stored codeword so the error cannot combine with
    // future ones.
    gf2::BitVector mask(71);
    mask.set(33, true);
    rig.chip.corrupt(0, mask);

    const ControllerReadResult r = rig.controller.scrub(0);
    EXPECT_FALSE(r.corrupt);
    EXPECT_EQ(r.dataword, d);
    EXPECT_EQ(rig.controller.stats().scrubWritebacks, 1u);
    // The stored codeword is clean again.
    EXPECT_EQ(rig.chip.storedCodeword(0), rig.code.encode(d));
}

TEST(Scrubbing, ScrubDoesNotCountAsApplicationWrite)
{
    Rig rig;
    common::Xoshiro256 rng(4);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d);
    gf2::BitVector mask(71);
    mask.set(5, true);
    rig.chip.corrupt(0, mask);
    rig.controller.scrub(0);
    EXPECT_EQ(rig.controller.stats().writes, 1u);
}

TEST(Scrubbing, ParityOnlyErrorsAreInvisibleToScrub)
{
    // The bypass path hides parity bits, so a parity-cell error neither
    // triggers a writeback nor harms data by itself.
    Rig rig;
    common::Xoshiro256 rng(5);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d);
    gf2::BitVector mask(71);
    mask.set(67, true); // parity cell
    rig.chip.corrupt(0, mask);
    const ControllerReadResult r = rig.controller.scrub(0);
    EXPECT_FALSE(r.corrupt);
    EXPECT_EQ(r.dataword, d);
    EXPECT_EQ(rig.controller.stats().scrubWritebacks, 0u);
    // The parity error persists in storage (on-die ECC opacity).
    EXPECT_NE(rig.chip.storedCodeword(0), rig.code.encode(d));
}

TEST(Scrubbing, ScrubVersusProfileDrivenRepair)
{
    // The paper's motivation in miniature. Two rarely-failing at-risk
    // data cells (p = 0.02/window). Three system configurations:
    //
    //  (a) no scrubbing: lone raw errors persist across windows and
    //      eventually coincide — the word ends up permanently
    //      uncorrectable;
    //  (b) scrubbing only: cross-window accumulation is cleaned, but
    //      solo failures are corrected *inside the chip* (invisible to
    //      the controller), so the cells are never learned or repaired
    //      and an eventual same-window double failure still sticks;
    //  (c) scrubbing + HARP active profile: the direct-at-risk cells are
    //      profiled (bypass path) and repaired, so even coincident
    //      failures are absorbed — zero corrupt reads forever.
    enum class Mode { NoScrub, ScrubOnly, ScrubWithProfile };
    constexpr std::size_t num_words = 30;
    constexpr int windows = 400;
    std::array<std::size_t, 3> danger_windows{};
    std::array<std::size_t, 3> corrupt_reads{};

    for (const Mode mode : {Mode::NoScrub, Mode::ScrubOnly,
                            Mode::ScrubWithProfile}) {
        const std::size_t idx = static_cast<std::size_t>(mode);
        for (std::size_t word_seed = 0; word_seed < num_words;
             ++word_seed) {
            Rig rig(6);
            common::Xoshiro256 rng(7 + word_seed);
            const gf2::BitVector d = gf2::BitVector::random(64, rng);
            std::vector<fault::CellFault> cells;
            for (std::size_t pos = 0; pos < 64 && cells.size() < 2;
                 ++pos)
                if (d.get(pos))
                    cells.push_back({pos, 0.02});
            ASSERT_EQ(cells.size(), 2u);
            rig.chip.setFaultModel(0, fault::WordFaultModel(71, cells));

            if (mode == Mode::ScrubWithProfile) {
                // Outcome of HARP's active phase: both cells profiled.
                for (const fault::CellFault &cell : cells)
                    rig.controller.profile().markAtRisk(0,
                                                        cell.position);
            }
            rig.controller.write(0, d);

            common::Xoshiro256 retention(1000 + word_seed);
            for (int window = 0; window < windows; ++window) {
                rig.chip.retentionTick(0, retention);
                gf2::BitVector raw = rig.controller.readRaw(0);
                raw ^= d;
                if (raw.popcount() >= 2)
                    ++danger_windows[idx]; // SEC on-die code overwhelmed
                if (mode != Mode::NoScrub) {
                    const ControllerReadResult r =
                        rig.controller.scrub(0);
                    if (r.corrupt || !(r.dataword == d))
                        ++corrupt_reads[idx];
                }
            }
        }
    }

    // (a) most words accumulate into the danger state and stay there.
    EXPECT_GT(danger_windows[0], num_words * windows / 2);
    // (b) scrubbing cuts danger-state time by a wide margin (only the
    // rare same-window coincidence can stick).
    EXPECT_LT(danger_windows[1] * 2, danger_windows[0]);
    // (c) profile-driven repair absorbs everything: no corrupt reads,
    // even though raw double-failures still physically occur.
    EXPECT_EQ(corrupt_reads[2], 0u);
}

/** Two data positions whose combined syndrome maps to parity or
 *  nowhere: the on-die decode leaves both standing, and the secondary
 *  SECDED sees a detected-but-uncorrectable double error. */
std::pair<std::size_t, std::size_t>
uncorrectableDataPair(const ecc::HammingCode &code)
{
    for (std::size_t i = 0; i < 64; ++i) {
        for (std::size_t j = i + 1; j < 64; ++j) {
            const std::uint32_t s =
                code.codewordColumn(i) ^ code.codewordColumn(j);
            const auto target = code.syndromeToPosition(s);
            if (!target || *target >= 64)
                return {i, j};
        }
    }
    ADD_FAILURE() << "no uncorrectable data pair in this code";
    return {0, 1};
}

TEST(Scrubbing, FaultArrivingMidScrubPassWaitsForTheNextPass)
{
    // A scrub pass visits words in order. A fault that lands on a word
    // the pass has *already* visited stays in storage until the next
    // pass comes around — the boundary case a fleet scrub interval has
    // to price in.
    Rig rig(11, 2);
    common::Xoshiro256 rng(12);
    const gf2::BitVector d0 = gf2::BitVector::random(64, rng);
    const gf2::BitVector d1 = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d0);
    rig.controller.write(1, d1);

    rig.controller.scrub(0); // pass visits word 0...
    gf2::BitVector mask(71);
    mask.set(17, true); // ...fault lands just behind the scrub pointer
    rig.chip.corrupt(0, mask);
    rig.controller.scrub(1); // ...pass finishes without revisiting

    // The error survived the pass in storage (reads still correct it).
    EXPECT_EQ(rig.controller.stats().scrubWritebacks, 0u);
    EXPECT_NE(rig.chip.storedCodeword(0), rig.code.encode(d0));
    EXPECT_EQ(rig.controller.read(0).dataword, d0);

    // The *next* pass cleans it up.
    EXPECT_EQ(rig.controller.scrubAll(), 0u);
    EXPECT_EQ(rig.controller.stats().scrubWritebacks, 1u);
    EXPECT_EQ(rig.chip.storedCodeword(0), rig.code.encode(d0));
}

TEST(Scrubbing, ScrubTimingDecidesWhetherTwoFaultsCombine)
{
    // The same two single-bit faults in the same word: benign when a
    // scrub lands between them, uncorrectable when both arrive within
    // one scrub window.
    const auto [a, b] = uncorrectableDataPair(Rig(13).code);
    for (const bool scrub_between : {true, false}) {
        Rig rig(13);
        common::Xoshiro256 rng(14);
        const gf2::BitVector d = gf2::BitVector::random(64, rng);
        rig.controller.write(0, d);

        gf2::BitVector first(71), second(71);
        first.set(a, true);
        second.set(b, true);
        rig.chip.corrupt(0, first);
        if (scrub_between) {
            EXPECT_FALSE(rig.controller.scrub(0).corrupt);
        }
        rig.chip.corrupt(0, second);

        const ControllerReadResult r = rig.controller.read(0);
        if (scrub_between) {
            EXPECT_FALSE(r.corrupt);
            EXPECT_EQ(r.dataword, d);
            EXPECT_EQ(rig.controller.stats().uncorrectableEvents, 0u);
        } else {
            EXPECT_TRUE(r.corrupt);
            EXPECT_EQ(rig.controller.stats().uncorrectableEvents, 1u);
        }
    }
}

TEST(Scrubbing, UnscrubbableWordIsNotWrittenBack)
{
    // When the full correction path cannot produce clean data, scrub
    // must not launder the corruption into a writeback: the stored
    // word stays as-is and the word is reported corrupt.
    Rig rig(15);
    const auto [a, b] = uncorrectableDataPair(rig.code);
    common::Xoshiro256 rng(16);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    rig.controller.write(0, d);
    rig.controller.write(1, d);
    gf2::BitVector mask(71);
    mask.set(a, true);
    mask.set(b, true);
    rig.chip.corrupt(0, mask);
    const gf2::BitVector stored_before = rig.chip.storedCodeword(0);

    EXPECT_EQ(rig.controller.scrubAll(), 1u);
    EXPECT_EQ(rig.controller.stats().scrubWritebacks, 0u);
    EXPECT_EQ(rig.chip.storedCodeword(0), stored_before);
    // And it stays corrupt on every later pass: scrubbing cannot fix
    // a word that has already exceeded the correction capability.
    EXPECT_EQ(rig.controller.scrubAll(), 1u);
}

TEST(Scrubbing, ScrubAllCoversEveryWord)
{
    Rig rig(9, 4);
    common::Xoshiro256 rng(10);
    for (std::size_t w = 0; w < 4; ++w)
        rig.controller.write(w, gf2::BitVector::random(64, rng));
    for (std::size_t w = 0; w < 4; ++w) {
        gf2::BitVector mask(71);
        mask.set(w * 3, true);
        rig.chip.corrupt(w, mask);
    }
    EXPECT_EQ(rig.controller.scrubAll(), 0u);
    EXPECT_EQ(rig.controller.stats().scrubs, 4u);
    EXPECT_EQ(rig.controller.stats().scrubWritebacks, 4u);
}

} // namespace
} // namespace harp::mem
