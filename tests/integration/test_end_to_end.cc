/**
 * @file
 * End-to-end integration tests: a full HARP-enabled system (memory chip
 * with on-die ECC + memory controller with repair, secondary ECC, and
 * profilers) running the complete active-then-reactive flow of HARP
 * section 6 against injected retention errors.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/at_risk_analyzer.hh"
#include "core/data_pattern.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "ecc/extended_hamming_code.hh"
#include "memsys/memory_controller.hh"

namespace harp {
namespace {

/** A complete single-chip HARP system under test. */
struct System
{
    ecc::HammingCode onDie;
    ecc::ExtendedHammingCode secondary;
    mem::MemoryChip chip;
    mem::MemoryController controller;

    explicit System(std::uint64_t seed, std::size_t words)
        : onDie([&] {
              common::Xoshiro256 rng(seed);
              return ecc::HammingCode::randomSec(64, rng);
          }()),
          secondary([&] {
              common::Xoshiro256 rng(seed + 1);
              return ecc::ExtendedHammingCode::randomSecDed(64, rng);
          }()),
          chip(onDie, words),
          controller(chip, &secondary)
    {
    }
};

/**
 * HARP active phase over the real chip API: program pattern, let
 * retention strike, read through the bypass path, record direct errors
 * in the controller's error profile.
 */
void
runActivePhase(System &sys, std::size_t word, std::size_t rounds,
               std::uint64_t seed)
{
    core::PatternGenerator patterns(core::PatternKind::Random, 64,
                                    common::deriveSeed(seed, {1}));
    common::Xoshiro256 retention(common::deriveSeed(seed, {2}));
    for (std::size_t r = 0; r < rounds; ++r) {
        const gf2::BitVector &pattern = patterns.patternView(r);
        sys.controller.write(word, pattern);
        sys.chip.retentionTick(word, retention);
        gf2::BitVector raw = sys.controller.readRaw(word);
        raw ^= pattern;
        raw.forEachSetBit([&](std::size_t bit) {
            sys.controller.profile().markAtRisk(word, bit);
        });
    }
}

TEST(EndToEnd, ActivePhaseFindsAllDirectAtRiskBits)
{
    System sys(42, 1);
    common::Xoshiro256 fault_rng(7);
    const fault::WordFaultModel faults =
        fault::WordFaultModel::makeUniformFixedCount(71, 4, 0.5,
                                                     fault_rng);
    sys.chip.setFaultModel(0, faults);
    const core::AtRiskAnalyzer analyzer(sys.onDie, faults);

    runActivePhase(sys, 0, 64, 1);

    for (const std::size_t pos : analyzer.directAtRisk().setBits())
        EXPECT_TRUE(sys.controller.profile().isAtRisk(0, pos))
            << "missed direct-at-risk bit " << pos;
}

TEST(EndToEnd, ReactivePhaseNeverSeesUncorrectableAfterFullActive)
{
    // HARP's safety guarantee (section 6.4): once every direct at-risk
    // bit is profiled and repaired, at most one (indirect) error reaches
    // the secondary ECC at a time, so reactive operation never hits an
    // uncorrectable event.
    for (std::uint64_t seed = 100; seed < 110; ++seed) {
        System sys(seed, 1);
        common::Xoshiro256 fault_rng(seed + 50);
        const fault::WordFaultModel faults =
            fault::WordFaultModel::makeUniformFixedCount(71, 5, 0.5,
                                                         fault_rng);
        sys.chip.setFaultModel(0, faults);
        const core::AtRiskAnalyzer analyzer(sys.onDie, faults);

        // Pre-load the profile with the full direct ground truth (what a
        // complete active phase yields).
        for (const std::size_t pos : analyzer.directAtRisk().setBits())
            sys.controller.profile().markAtRisk(0, pos);

        // Reactive phase: normal system operation with periodic writes
        // and retention strikes.
        common::Xoshiro256 data_rng(seed + 60);
        common::Xoshiro256 retention(seed + 70);
        for (int access = 0; access < 200; ++access) {
            const gf2::BitVector data = gf2::BitVector::random(64,
                                                               data_rng);
            sys.controller.write(0, data);
            sys.chip.retentionTick(0, retention);
            const mem::ControllerReadResult r = sys.controller.read(0);
            EXPECT_FALSE(r.corrupt) << "seed " << seed << " access "
                                    << access;
            EXPECT_EQ(r.dataword, data)
                << "seed " << seed << " access " << access;
        }
        EXPECT_EQ(sys.controller.stats().uncorrectableEvents, 0u);
    }
}

TEST(EndToEnd, ReactiveIdentificationsAreIndirectAtRiskBits)
{
    // Bits the reactive profiler identifies (beyond the active profile)
    // must be ground-truth indirect-at-risk bits.
    int total_reactive = 0;
    for (std::uint64_t seed = 200; seed < 215; ++seed) {
        System sys(seed, 1);
        common::Xoshiro256 fault_rng(seed + 50);
        const fault::WordFaultModel faults =
            fault::WordFaultModel::makeUniformFixedCount(71, 5, 0.75,
                                                         fault_rng);
        sys.chip.setFaultModel(0, faults);
        const core::AtRiskAnalyzer analyzer(sys.onDie, faults);
        for (const std::size_t pos : analyzer.directAtRisk().setBits())
            sys.controller.profile().markAtRisk(0, pos);

        common::Xoshiro256 data_rng(seed + 60);
        common::Xoshiro256 retention(seed + 70);
        for (int access = 0; access < 300; ++access) {
            const gf2::BitVector data = gf2::BitVector::random(64,
                                                               data_rng);
            sys.controller.write(0, data);
            sys.chip.retentionTick(0, retention);
            const mem::ControllerReadResult r = sys.controller.read(0);
            if (r.newlyProfiledBit) {
                ++total_reactive;
                EXPECT_TRUE(
                    analyzer.indirectAtRisk().get(*r.newlyProfiledBit))
                    << "seed " << seed;
            }
        }
    }
    // The ensemble must actually exercise reactive identification.
    EXPECT_GT(total_reactive, 0);
}

TEST(EndToEnd, NaiveDrivenRepairLeavesResidualRisk)
{
    // Contrast experiment: drive the repair profile with Naive profiling
    // (normal read path) for a word whose at-risk cells include parity
    // bits; multi-bit residual risk can remain where HARP's would not.
    std::size_t naive_uncorrectable = 0;
    std::size_t harp_uncorrectable = 0;
    for (std::uint64_t seed = 300; seed < 320; ++seed) {
        for (const bool use_harp : {false, true}) {
            System sys(seed, 1);
            common::Xoshiro256 fault_rng(seed + 50);
            const fault::WordFaultModel faults =
                fault::WordFaultModel::makeUniformFixedCount(
                    71, 4, 0.75, fault_rng);
            sys.chip.setFaultModel(0, faults);

            // Short active phase (8 rounds) with the chosen profiler.
            core::PatternGenerator patterns(
                core::PatternKind::Random, 64,
                common::deriveSeed(seed, {3}));
            common::Xoshiro256 retention(common::deriveSeed(seed, {4}));
            for (std::size_t r = 0; r < 8; ++r) {
                const gf2::BitVector &pattern = patterns.patternView(r);
                sys.controller.write(0, pattern);
                sys.chip.retentionTick(0, retention);
                gf2::BitVector observed =
                    use_harp ? sys.controller.readRaw(0)
                             : sys.controller.read(0).dataword;
                observed ^= pattern;
                observed.forEachSetBit([&](std::size_t bit) {
                    sys.controller.profile().markAtRisk(0, bit);
                });
            }

            // Reactive operation.
            common::Xoshiro256 data_rng(seed + 60);
            common::Xoshiro256 retention2(seed + 70);
            for (int access = 0; access < 100; ++access) {
                const gf2::BitVector data =
                    gf2::BitVector::random(64, data_rng);
                sys.controller.write(0, data);
                sys.chip.retentionTick(0, retention2);
                sys.controller.read(0);
            }
            (use_harp ? harp_uncorrectable : naive_uncorrectable) +=
                sys.controller.stats().uncorrectableEvents;
        }
    }
    // HARP-profiled systems suffer no more uncorrectable events; over
    // this ensemble Naive leaves strictly more residual risk.
    EXPECT_LE(harp_uncorrectable, naive_uncorrectable);
    EXPECT_GT(naive_uncorrectable, 0u);
}

TEST(EndToEnd, MultiWordChipProfilesIndependently)
{
    System sys(400, 4);
    common::Xoshiro256 fault_rng(401);
    std::vector<core::AtRiskAnalyzer> analyzers;
    std::vector<fault::WordFaultModel> models;
    for (std::size_t w = 0; w < 4; ++w) {
        models.push_back(fault::WordFaultModel::makeUniformFixedCount(
            71, 3, 0.5, fault_rng));
        sys.chip.setFaultModel(w, models.back());
    }
    for (std::size_t w = 0; w < 4; ++w)
        analyzers.emplace_back(sys.onDie, models[w]);

    for (std::size_t w = 0; w < 4; ++w)
        runActivePhase(sys, w, 64, 500 + w);

    for (std::size_t w = 0; w < 4; ++w) {
        for (const std::size_t pos :
             analyzers[w].directAtRisk().setBits()) {
            EXPECT_TRUE(sys.controller.profile().isAtRisk(w, pos))
                << "word " << w << " bit " << pos;
        }
        // No cross-word contamination: profiled bits of word w must be
        // possible at-risk bits of word w specifically.
        sys.controller.profile().wordBitmap(w).forEachSetBit(
            [&](std::size_t bit) {
                EXPECT_TRUE(analyzers[w].directAtRisk().get(bit))
                    << "word " << w << " bit " << bit;
            });
    }
}

} // namespace
} // namespace harp
