/**
 * @file
 * Property and oracle tests for the fleet policy driver.
 *
 * The closed-form oracles run hand-crafted one-chip populations
 * through runChipOperation and check exact outcomes; a full-size
 * replay on the reference memory system checks its compact chip. The
 * monotonicity properties exploit the driver's common-random-numbers
 * contract: every chip's randomness derives from (fleet seed, chip
 * index) only, so two policies see literally the same fleet and the
 * same per-window retention trials — tightening one axis must not
 * worsen the failure count. The reference and cross-thread tests
 * assert exact FleetAggregator equality, the in-memory face of the
 * campaign-level byte-identity acceptance. The golden pins fix the
 * absolute output, so a replay change shared by every path and thread
 * count still shows.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <stdexcept>
#include <vector>

#include "ecc/hamming_code.hh"
#include "fault/fault_model.hh"
#include "fleet/policy.hh"
#include "support/golden.hh"
#include "support/memsys_reference.hh"
#include "support/property.hh"
#include "support/seeded_fixture.hh"

namespace harp::fleet {
namespace {

/** One chip whose single faulty word carries @p cells at p = 1.0. */
ChipSim
oneWordChip(std::uint64_t fleet_seed,
            const std::vector<std::size_t> &cells,
            std::size_t word = 3)
{
    std::vector<fault::CellFault> faults;
    for (const std::size_t pos : cells)
        faults.push_back({pos, 1.0});
    std::vector<std::pair<std::size_t, fault::WordFaultModel>> words;
    words.emplace_back(word,
                       fault::WordFaultModel(71, std::move(faults)));
    return makeChipSim(fleet_seed, /*chip=*/0, /*k=*/64,
                       std::move(words), /*fault_events=*/1);
}

/** A chip whose five faulty words are spread over [0, 300), each with
 *  2..6 leaky cells at p = 0.5 or 1.0 — enough double errors for
 *  reactive identifications, scrub write-backs and spare contention. */
ChipSim
spreadChip(std::uint64_t fleet_seed, common::Xoshiro256 &rng)
{
    std::set<std::size_t> words;
    while (words.size() < 5)
        words.insert(rng.nextBelow(300));
    std::vector<std::pair<std::size_t, fault::WordFaultModel>> faulty;
    for (const std::size_t word : words)
        faulty.emplace_back(word,
                            fault::WordFaultModel::makeUniformFixedCount(
                                71, 2 + rng.nextBelow(5),
                                rng.nextBelow(2) ? 1.0 : 0.5, rng));
    return makeChipSim(fleet_seed, /*chip=*/0, /*k=*/64, std::move(faulty),
                       /*fault_events=*/words.size());
}

/**
 * The field replay on a full-size chip: every one of @p words_per_chip
 * words is present and every scrub pass visits all of them, through
 * the reference memory system (tests/support). This is the replay the
 * compact chip of runChipOperation must reproduce counter for counter.
 * The per-word streams are restated here: data from (chip seed,
 * {0xDA7A, word}), strikes from (chip seed, {0xC124, word, window}).
 */
ChipOutcome
fullChipReplay(const ChipSim &sim, std::size_t words_per_chip,
               const FleetPolicy &policy, std::size_t windows)
{
    test::ReferenceMemorySystem sys(sim.onDie, words_per_chip,
                                    sim.secondary);
    sys.setRepairCapacity(policy.repairBudget);
    for (std::size_t i = 0; i < sim.profiles.size(); ++i)
        sys.profile().markWordBitmap(sim.faultyWords[i].first,
                                     sim.profiles[i]);
    std::vector<gf2::BitVector> shadow;
    for (const auto &[word, model] : sim.faultyWords) {
        common::Xoshiro256 data_rng(
            common::deriveSeed(sim.chipSeed, {0xDA7Au, word}));
        shadow.push_back(gf2::BitVector::random(64, data_rng));
        sys.write(word, shadow.back());
    }

    ChipOutcome out;
    out.faultEvents = sim.faultEvents;
    for (const auto &[word, model] : sim.faultyWords)
        out.atRiskCells += model.numFaults();
    for (std::size_t w = 0; w < windows; ++w) {
        for (const auto &[word, model] : sim.faultyWords) {
            common::Xoshiro256 crn_rng(
                common::deriveSeed(sim.chipSeed, {0xC124u, word, w}));
            std::vector<double> uniforms(model.numFaults());
            for (double &u : uniforms)
                u = crn_rng.nextDouble();
            gf2::BitVector mask(71);
            model.injectErrorsCrn(sys.storedCodeword(word), uniforms, mask);
            sys.corrupt(word, mask);
        }
        for (std::size_t i = 0; i < sim.faultyWords.size(); ++i) {
            const mem::ControllerReadResult r =
                sys.read(sim.faultyWords[i].first);
            if (!r.corrupt && !(r.dataword == shadow[i]))
                ++out.silentCorruptions;
        }
        if (policy.scrubInterval != 0 &&
            (w + 1) % policy.scrubInterval == 0)
            sys.scrubAll();
    }
    out.uncorrectableEvents = sys.stats().uncorrectableEvents;
    out.profiledBits = sys.profile().totalAtRisk();
    out.repairSpareBits = sys.repairMechanism().spareBitsUsed();
    out.repairedBitReads = sys.stats().repairedBits;
    out.scrubWritebacks = sys.stats().scrubWritebacks;
    return out;
}

/** Every ChipOutcome counter, for whole-outcome equality checks. */
std::array<std::size_t, 8>
countersOf(const ChipOutcome &o)
{
    return {o.faultEvents,       o.atRiskCells,      o.profiledBits,
            o.repairSpareBits,   o.repairedBitReads, o.uncorrectableEvents,
            o.silentCorruptions, o.scrubWritebacks};
}

/** Small hot fleet shared by the property tests. */
FleetConfig
hotFleet(std::uint64_t seed)
{
    FleetConfig config;
    config.distribution = FleetDistribution::ddr4Field();
    for (double &fit : config.distribution.modeFit)
        fit *= 400.0;
    config.chips = 1200;
    config.windows = 8;
    config.seed = seed;
    // Identity across thread counts is proven separately; the property
    // sweeps just want the answer fast.
    config.threads = 0;
    config.stratumChips = 128;
    config.policy.profiler = ProfilerKind::HarpU;
    config.policy.activeRounds = 16;
    config.policy.scrubInterval = 4;
    config.policy.repairBudget = kUnlimitedBudget;
    return config;
}

TEST(ProfilerKindNames, ParseAndReject)
{
    EXPECT_EQ(profilerKindFromName("none"), ProfilerKind::None);
    EXPECT_EQ(profilerKindFromName("naive"), ProfilerKind::Naive);
    EXPECT_EQ(profilerKindFromName("harp_u"), ProfilerKind::HarpU);
    EXPECT_EQ(profilerKindFromName("harp_a"), ProfilerKind::HarpA);
    EXPECT_THROW(profilerKindFromName("beep"), std::invalid_argument);
}

TEST(ChipSimConstruction, DerivedStreamsAreDeterministic)
{
    const ChipSim a = oneWordChip(42, {5, 9});
    const ChipSim b = oneWordChip(42, {5, 9});
    EXPECT_EQ(a.chipSeed, b.chipSeed);
    EXPECT_EQ(a.chipSeed, chipSimSeed(42, 0));
    // The chip-private codes re-derive identically: same encodes.
    common::Xoshiro256 rng(7);
    const gf2::BitVector data = gf2::BitVector::random(64, rng);
    EXPECT_EQ(a.onDie.encode(data), b.onDie.encode(data));
    EXPECT_EQ(a.secondary.encode(data), b.secondary.encode(data));
    // Different chip index, different seed root.
    EXPECT_NE(chipSimSeed(42, 0), chipSimSeed(42, 1));
    EXPECT_NE(chipSimSeed(42, 0), chipSimSeed(43, 0));
}

/**
 * Oracle: a single always-leaky cell can never fail a chip — on-die
 * SEC corrects one raw error per word by construction — under *any*
 * policy, including the bare one.
 */
TEST(FleetOracle, SingleCellChipNeverFails)
{
    test::forEachSeed(4, [](std::uint64_t seed, common::Xoshiro256 &rng) {
        FleetPolicy bare;
        bare.profiler = ProfilerKind::None;
        bare.activeRounds = 0;
        bare.scrubInterval = 0;
        bare.repairBudget = 0;
        ChipSim sim =
            oneWordChip(seed, {rng.nextBelow(71)}, rng.nextBelow(8));
        const ChipOutcome outcome =
            runChipOperation(sim, /*words_per_chip=*/8, bare,
                             /*windows=*/6);
        EXPECT_EQ(outcome.uncorrectableEvents, 0u);
        EXPECT_EQ(outcome.silentCorruptions, 0u);
        EXPECT_FALSE(outcome.failed());
        EXPECT_EQ(outcome.atRiskCells, 1u);
    });
}

/**
 * Oracle: two always-leaky cells with no mitigation are all-or-nothing.
 * p = 1.0 discharges every charged at-risk cell in window 1 and the
 * word is never rewritten, so each of the W windows reads the *same*
 * stored word — the chip either fails in every window or in none, and
 * a failure is either always detected or always silent.
 */
TEST(FleetOracle, BareTwoCellChipFailsAllWindowsOrNone)
{
    constexpr std::size_t kWindows = 5;
    FleetPolicy bare;
    bare.profiler = ProfilerKind::None;
    bare.activeRounds = 0;
    bare.scrubInterval = 0;
    bare.repairBudget = 0;

    std::size_t failing_chips = 0, clean_chips = 0;
    test::forEachSeed(8, [&](std::uint64_t seed, common::Xoshiro256 &rng) {
        std::size_t a = rng.nextBelow(71), b = rng.nextBelow(71);
        while (b == a)
            b = rng.nextBelow(71);
        ChipSim sim = oneWordChip(seed, {a, b});
        const ChipOutcome outcome =
            runChipOperation(sim, 8, bare, kWindows);
        const std::size_t failures =
            outcome.uncorrectableEvents + outcome.silentCorruptions;
        EXPECT_TRUE(failures == 0 || failures == kWindows) << failures;
        // Never a detected/silent mix: the windows are identical reads.
        EXPECT_TRUE(outcome.uncorrectableEvents == 0 ||
                    outcome.silentCorruptions == 0);
        (failures == 0 ? clean_chips : failing_chips) += 1;
    });
    // Both outcomes occur across the seed sweep (charge is
    // data-dependent), so the oracle exercises both branches.
    EXPECT_GT(failing_chips, 0u);
    EXPECT_GT(clean_chips, 0u);
}

/**
 * Oracle: a profiled chip with budget for its one at-risk cell never
 * fails, captures exactly one spare bit, and profiling finds the cell.
 * Data-position cells are directly observable by HARP-U, and 24 random
 * patterns miss a p=1.0 cell with probability 2^-24 per seed — under
 * the fixed seeds this is exact, not probabilistic.
 */
TEST(FleetOracle, ProfiledAndRepairedSingleDataCell)
{
    test::forEachSeed(4, [](std::uint64_t seed, common::Xoshiro256 &rng) {
        FleetPolicy policy;
        policy.profiler = ProfilerKind::HarpU;
        policy.activeRounds = 24;
        policy.scrubInterval = 0;
        policy.repairBudget = 4;
        // Data positions are 0..63 for every randomSec(64) code.
        ChipSim sim = oneWordChip(seed, {rng.nextBelow(64)});
        profileChipScalar(sim, policy);
        ASSERT_EQ(sim.profiles.size(), 1u);
        EXPECT_EQ(sim.profiles[0].popcount(), 1u);
        const ChipOutcome outcome = runChipOperation(sim, 8, policy, 6);
        EXPECT_FALSE(outcome.failed());
        EXPECT_EQ(outcome.profiledBits, 1u);
        EXPECT_EQ(outcome.repairSpareBits, 1u);
    });
}

/**
 * The compact chip holds only the faulty words, so the replay must not
 * depend on words_per_chip: the same ChipSim at (max faulty word + 1)
 * and at 4096 words gives the outcome of a full-size chip of (max
 * faulty word + 1) words, fault-free words interleaved, under every
 * scrub x budget corner, profiled and unprofiled. Budgets of one and
 * two spare bits make scrub write-backs contend for the last slot, so
 * the slot order must be the word order.
 */
TEST(FleetProperty, CompactReplayMatchesFullSizeChip)
{
    constexpr std::size_t kWindows = 8;
    std::size_t writebacks = 0, profiled_bits = 0, exhausted = 0;
    test::forEachSeed(3, [&](std::uint64_t seed, common::Xoshiro256 &rng) {
        ChipSim sim = spreadChip(seed, rng);
        const std::size_t tight = sim.faultyWords.back().first + 1;
        for (const bool profiled : {false, true}) {
            FleetPolicy policy;
            policy.profiler =
                profiled ? ProfilerKind::HarpU : ProfilerKind::None;
            policy.activeRounds = profiled ? 4 : 0;
            profileChipScalar(sim, policy);
            for (const std::size_t scrub :
                 {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
                for (const std::size_t budget :
                     {std::size_t{0}, std::size_t{1}, std::size_t{2},
                      kUnlimitedBudget}) {
                    SCOPED_TRACE("profiled " + std::to_string(profiled) +
                                 ", scrub " + std::to_string(scrub) +
                                 ", budget " + std::to_string(budget));
                    policy.scrubInterval = scrub;
                    policy.repairBudget = budget;
                    const ChipOutcome full =
                        fullChipReplay(sim, tight, policy, kWindows);
                    EXPECT_EQ(countersOf(runChipOperation(sim, tight, policy,
                                                          kWindows)),
                              countersOf(full));
                    EXPECT_EQ(countersOf(runChipOperation(sim, 4096, policy,
                                                          kWindows)),
                              countersOf(full));
                    writebacks += full.scrubWritebacks;
                    profiled_bits += full.profiledBits;
                    exhausted += budget != kUnlimitedBudget &&
                               full.repairSpareBits == budget;
                }
            }
        }
    });
    // The corners exercise what the slot order must preserve.
    EXPECT_GT(writebacks, 0u);
    EXPECT_GT(profiled_bits, 0u);
    EXPECT_GT(exhausted, 0u);
}

/** A faulty word at or past words_per_chip is out of range, as on a
 *  full-size chip; faulty words out of ascending order are rejected. */
TEST(FleetOracle, FaultyWordPastTheChipThrows)
{
    FleetPolicy policy;
    ChipSim sim = oneWordChip(9, {4, 40}, /*word=*/7);
    EXPECT_NO_THROW(runChipOperation(sim, 8, policy, 2));
    EXPECT_THROW(runChipOperation(sim, 7, policy, 2), std::out_of_range);

    ChipSim twice = oneWordChip(9, {4, 40}, /*word=*/2);
    twice.faultyWords.push_back(twice.faultyWords.front());
    EXPECT_THROW(runChipOperation(twice, 8, policy, 2),
                 std::invalid_argument);
}

/** Tightening the repair budget axis never helps, loosening it never
 *  hurts: failures are monotone non-increasing in the budget. */
TEST(FleetProperty, RepairBudgetAxisIsMonotone)
{
    test::forEachSeed(3, [](std::uint64_t seed, common::Xoshiro256 &) {
        std::vector<std::uint64_t> failed;
        for (const std::size_t budget : {std::size_t{0}, std::size_t{2},
                                         std::size_t{8},
                                         kUnlimitedBudget}) {
            FleetConfig config = hotFleet(seed);
            config.policy.repairBudget = budget;
            failed.push_back(runFleet(config).failedChips());
        }
        for (std::size_t i = 1; i < failed.size(); ++i)
            EXPECT_LE(failed[i], failed[i - 1])
                << "budget step " << i << " worsened failures";
        // The axis actually bites on this fleet.
        EXPECT_LT(failed.back(), failed.front());
    });
}

/** More frequent patrol scrubbing never worsens failures (off -> 16
 *  -> 4 -> 1 windows). */
TEST(FleetProperty, ScrubIntervalAxisIsMonotone)
{
    test::forEachSeed(3, [](std::uint64_t seed, common::Xoshiro256 &) {
        std::vector<std::uint64_t> failed;
        for (const std::size_t interval :
             {std::size_t{0}, std::size_t{16}, std::size_t{4},
              std::size_t{1}}) {
            FleetConfig config = hotFleet(seed);
            config.policy.scrubInterval = interval;
            config.windows = 16;
            failed.push_back(runFleet(config).failedChips());
        }
        for (std::size_t i = 1; i < failed.size(); ++i)
            EXPECT_LE(failed[i], failed[i - 1])
                << "scrub step " << i << " worsened failures";
    });
}

/** More active-profiling rounds never worsen failures when the repair
 *  budget is unlimited (a finite budget can displace captures, which
 *  is why the guarantee is scoped to the unlimited case). */
TEST(FleetProperty, ProfilingRoundsMonotoneUnderUnlimitedBudget)
{
    test::forEachSeed(3, [](std::uint64_t seed, common::Xoshiro256 &) {
        std::vector<std::uint64_t> failed;
        for (const std::size_t rounds :
             {std::size_t{0}, std::size_t{8}, std::size_t{32}}) {
            FleetConfig config = hotFleet(seed);
            config.policy.activeRounds = rounds;
            failed.push_back(runFleet(config).failedChips());
        }
        for (std::size_t i = 1; i < failed.size(); ++i)
            EXPECT_LE(failed[i], failed[i - 1])
                << "round step " << i << " worsened failures";
        EXPECT_LT(failed.back(), failed.front());
    });
}

/** The fleet of @p config built chip by chip from the public pieces,
 *  every faulty chip profiled on its own by the scalar reference. */
FleetAggregator
referenceFleet(const FleetConfig &config)
{
    const std::size_t n = config.k + ecc::HammingCode::minParityBits(config.k);
    const PopulationSampler sampler(config.distribution,
                                    {config.wordsPerChip, n},
                                    config.deviceHours, config.seed);
    FleetAggregator agg;
    for (std::size_t chip = 0; chip < config.chips; ++chip) {
        const ChipSample sample = sampler.sample(chip);
        if (!sample.faulty()) {
            agg.addCleanChip();
            continue;
        }
        ChipSim sim = makeChipSim(config.seed, chip, config.k,
                                  sampler.materialize(sample),
                                  sample.events.size());
        profileChipScalar(sim, config.policy);
        agg.addChip(runChipOperation(sim, config.wordsPerChip, config.policy,
                                     config.windows));
    }
    return agg;
}

/** runFleet, which profiles faulty words of many chips together in
 *  64-lane blocks, equals the chip-by-chip reference exactly — every
 *  counter and histogram bin — under the single-tier DDR4 preset and
 *  the three-tier HRM one, at 1 and 4 threads. */
TEST(FleetDeterminism, BatchedFleetMatchesChipByChipReference)
{
    for (const bool hrm : {false, true}) {
        FleetConfig config = hotFleet(0xF1EE7);
        if (hrm) {
            config.distribution = FleetDistribution::hrmTiers();
            for (double &fit : config.distribution.modeFit)
                fit *= 400.0;
            config.policy.profiler = ProfilerKind::HarpA;
        }
        const FleetAggregator reference = referenceFleet(config);
        ASSERT_GT(reference.faultyChips(), 0u);
        ASSERT_GT(reference.profiledBits(), 0u);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            config.threads = threads;
            EXPECT_TRUE(runFleet(config) == reference)
                << (hrm ? "hrm" : "ddr4") << " at " << threads
                << " threads";
        }
    }
}

/** Thread-count independence: the stratum fan-out merges in index
 *  order, so 1, 3 and hardware threads agree exactly. */
TEST(FleetDeterminism, ThreadCountsProduceIdenticalAggregates)
{
    FleetConfig config = hotFleet(0x7EA);
    config.threads = 1;
    const FleetAggregator single = runFleet(config);
    ASSERT_GT(single.faultyChips(), 0u);

    config.threads = 3;
    EXPECT_TRUE(runFleet(config) == single);
    config.threads = 0; // hardware concurrency
    EXPECT_TRUE(runFleet(config) == single);
}

/** Golden hash of every FleetAggregator counter and histogram bin. */
std::uint64_t
goldenOf(const FleetAggregator &agg)
{
    std::uint64_t hash = test::kGoldenInit;
    for (const std::uint64_t counter :
         {agg.chips(), agg.faultyChips(), agg.faultEvents(),
          agg.atRiskCells(), agg.failedChips(), agg.uncorrectableEvents(),
          agg.silentCorruptions(), agg.profiledBits(),
          agg.repairSpareBits(), agg.repairedBitReads(),
          agg.scrubWritebacks()})
        hash = test::goldenMix(hash, counter);
    for (const common::Histogram *histogram :
         {&agg.repairBitsHistogram(), &agg.uncorrectableHistogram()}) {
        hash = test::goldenMix(hash, histogram->numBins());
        for (std::size_t i = 0; i < histogram->numBins(); ++i)
            hash = test::goldenMix(hash, histogram->bin(i));
    }
    return hash;
}

/**
 * Absolute pins on the replay output. Every other fleet test compares
 * paths or thread counts within one build, so a change to the scalar
 * memsys read path that all of them share would pass them; these
 * constants would not.
 */
TEST(FleetGolden, HarpUScrubbedBudgetedFleet)
{
    FleetConfig config = hotFleet(0x601D);
    config.policy.scrubInterval = 8;
    config.policy.repairBudget = 16;
    const FleetAggregator agg = runFleet(config);
    ASSERT_GT(agg.failedChips(), 0u);
    ASSERT_GT(agg.scrubWritebacks(), 0u);
    EXPECT_TRUE(test::goldenMatches(goldenOf(agg), 0x8E082D1E3C8D16FAULL));
}

TEST(FleetGolden, UnprofiledUnscrubbedFleet)
{
    FleetConfig config = hotFleet(0x601D);
    config.policy.profiler = ProfilerKind::None;
    config.policy.activeRounds = 0;
    config.policy.scrubInterval = 0;
    const FleetAggregator agg = runFleet(config);
    ASSERT_GT(agg.failedChips(), 0u);
    EXPECT_TRUE(test::goldenMatches(goldenOf(agg), 0x81E1FC2CE3243140ULL));
}

/** HRM tiers (one Poisson limit per tier), HARP-A predictions, patrol
 *  scrub and a spare budget small enough to run out. */
TEST(FleetGolden, HrmHarpAScrubbedBudgetedFleet)
{
    FleetConfig config = hotFleet(0x4A2);
    config.distribution = FleetDistribution::hrmTiers();
    for (double &fit : config.distribution.modeFit)
        fit *= 400.0;
    config.policy.profiler = ProfilerKind::HarpA;
    config.policy.scrubInterval = 4;
    config.policy.repairBudget = 6;
    const FleetAggregator agg = runFleet(config);
    ASSERT_GT(agg.failedChips(), 0u);
    ASSERT_GT(agg.scrubWritebacks(), 0u);
    EXPECT_TRUE(
        test::goldenMatches(goldenOf(agg), 0x94E02D7046ED1AABULL));
}

/** k = 128 chips (n = 136): parity rows span two storage words and a
 *  sliced profiling block spans three 64-position transposes. */
TEST(FleetGolden, K128Chips)
{
    FleetConfig config = hotFleet(0x128);
    config.k = 128;
    config.chips = 600;
    config.policy.repairBudget = 12;
    const FleetAggregator agg = runFleet(config);
    ASSERT_GT(agg.failedChips(), 0u);
    ASSERT_GT(agg.profiledBits(), 0u);
    EXPECT_TRUE(test::goldenMatches(goldenOf(agg), 0xA6474C51B1293E24ULL));
}

/** A fleet with no fault events is all-clean: zero FIT, zero spares. */
TEST(FleetDeterminism, QuietFleetIsAllClean)
{
    FleetConfig config = hotFleet(5);
    config.distribution = FleetDistribution::ddr4Field();
    for (double &fit : config.distribution.modeFit)
        fit *= 1e-9;
    config.chips = 400;
    const FleetAggregator agg = runFleet(config);
    EXPECT_EQ(agg.chips(), 400u);
    EXPECT_EQ(agg.faultyChips(), 0u);
    EXPECT_EQ(agg.failedChips(), 0u);
    EXPECT_DOUBLE_EQ(agg.fitRate(config.deviceHours), 0.0);
    EXPECT_EQ(agg.repairBitsQuantile(0.999), 0u);
}

} // namespace
} // namespace harp::fleet
