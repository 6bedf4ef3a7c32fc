/**
 * @file
 * Bit-identity tests for the sliced profiling engine: a
 * SlicedRoundEngine driving N lanes must produce, for every profiler
 * of every lane after every round, exactly the state that N scalar
 * RoundEngines produce from the same per-word seeds — across code
 * lengths, data patterns, heterogeneous per-lane codes, and ragged
 * lane counts.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/beep_profiler.hh"
#include "core/case_study_experiment.hh"
#include "core/coverage_experiment.hh"
#include "core/harp_a_beep_profiler.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/round_engine.hh"
#include "core/sliced_round_engine.hh"
#include "ecc/bch_general.hh"
#include "ecc/sliced_bch.hh"
#include "support/property.hh"

namespace harp::core {
namespace {

using test::forEachSeed;

/** The full profiler set of the paper's evaluation for one word. */
std::vector<std::unique_ptr<Profiler>>
makeProfilerSet(const ecc::HammingCode &code)
{
    std::vector<std::unique_ptr<Profiler>> set;
    set.push_back(std::make_unique<NaiveProfiler>(code.k()));
    set.push_back(std::make_unique<BeepProfiler>(code));
    set.push_back(std::make_unique<HarpUProfiler>(code.k()));
    set.push_back(std::make_unique<HarpAProfiler>(code));
    set.push_back(std::make_unique<HarpABeepProfiler>(code));
    return set;
}

/**
 * Run @p lanes words for @p rounds under both engines with identical
 * per-word seed derivation and assert per-round, per-profiler
 * identical identified() profiles.
 */
void
checkEngineEquivalence(const std::vector<ecc::HammingCode> &codes,
                       const std::vector<fault::WordFaultModel> &faults,
                       PatternKind pattern, std::size_t rounds,
                       std::uint64_t seed)
{
    const std::size_t lanes = codes.size();

    // Scalar reference: one engine + profiler set per word.
    std::vector<std::vector<std::unique_ptr<Profiler>>> scalar_sets;
    std::vector<std::unique_ptr<RoundEngine>> scalar_engines;
    // Sliced: one engine over all lanes, same profiler classes.
    std::vector<std::vector<std::unique_ptr<Profiler>>> sliced_sets;
    std::vector<const ecc::HammingCode *> code_ptrs;
    std::vector<const fault::WordFaultModel *> fault_ptrs;
    std::vector<std::uint64_t> lane_seeds;
    std::vector<std::vector<Profiler *>> sliced_raw(lanes);
    std::vector<std::vector<Profiler *>> scalar_raw(lanes);
    for (std::size_t w = 0; w < lanes; ++w) {
        const std::uint64_t word_seed = common::deriveSeed(seed, {w});
        scalar_sets.push_back(makeProfilerSet(codes[w]));
        sliced_sets.push_back(makeProfilerSet(codes[w]));
        for (auto &p : sliced_sets[w])
            sliced_raw[w].push_back(p.get());
        for (auto &p : scalar_sets[w])
            scalar_raw[w].push_back(p.get());
        scalar_engines.push_back(std::make_unique<RoundEngine>(
            codes[w], faults[w], pattern, word_seed, scalar_raw[w]));
        code_ptrs.push_back(&codes[w]);
        fault_ptrs.push_back(&faults[w]);
        lane_seeds.push_back(word_seed);
    }
    SlicedRoundEngine sliced_engine(code_ptrs, fault_ptrs, pattern,
                                    lane_seeds, sliced_raw);
    ASSERT_EQ(sliced_engine.lanes(), lanes);

    for (std::size_t r = 0; r < rounds; ++r) {
        sliced_engine.runRound();
        for (std::size_t w = 0; w < lanes; ++w)
            scalar_engines[w]->runRound();
        for (std::size_t w = 0; w < lanes; ++w) {
            for (std::size_t s = 0; s < scalar_raw[w].size(); ++s) {
                ASSERT_EQ(sliced_raw[w][s]->identified(),
                          scalar_raw[w][s]->identified())
                    << "round " << r << ", lane " << w << ", profiler "
                    << scalar_raw[w][s]->name();
            }
        }
    }
    EXPECT_EQ(sliced_engine.roundsRun(), rounds);
}

TEST(SlicedRoundEngine, BitIdenticalToScalarHomogeneousCode)
{
    forEachSeed(2, [](std::uint64_t seed, common::Xoshiro256 &rng) {
        for (const PatternKind pattern :
             {PatternKind::Random, PatternKind::Charged,
              PatternKind::Checkered}) {
            const ecc::HammingCode code =
                ecc::HammingCode::randomSec(64, rng);
            std::vector<ecc::HammingCode> codes(64, code);
            std::vector<fault::WordFaultModel> faults;
            for (std::size_t w = 0; w < codes.size(); ++w)
                faults.push_back(
                    fault::WordFaultModel::makeUniformFixedCount(
                        code.n(), 2 + w % 4, 0.5, rng));
            checkEngineEquivalence(codes, faults, pattern, 24, seed);
        }
    });
}

TEST(SlicedRoundEngine, BitIdenticalWithHeterogeneousCodesAndRaggedTail)
{
    // Case-study shape: every lane its own random code, and fewer live
    // words than lanes fit (the ragged tail of a 64-word block).
    forEachSeed(2, [](std::uint64_t seed, common::Xoshiro256 &rng) {
        for (const std::size_t lanes : {std::size_t{1}, std::size_t{5},
                                        std::size_t{23}}) {
            std::vector<ecc::HammingCode> codes;
            std::vector<fault::WordFaultModel> faults;
            for (std::size_t w = 0; w < lanes; ++w) {
                codes.push_back(ecc::HammingCode::randomSec(64, rng));
                faults.push_back(
                    fault::WordFaultModel::makeUniformFixedCount(
                        codes[w].n(), 1 + w % 5, 0.25 + 0.25 * (w % 4),
                        rng));
            }
            checkEngineEquivalence(codes, faults, PatternKind::Random,
                                   20, seed);
        }
    });
}

TEST(SlicedRoundEngine, BitIdenticalAtK128)
{
    forEachSeed(1, [](std::uint64_t seed, common::Xoshiro256 &rng) {
        std::vector<ecc::HammingCode> codes;
        std::vector<fault::WordFaultModel> faults;
        for (std::size_t w = 0; w < 16; ++w) {
            codes.push_back(ecc::HammingCode::randomSec(128, rng));
            faults.push_back(
                fault::WordFaultModel::makeUniformFixedCount(
                    codes[w].n(), 3, 0.75, rng));
        }
        checkEngineEquivalence(codes, faults, PatternKind::Random, 16,
                               seed);
    });
}

TEST(SlicedRoundEngine, HandlesFaultFreeLanes)
{
    // Lanes without any at-risk cell must stay error-free and cost no
    // RNG draws, exactly like a scalar engine over a clean word.
    forEachSeed(1, [](std::uint64_t seed, common::Xoshiro256 &rng) {
        std::vector<ecc::HammingCode> codes;
        std::vector<fault::WordFaultModel> faults;
        for (std::size_t w = 0; w < 8; ++w) {
            codes.push_back(ecc::HammingCode::randomSec(64, rng));
            faults.push_back(
                fault::WordFaultModel::makeUniformFixedCount(
                    codes[w].n(), w % 2 == 0 ? 0 : 3, 1.0, rng));
        }
        checkEngineEquivalence(codes, faults, PatternKind::Charged, 12,
                               seed);
    });
}

/**
 * Whole-experiment equivalence: the coverage experiment must emit
 * byte-identical aggregates under both engines — the property the
 * runner's `--engine` tunable and campaign result_hash equality rely
 * on. wordsPerCode = 70 forces a ragged second block (64 + 6 lanes).
 */
TEST(EngineEquivalence, CoverageExperimentAggregatesMatch)
{
    CoverageConfig config;
    config.k = 64;
    config.numCodes = 2;
    config.wordsPerCode = 70;
    config.rounds = 10;
    config.numPreCorrectionErrors = 3;
    config.perBitProbability = 0.5;
    config.includeHarpABeep = true;
    config.seed = 99;
    config.threads = 2;

    config.engine = EngineKind::Scalar;
    const CoverageResult scalar = runCoverageExperiment(config);
    config.engine = EngineKind::Sliced64;
    const CoverageResult sliced = runCoverageExperiment(config);

    EXPECT_EQ(scalar.totalDirectAtRisk, sliced.totalDirectAtRisk);
    EXPECT_EQ(scalar.totalIndirectAtRisk, sliced.totalIndirectAtRisk);
    EXPECT_EQ(scalar.numWords, sliced.numWords);
    ASSERT_EQ(scalar.profilers.size(), sliced.profilers.size());
    for (std::size_t p = 0; p < scalar.profilers.size(); ++p) {
        const ProfilerAggregate &a = scalar.profilers[p];
        const ProfilerAggregate &b = sliced.profilers[p];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.directIdentifiedSum, b.directIdentifiedSum) << a.name;
        EXPECT_EQ(a.indirectMissedSum, b.indirectMissedSum) << a.name;
        EXPECT_EQ(a.falsePositiveSum, b.falsePositiveSum) << a.name;
        EXPECT_EQ(a.bootstrapRounds.sortedSamples(),
                  b.bootstrapRounds.sortedSamples())
            << a.name;
        ASSERT_EQ(a.maxSimultaneousFinal.numBins(),
                  b.maxSimultaneousFinal.numBins());
        for (std::size_t bin = 0; bin < a.maxSimultaneousFinal.numBins();
             ++bin)
            EXPECT_EQ(a.maxSimultaneousFinal.bin(bin),
                      b.maxSimultaneousFinal.bin(bin))
                << a.name << " bin " << bin;
        for (std::size_t x = 0; x < maxTrackedBound; ++x)
            EXPECT_EQ(a.roundsToBound[x].sortedSamples(),
                      b.roundsToBound[x].sortedSamples())
                << a.name << " bound " << x + 1;
    }
}

/** Same property for the Fig. 10 case study, whose sliced blocks carry
 *  a different random code in every lane. */
TEST(EngineEquivalence, CaseStudyExperimentSeriesMatch)
{
    CaseStudyConfig config;
    config.k = 64;
    config.perBitProbability = 0.75;
    config.maxConditionedCells = 3;
    config.samplesPerCellCount = 9;
    config.rounds = 12;
    config.seed = 17;
    config.threads = 2;

    config.engine = EngineKind::Scalar;
    const CaseStudyResult scalar = runCaseStudyExperiment(config);
    config.engine = EngineKind::Sliced64;
    const CaseStudyResult sliced = runCaseStudyExperiment(config);

    EXPECT_EQ(scalar.roundsToZeroAfter, sliced.roundsToZeroAfter);
    ASSERT_EQ(scalar.series.size(), sliced.series.size());
    for (std::size_t i = 0; i < scalar.series.size(); ++i) {
        EXPECT_EQ(scalar.series[i].profiler, sliced.series[i].profiler);
        EXPECT_EQ(scalar.series[i].rber, sliced.series[i].rber);
        // Conditional sums are integers mixed with identical Binomial
        // weights in identical order: exact double equality holds.
        EXPECT_EQ(scalar.series[i].berBefore, sliced.series[i].berBefore);
        EXPECT_EQ(scalar.series[i].berAfter, sliced.series[i].berAfter);
    }
}

/**
 * A slot whose lanes carry *different* profiler types cannot form a
 * lane-native observer group; the engine must fall back to the scalar
 * scatter+observe path for that slot and stay bit-identical.
 */
TEST(SlicedRoundEngine, MixedProfilerTypesWithinASlotStayBitIdentical)
{
    forEachSeed(1, [](std::uint64_t seed, common::Xoshiro256 &rng) {
        const std::size_t lanes = 11;
        std::vector<ecc::HammingCode> codes;
        std::vector<fault::WordFaultModel> faults;
        for (std::size_t w = 0; w < lanes; ++w) {
            codes.push_back(ecc::HammingCode::randomSec(64, rng));
            faults.push_back(
                fault::WordFaultModel::makeUniformFixedCount(
                    codes[w].n(), 2 + w % 3, 0.5, rng));
        }

        // Slot 0 alternates Naive/HARP-U per lane (group formation
        // must bail); slot 1 is homogeneous HARP-A (group forms).
        const auto makeSet =
            [&](std::size_t w) -> std::vector<std::unique_ptr<Profiler>> {
            std::vector<std::unique_ptr<Profiler>> set;
            if (w % 2 == 0)
                set.push_back(std::make_unique<NaiveProfiler>(64));
            else
                set.push_back(std::make_unique<HarpUProfiler>(64));
            set.push_back(std::make_unique<HarpAProfiler>(codes[w]));
            return set;
        };

        std::vector<std::vector<std::unique_ptr<Profiler>>> scalar_sets;
        std::vector<std::vector<std::unique_ptr<Profiler>>> sliced_sets;
        std::vector<std::unique_ptr<RoundEngine>> scalar_engines;
        std::vector<const ecc::HammingCode *> code_ptrs;
        std::vector<const fault::WordFaultModel *> fault_ptrs;
        std::vector<std::uint64_t> lane_seeds;
        std::vector<std::vector<Profiler *>> scalar_raw(lanes);
        std::vector<std::vector<Profiler *>> sliced_raw(lanes);
        for (std::size_t w = 0; w < lanes; ++w) {
            const std::uint64_t word_seed = common::deriveSeed(seed, {w});
            scalar_sets.push_back(makeSet(w));
            sliced_sets.push_back(makeSet(w));
            for (auto &p : scalar_sets[w])
                scalar_raw[w].push_back(p.get());
            for (auto &p : sliced_sets[w])
                sliced_raw[w].push_back(p.get());
            scalar_engines.push_back(std::make_unique<RoundEngine>(
                codes[w], faults[w], PatternKind::Random, word_seed,
                scalar_raw[w]));
            code_ptrs.push_back(&codes[w]);
            fault_ptrs.push_back(&faults[w]);
            lane_seeds.push_back(word_seed);
        }
        SlicedRoundEngine sliced_engine(code_ptrs, fault_ptrs,
                                        PatternKind::Random, lane_seeds,
                                        sliced_raw);

        for (std::size_t r = 0; r < 20; ++r) {
            sliced_engine.runRound();
            for (std::size_t w = 0; w < lanes; ++w) {
                scalar_engines[w]->runRound();
                for (std::size_t s = 0; s < 2; ++s)
                    ASSERT_EQ(sliced_raw[w][s]->identified(),
                              scalar_raw[w][s]->identified())
                        << "round " << r << ", lane " << w
                        << ", profiler " << scalar_raw[w][s]->name();
            }
        }
        // The mixed slot really ran scalar: observes happened (the
        // lanes are faulty, so not every round was clean).
        EXPECT_GT(sliced_engine.stats().scalarObserveCalls, 0u);
        // The homogeneous HARP-A slot ran lane-natively every round.
        EXPECT_EQ(sliced_engine.stats().laneObserveSlotRounds, 20u);
    });
}

/**
 * The observation-path instrumentation witnesses the tentpole elision:
 * a workload whose slots are all lane-native performs *zero* scatters
 * and zero scalar observe() calls, no matter how often profiles are
 * read; adding a crafting slot brings the scalar path (and its
 * scatters) back for that slot only.
 */
TEST(SlicedRoundEngine, LaneNativeSlotsElideScattersAndObserves)
{
    common::Xoshiro256 rng(77);
    std::vector<ecc::HammingCode> codes;
    std::vector<fault::WordFaultModel> faults;
    const std::size_t lanes = 64;
    for (std::size_t w = 0; w < lanes; ++w) {
        codes.push_back(ecc::HammingCode::randomSec(64, rng));
        faults.push_back(fault::WordFaultModel::makeUniformFixedCount(
            codes[w].n(), 3, 0.75, rng));
    }
    std::vector<const ecc::HammingCode *> code_ptrs;
    std::vector<const fault::WordFaultModel *> fault_ptrs;
    std::vector<std::uint64_t> seeds;
    for (std::size_t w = 0; w < lanes; ++w) {
        code_ptrs.push_back(&codes[w]);
        fault_ptrs.push_back(&faults[w]);
        seeds.push_back(common::deriveSeed(4242, {w}));
    }

    // All-lane-native fleet: Naive + HARP-U + HARP-A slots.
    {
        std::vector<std::vector<std::unique_ptr<Profiler>>> sets(lanes);
        std::vector<std::vector<Profiler *>> raw(lanes);
        for (std::size_t w = 0; w < lanes; ++w) {
            sets[w].push_back(std::make_unique<NaiveProfiler>(64));
            sets[w].push_back(std::make_unique<HarpUProfiler>(64));
            sets[w].push_back(std::make_unique<HarpAProfiler>(codes[w]));
            for (auto &p : sets[w])
                raw[w].push_back(p.get());
        }
        SlicedRoundEngine engine(code_ptrs, fault_ptrs,
                                 PatternKind::Random, seeds, raw);
        for (std::size_t r = 0; r < 16; ++r) {
            engine.runRound();
            // Per-round profile reads flush the observer groups but
            // must not bring the per-round scatters back.
            ASSERT_GT(raw[0][0]->identified().size(), 0u);
        }
        const SlicedRoundEngine::Stats &stats = engine.stats();
        EXPECT_EQ(stats.postScatters, 0u);
        EXPECT_EQ(stats.rawScatters, 0u);
        EXPECT_EQ(stats.scalarObserveCalls, 0u);
        EXPECT_EQ(stats.mixedDatapathRuns, 0u);
        EXPECT_EQ(stats.laneObserveSlotRounds, 16u * 3u);
        EXPECT_EQ(stats.suggestedDatapathRuns, 16u);
    }

    // Same fleet plus a BEEP slot: the crafting slot (and only it)
    // runs the scalar path — scatters and observes return, bounded by
    // one slot's worth, and clean lanes are skipped.
    {
        std::vector<std::vector<std::unique_ptr<Profiler>>> sets(lanes);
        std::vector<std::vector<Profiler *>> raw(lanes);
        for (std::size_t w = 0; w < lanes; ++w) {
            sets[w].push_back(std::make_unique<NaiveProfiler>(64));
            sets[w].push_back(std::make_unique<BeepProfiler>(codes[w]));
            sets[w].push_back(std::make_unique<HarpUProfiler>(64));
            sets[w].push_back(std::make_unique<HarpAProfiler>(codes[w]));
            for (auto &p : sets[w])
                raw[w].push_back(p.get());
        }
        SlicedRoundEngine engine(code_ptrs, fault_ptrs,
                                 PatternKind::Random, seeds, raw);
        const std::size_t rounds = 16;
        for (std::size_t r = 0; r < rounds; ++r)
            engine.runRound();
        const SlicedRoundEngine::Stats &stats = engine.stats();
        EXPECT_GT(stats.postScatters, 0u);
        EXPECT_LE(stats.postScatters, rounds);
        EXPECT_EQ(stats.rawScatters, 0u); // BEEP never reads raw
        EXPECT_GT(stats.scalarObserveCalls, 0u);
        // Observe calls + clean skips account for exactly the BEEP
        // slot's lane-rounds.
        EXPECT_EQ(stats.scalarObserveCalls + stats.cleanObserveSkips,
                  rounds * lanes);
        EXPECT_EQ(stats.laneObserveSlotRounds, rounds * 3u);
    }
}

TEST(SlicedRoundEngine, RejectsInconsistentLaneCounts)
{
    common::Xoshiro256 rng(3);
    const ecc::HammingCode code = ecc::HammingCode::randomSec(64, rng);
    const fault::WordFaultModel faults =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 2, 0.5,
                                                     rng);
    const std::vector<const ecc::HammingCode *> two_codes = {&code,
                                                             &code};
    const std::vector<const ecc::HammingCode *> one_code = {&code};
    const std::vector<const fault::WordFaultModel *> one_fault = {
        &faults};
    const std::vector<const fault::WordFaultModel *> two_faults = {
        &faults, &faults};
    NaiveProfiler a(64), b(64), c(64), d(64), short_k(32);
    EXPECT_THROW(SlicedRoundEngine(two_codes, one_fault,
                                   PatternKind::Random, {1, 2}, {{&a}}),
                 std::invalid_argument);
    EXPECT_THROW(SlicedRoundEngine(one_code, one_fault,
                                   PatternKind::Random, {1, 2}, {{&a}}),
                 std::invalid_argument);
    // One profiler set per lane.
    EXPECT_THROW(SlicedRoundEngine(one_code, one_fault,
                                   PatternKind::Random, {1},
                                   {{&a}, {&b}}),
                 std::invalid_argument);
    // Ragged slots: every lane passes the same number of profilers.
    EXPECT_THROW(SlicedRoundEngine(two_codes, two_faults,
                                   PatternKind::Random, {1, 2},
                                   {{&a, &b}, {&c}}),
                 std::invalid_argument);
    // Every profiler profiles the code's k data bits.
    EXPECT_THROW(SlicedRoundEngine(two_codes, two_faults,
                                   PatternKind::Random, {1, 2},
                                   {{&a}, {&short_k}}),
                 std::invalid_argument);
    // The rejected engines left every profiler unbound.
    EXPECT_NO_THROW(SlicedRoundEngine(two_codes, two_faults,
                                      PatternKind::Random, {1, 2},
                                      {{&a, &b}, {&c, &d}}));
}

/**
 * A profiler belongs to at most one live engine: binding it while
 * another engine holds it throws, and once that engine is gone a new
 * engine binds it and extends the profile it left.
 */
TEST(SlicedRoundEngine, ProfilerBindsToOneLiveEngineAtATime)
{
    common::Xoshiro256 rng(31);
    const ecc::HammingCode code = ecc::HammingCode::randomSec(64, rng);
    const fault::WordFaultModel faults =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 6, 0.5,
                                                     rng);
    const std::vector<const ecc::HammingCode *> codes = {&code};
    const std::vector<const fault::WordFaultModel *> fault_ptrs = {
        &faults};
    const auto run = [&](std::uint64_t seed, Profiler &profiler) {
        SlicedRoundEngine engine(codes, fault_ptrs, PatternKind::Random,
                                 {seed}, {{&profiler}});
        for (std::size_t r = 0; r < 8; ++r)
            engine.runRound();
    };

    NaiveProfiler naive(64);
    {
        SlicedRoundEngine holder(codes, fault_ptrs, PatternKind::Random,
                                 {5}, {{&naive}});
        EXPECT_THROW(SlicedRoundEngine(codes, fault_ptrs,
                                       PatternKind::Random, {6},
                                       {{&naive}}),
                     std::invalid_argument);
        for (std::size_t r = 0; r < 8; ++r)
            holder.runRound();
    }
    const gf2::BitVector first = naive.identified();
    ASSERT_FALSE(first.isZero());

    run(6, naive);
    NaiveProfiler fresh(64);
    run(6, fresh);
    gf2::BitVector expected = first;
    expected |= fresh.identified();
    EXPECT_EQ(naive.identified(), expected);
}

/**
 * One SlicedBchCode shared (non-owning) by consecutive block engines —
 * the amortized-warm-up shape the BCH specs use — must stay
 * bit-identical to scalar references, including a ragged final block
 * narrower than the shared datapath's lane count.
 */
TEST(SlicedRoundEngine, SharedBchDatapathAcrossBlocksStaysBitIdentical)
{
    common::Xoshiro256 rng(21);
    const ecc::BchCode code(64, 2);
    // Shared 8-lane datapath; its memo starts empty, so the shared
    // fill below stays observable.
    const ecc::SlicedBchCode sliced(code, 8);
    const std::size_t block_sizes[] = {8, 8, 3}; // ragged tail

    std::size_t word = 0;
    for (const std::size_t block : block_sizes) {
        std::vector<fault::WordFaultModel> faults;
        std::vector<const fault::WordFaultModel *> fault_ptrs;
        std::vector<std::uint64_t> seeds;
        std::vector<std::unique_ptr<Profiler>> scalar_ps, sliced_ps;
        std::vector<std::vector<Profiler *>> scalar_raw(block),
            sliced_raw(block);
        faults.reserve(block);
        for (std::size_t w = 0; w < block; ++w, ++word) {
            faults.push_back(
                fault::WordFaultModel::makeUniformFixedCount(
                    code.n(), 2 + word % 3, 0.5, rng));
            seeds.push_back(common::deriveSeed(77, {word}));
            scalar_ps.push_back(
                std::make_unique<HarpUProfiler>(code.k()));
            sliced_ps.push_back(
                std::make_unique<HarpUProfiler>(code.k()));
            scalar_raw[w] = {scalar_ps[w].get()};
            sliced_raw[w] = {sliced_ps[w].get()};
        }
        for (std::size_t w = 0; w < block; ++w)
            fault_ptrs.push_back(&faults[w]);

        SlicedRoundEngine engine(sliced, fault_ptrs,
                                 PatternKind::Random, seeds, sliced_raw);
        ASSERT_EQ(engine.lanes(), block);
        std::vector<std::unique_ptr<RoundEngine>> refs;
        for (std::size_t w = 0; w < block; ++w)
            refs.push_back(std::make_unique<RoundEngine>(
                code, faults[w], PatternKind::Random, seeds[w],
                scalar_raw[w]));

        for (std::size_t r = 0; r < 12; ++r) {
            engine.runRound();
            for (std::size_t w = 0; w < block; ++w) {
                refs[w]->runRound();
                ASSERT_EQ(sliced_raw[w][0]->identified(),
                          scalar_raw[w][0]->identified())
                    << "block of " << block << ", round " << r
                    << ", lane " << w;
            }
        }
    }
    // The shared memo really was shared: later blocks hit entries the
    // earlier ones populated.
    EXPECT_GT(sliced.memoHits(), 0u);
    EXPECT_EQ(sliced.memoEntries(), sliced.memoMisses());

    // More fault models than the shared datapath has lanes: rejected.
    std::vector<fault::WordFaultModel> many;
    std::vector<const fault::WordFaultModel *> many_ptrs;
    for (std::size_t w = 0; w < 9; ++w)
        many.push_back(fault::WordFaultModel::makeUniformFixedCount(
            code.n(), 1, 0.5, rng));
    for (const fault::WordFaultModel &fm : many)
        many_ptrs.push_back(&fm);
    EXPECT_THROW(SlicedRoundEngine(sliced, many_ptrs,
                                   PatternKind::Random,
                                   std::vector<std::uint64_t>(9, 1),
                                   std::vector<std::vector<Profiler *>>(9)),
                 std::invalid_argument);
}

/**
 * The code-agnostic engine contract for BCH lanes: a SlicedRoundEngine
 * over ecc::SlicedBchCode (memoized syndrome decoding) must produce,
 * per round and per profiler, exactly the state of scalar RoundEngines
 * over the same t-error BCH word — across t, pre-correction error
 * counts, and ragged lane counts.
 */
TEST(SlicedRoundEngine, BitIdenticalForBchLanes)
{
    forEachSeed(1, [](std::uint64_t seed, common::Xoshiro256 &rng) {
        for (const std::size_t t : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}}) {
            const ecc::BchCode code(64, t);
            for (const std::size_t lanes :
                 {std::size_t{3}, std::size_t{17}}) {
                std::vector<fault::WordFaultModel> faults;
                for (std::size_t w = 0; w < lanes; ++w)
                    faults.push_back(
                        fault::WordFaultModel::makeUniformFixedCount(
                            code.n(), 1 + w % 5, 0.25 + 0.25 * (w % 4),
                            rng));

                // Per-word profiler pairs and engines with identical
                // per-word seed derivation on both paths.
                std::vector<std::unique_ptr<Profiler>> scalar_ps;
                std::vector<std::unique_ptr<Profiler>> sliced_ps;
                std::vector<std::unique_ptr<RoundEngine>> scalar_engines;
                std::vector<const fault::WordFaultModel *> fault_ptrs;
                std::vector<std::uint64_t> lane_seeds;
                std::vector<std::vector<Profiler *>> sliced_raw(lanes);
                std::vector<std::vector<Profiler *>> scalar_raw(lanes);
                for (std::size_t w = 0; w < lanes; ++w) {
                    const std::uint64_t word_seed =
                        common::deriveSeed(seed, {t, w});
                    scalar_ps.push_back(
                        std::make_unique<NaiveProfiler>(code.k()));
                    scalar_ps.push_back(
                        std::make_unique<HarpUProfiler>(code.k()));
                    sliced_ps.push_back(
                        std::make_unique<NaiveProfiler>(code.k()));
                    sliced_ps.push_back(
                        std::make_unique<HarpUProfiler>(code.k()));
                    scalar_raw[w] = {scalar_ps[2 * w].get(),
                                     scalar_ps[2 * w + 1].get()};
                    sliced_raw[w] = {sliced_ps[2 * w].get(),
                                     sliced_ps[2 * w + 1].get()};
                    scalar_engines.push_back(
                        std::make_unique<RoundEngine>(
                            code, faults[w], PatternKind::Random,
                            word_seed, scalar_raw[w]));
                    fault_ptrs.push_back(&faults[w]);
                    lane_seeds.push_back(word_seed);
                }
                const ecc::SlicedBchCode sliced(code, lanes);
                SlicedRoundEngine sliced_engine(sliced, fault_ptrs,
                                                PatternKind::Random,
                                                lane_seeds, sliced_raw);

                for (std::size_t r = 0; r < 16; ++r) {
                    sliced_engine.runRound();
                    for (std::size_t w = 0; w < lanes; ++w)
                        scalar_engines[w]->runRound();
                    for (std::size_t w = 0; w < lanes; ++w)
                        for (std::size_t s = 0; s < 2; ++s)
                            ASSERT_EQ(sliced_raw[w][s]->identified(),
                                      scalar_raw[w][s]->identified())
                                << "t " << t << ", round " << r
                                << ", lane " << w << ", profiler "
                                << scalar_raw[w][s]->name();
                }
            }
        }
    });
}

} // namespace
} // namespace harp::core
