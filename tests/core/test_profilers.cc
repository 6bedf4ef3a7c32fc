/**
 * @file
 * Unit, property, and behavioural tests for the five profilers. These
 * encode the paper's qualitative claims: HARP identifies every direct
 * at-risk bit as soon as it fails; Naive needs uncorrectable combinations;
 * BEEP crafts patterns around suspects; HARP-A predicts indirect errors;
 * no profiler ever reports a bit the ground truth rules out as at-risk
 * (no unsound identifications against the ground-truth analyzer).
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "core/at_risk_analyzer.hh"
#include "core/beep_profiler.hh"
#include "core/harp_a_beep_profiler.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/round_engine.hh"

namespace harp::core {
namespace {

ecc::HammingCode
makeCode(std::uint64_t seed = 1)
{
    common::Xoshiro256 rng(seed);
    return ecc::HammingCode::randomSec(64, rng);
}

/** Run all profilers for @p rounds rounds on a scenario. */
struct Scenario
{
    ecc::HammingCode code;
    fault::WordFaultModel faults;
    NaiveProfiler naive;
    BeepProfiler beep;
    HarpUProfiler harpU;
    HarpAProfiler harpA;
    HarpABeepProfiler harpABeep;
    RoundEngine engine;

    Scenario(std::uint64_t seed, std::size_t n_faults, double prob)
        : code(makeCode(seed)),
          faults([&] {
              common::Xoshiro256 rng(seed + 1000);
              return fault::WordFaultModel::makeUniformFixedCount(
                  code.n(), n_faults, prob, rng);
          }()),
          naive(code.k()),
          beep(code),
          harpU(code.k()),
          harpA(code),
          harpABeep(code),
          engine(code, faults, PatternKind::Random, seed + 2000, all())
    {
    }

    std::vector<Profiler *>
    all()
    {
        return {&naive, &beep, &harpU, &harpA, &harpABeep};
    }

    void
    run(std::size_t rounds)
    {
        for (std::size_t r = 0; r < rounds; ++r)
            engine.runRound();
    }
};

TEST(Profilers, NamesAndBypassFlags)
{
    Scenario s(1, 2, 0.5);
    EXPECT_EQ(s.naive.name(), "Naive");
    EXPECT_EQ(s.beep.name(), "BEEP");
    EXPECT_EQ(s.harpU.name(), "HARP-U");
    EXPECT_EQ(s.harpA.name(), "HARP-A");
    EXPECT_EQ(s.harpABeep.name(), "HARP-A+BEEP");
    EXPECT_FALSE(s.naive.usesBypassPath());
    EXPECT_FALSE(s.beep.usesBypassPath());
    EXPECT_TRUE(s.harpU.usesBypassPath());
    EXPECT_TRUE(s.harpA.usesBypassPath());
    EXPECT_TRUE(s.harpABeep.usesBypassPath());
}

TEST(Profilers, AllStartEmpty)
{
    Scenario s(2, 3, 0.5);
    for (Profiler *p : s.all())
        EXPECT_TRUE(p->identified().isZero()) << p->name();
}

TEST(Profilers, HarpUAchievesFullDirectCoverage)
{
    // With p = 0.5 and random+inverse patterns, 64 rounds make a missed
    // direct cell a ~2^-32 event.
    for (std::uint64_t seed = 10; seed < 20; ++seed) {
        Scenario s(seed, 4, 0.5);
        const AtRiskAnalyzer analyzer(s.code, s.faults);
        s.run(64);
        gf2::BitVector covered = s.harpU.identified();
        covered &= analyzer.directAtRisk();
        EXPECT_EQ(covered.popcount(),
                  analyzer.directAtRisk().popcount())
            << "seed " << seed;
    }
}

TEST(Profilers, HarpUIdentifiesOnlyDirectErrors)
{
    // HARP-U bypasses on-die ECC, so it can never observe (or report)
    // an indirect error that is not also a direct one.
    for (std::uint64_t seed = 30; seed < 40; ++seed) {
        Scenario s(seed, 4, 0.5);
        const AtRiskAnalyzer analyzer(s.code, s.faults);
        s.run(64);
        gf2::BitVector outside = s.harpU.identified();
        gf2::BitVector mask = analyzer.directAtRisk();
        mask.fill(true);
        mask ^= analyzer.directAtRisk(); // complement
        outside &= mask;
        EXPECT_TRUE(outside.isZero()) << "seed " << seed;
    }
}

TEST(Profilers, HarpUAtProbabilityOneCoversInOneInversionPair)
{
    // p = 1.0: every charged at-risk cell fails every round; the pattern
    // and its inverse charge every cell, so 2 rounds give full coverage.
    for (std::uint64_t seed = 50; seed < 56; ++seed) {
        Scenario s(seed, 5, 1.0);
        const AtRiskAnalyzer analyzer(s.code, s.faults);
        s.run(2);
        gf2::BitVector covered = s.harpU.identified();
        covered &= analyzer.directAtRisk();
        EXPECT_EQ(covered.popcount(),
                  analyzer.directAtRisk().popcount())
            << "seed " << seed;
    }
}

TEST(Profilers, NaiveCannotSeeLoneCellFailures)
{
    // A word with a single at-risk data cell never produces a
    // post-correction error (SEC always corrects a lone failure), so
    // Naive identifies nothing, ever, while HARP-U sees the raw failure
    // immediately through the bypass path.
    const ecc::HammingCode code = makeCode(60);
    const fault::WordFaultModel faults(code.n(), {{17, 1.0}});
    NaiveProfiler naive(code.k());
    HarpUProfiler harp(code.k());
    RoundEngine engine(code, faults, PatternKind::Random, 61,
                       {&naive, &harp});
    for (int r = 0; r < 32; ++r)
        engine.runRound();
    EXPECT_TRUE(naive.identified().isZero());
    EXPECT_EQ(harp.identified().setBits(),
              (std::vector<std::size_t>{17}));
}

TEST(Profilers, NaiveEventuallyCoversDirectWithRandomPatterns)
{
    // With >= 2 at-risk cells at p=0.5, uncorrectable combinations occur
    // regularly; Naive converges, just more slowly than HARP.
    std::size_t naive_total = 0, harp_total = 0, gt_total = 0;
    for (std::uint64_t seed = 70; seed < 80; ++seed) {
        Scenario s(seed, 3, 0.5);
        const AtRiskAnalyzer analyzer(s.code, s.faults);
        s.run(128);
        gf2::BitVector naive_cov = s.naive.identified();
        naive_cov &= analyzer.directAtRisk();
        gf2::BitVector harp_cov = s.harpU.identified();
        harp_cov &= analyzer.directAtRisk();
        naive_total += naive_cov.popcount();
        harp_total += harp_cov.popcount();
        gt_total += analyzer.directAtRisk().popcount();
    }
    EXPECT_EQ(harp_total, gt_total);
    // Naive reaches at least 90% aggregate coverage after 128 rounds...
    EXPECT_GE(naive_total * 10, gt_total * 9);
}

TEST(Profilers, HarpFasterThanNaive)
{
    // Count rounds to full direct coverage; HARP must never be slower.
    std::size_t harp_rounds_total = 0, naive_rounds_total = 0;
    for (std::uint64_t seed = 90; seed < 100; ++seed) {
        Scenario s(seed, 3, 0.5);
        const AtRiskAnalyzer analyzer(s.code, s.faults);
        const std::size_t target = analyzer.directAtRisk().popcount();
        std::size_t harp_done = 129, naive_done = 129;
        for (std::size_t r = 0; r < 128; ++r) {
            s.engine.runRound();
            gf2::BitVector h = s.harpU.identified();
            h &= analyzer.directAtRisk();
            if (h.popcount() == target && harp_done > 128)
                harp_done = r + 1;
            gf2::BitVector n = s.naive.identified();
            n &= analyzer.directAtRisk();
            if (n.popcount() == target && naive_done > 128)
                naive_done = r + 1;
            if (harp_done <= 128 && naive_done <= 128)
                break;
        }
        ASSERT_LE(harp_done, 128u) << "seed " << seed;
        EXPECT_LE(harp_done, naive_done) << "seed " << seed;
        harp_rounds_total += harp_done;
        naive_rounds_total += std::min<std::size_t>(naive_done, 128);
    }
    EXPECT_LT(harp_rounds_total, naive_rounds_total);
}

TEST(Profilers, HarpAPredictionsAreSoundIndirectTargets)
{
    // Every bit HARP-A predicts must be a ground-truth indirect-at-risk
    // bit: predictions derive from actually-at-risk data cells only.
    for (std::uint64_t seed = 110; seed < 120; ++seed) {
        Scenario s(seed, 4, 0.5);
        const AtRiskAnalyzer analyzer(s.code, s.faults);
        s.run(64);
        gf2::BitVector predictions = s.harpA.predictedIndirect();
        gf2::BitVector sound = predictions;
        sound &= analyzer.indirectAtRisk();
        EXPECT_EQ(sound.popcount(), predictions.popcount())
            << "seed " << seed;
    }
}

TEST(Profilers, HarpAIdentifiesAtLeastAsMuchAsHarpU)
{
    for (std::uint64_t seed = 130; seed < 136; ++seed) {
        Scenario s(seed, 4, 0.75);
        s.run(32);
        gf2::BitVector u_minus_a = s.harpU.identified();
        gf2::BitVector in_both = u_minus_a;
        in_both &= s.harpA.identified();
        EXPECT_EQ(in_both.popcount(), u_minus_a.popcount())
            << "HARP-A must contain HARP-U's profile, seed " << seed;
    }
}

TEST(Profilers, HarpADirectCoverageEqualsHarpU)
{
    // Footnote 5 of the paper: HARP-U and HARP-A have identical coverage
    // of bits at risk of direct error.
    for (std::uint64_t seed = 140; seed < 146; ++seed) {
        Scenario s(seed, 3, 0.5);
        const AtRiskAnalyzer analyzer(s.code, s.faults);
        s.run(48);
        gf2::BitVector u = s.harpU.identified();
        u &= analyzer.directAtRisk();
        gf2::BitVector a = s.harpA.identified();
        a &= analyzer.directAtRisk();
        EXPECT_EQ(u, a) << "seed " << seed;
    }
}

TEST(Profilers, BeepStartsWithSuggestedPattern)
{
    Scenario s(150, 2, 0.5);
    gf2::BitVector out;
    EXPECT_FALSE(s.beep.craftDataword(out));
}

TEST(Profilers, BeepCraftsChargedPatternsAfterConfirmation)
{
    Scenario s(151, 2, 0.5);
    s.beep.addSuspectedCell(5);
    s.beep.addSuspectedCell(9);
    gf2::BitVector chosen;
    ASSERT_TRUE(s.beep.craftDataword(chosen));
    // Crafted pattern must charge the suspected data cells.
    EXPECT_TRUE(chosen.get(5));
    EXPECT_TRUE(chosen.get(9));
    // And keep most other data cells discharged for attributability
    // (suspects + probe + any parity implications only).
    EXPECT_LE(chosen.popcount(), 4u);
}

TEST(Profilers, BeepObservationUpdatesSuspects)
{
    Scenario s(152, 2, 0.5);
    gf2::BitVector written(64);
    gf2::BitVector post = written;
    post.flip(7);
    post.flip(21);
    const gf2::BitVector raw = written;
    const RoundObservation obs{written, post, raw};
    s.beep.observe(obs);
    EXPECT_TRUE(s.beep.identified().get(7));
    EXPECT_TRUE(s.beep.identified().get(21));
    EXPECT_EQ(s.beep.suspectedCells().count(7), 1u);
    EXPECT_EQ(s.beep.suspectedCells().count(21), 1u);
}

TEST(Profilers, BeepSlowerThanHarpOnDirectCoverage)
{
    // Aggregate over scenarios: BEEP's crafted patterns pin non-target
    // cells discharged, so its direct coverage lags HARP's.
    std::size_t beep_total = 0, harp_total = 0;
    for (std::uint64_t seed = 160; seed < 172; ++seed) {
        Scenario s(seed, 4, 0.5);
        const AtRiskAnalyzer analyzer(s.code, s.faults);
        s.run(48);
        gf2::BitVector b = s.beep.identified();
        b &= analyzer.directAtRisk();
        beep_total += b.popcount();
        gf2::BitVector h = s.harpU.identified();
        h &= analyzer.directAtRisk();
        harp_total += h.popcount();
    }
    EXPECT_LT(beep_total, harp_total);
}

TEST(Profilers, HarpABeepContainsHarpDirectCoverage)
{
    for (std::uint64_t seed = 180; seed < 186; ++seed) {
        Scenario s(seed, 3, 0.5);
        const AtRiskAnalyzer analyzer(s.code, s.faults);
        s.run(64);
        // The hybrid uses the bypass path, so its direct coverage matches
        // HARP's full coverage.
        gf2::BitVector hybrid = s.harpABeep.identifiedDirect();
        EXPECT_EQ(hybrid, analyzer.directAtRisk()) << "seed " << seed;
    }
}

TEST(Profilers, HybridFindsIndirectAtLeastAsFastAsHarpA)
{
    std::size_t hybrid_total = 0, harpa_total = 0;
    for (std::uint64_t seed = 190; seed < 202; ++seed) {
        Scenario s(seed, 4, 0.75);
        const AtRiskAnalyzer analyzer(s.code, s.faults);
        s.run(64);
        gf2::BitVector hy = s.harpABeep.identified();
        hy &= analyzer.indirectAtRisk();
        hybrid_total += hy.popcount();
        gf2::BitVector ha = s.harpA.identified();
        ha &= analyzer.indirectAtRisk();
        harpa_total += ha.popcount();
    }
    EXPECT_GE(hybrid_total, harpa_total);
}

TEST(Profilers, ObservationBasedProfilersNeverReportImpossibleBits)
{
    // Anything Naive identifies must be a ground-truth post-correction
    // at-risk bit (it only reports observed errors).
    for (std::uint64_t seed = 210; seed < 220; ++seed) {
        Scenario s(seed, 4, 0.5);
        const AtRiskAnalyzer analyzer(s.code, s.faults);
        s.run(64);
        gf2::BitVector naive_ids = s.naive.identified();
        gf2::BitVector sound = naive_ids;
        sound &= analyzer.postCorrectionAtRisk();
        EXPECT_EQ(sound.popcount(), naive_ids.popcount())
            << "seed " << seed;
    }
}

} // namespace
} // namespace harp::core
