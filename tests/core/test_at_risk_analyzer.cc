/**
 * @file
 * Unit and property tests for the ground-truth at-risk analyzer,
 * including a Monte-Carlo cross-check of the exact Fig. 4 probabilities
 * and the Table 2 amplification bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "core/at_risk_analyzer.hh"
#include "gf2/linear_solver.hh"
#include "support/at_risk_reference.hh"
#include "support/property.hh"

namespace harp::core {
namespace {

ecc::HammingCode
makeCode(std::uint64_t seed = 1, std::size_t k = 64)
{
    common::Xoshiro256 rng(seed);
    return ecc::HammingCode::randomSec(k, rng);
}

TEST(AtRiskAnalyzer, NoFaultsNoRisk)
{
    const ecc::HammingCode code = makeCode();
    const fault::WordFaultModel fm(code.n(), {});
    const AtRiskAnalyzer analyzer(code, fm);
    EXPECT_TRUE(analyzer.outcomes().empty());
    EXPECT_TRUE(analyzer.directAtRisk().isZero());
    EXPECT_TRUE(analyzer.indirectAtRisk().isZero());
    EXPECT_TRUE(analyzer.postCorrectionAtRisk().isZero());
    const gf2::BitVector empty(code.k());
    EXPECT_EQ(analyzer.maxSimultaneousErrors(empty), 0u);
}

TEST(AtRiskAnalyzer, SingleDataFaultIsAlwaysCorrected)
{
    // One at-risk cell: SEC absorbs its only possible failing pattern, so
    // nothing is at risk of post-correction error — but the cell is still
    // at risk of *direct* (raw) error, which HARP identifies via bypass.
    const ecc::HammingCode code = makeCode();
    const fault::WordFaultModel fm(code.n(), {{10, 0.5}});
    const AtRiskAnalyzer analyzer(code, fm);
    ASSERT_EQ(analyzer.outcomes().size(), 1u);
    EXPECT_TRUE(analyzer.outcomes()[0].postErrors.empty());
    EXPECT_TRUE(analyzer.postCorrectionAtRisk().isZero());
    EXPECT_TRUE(analyzer.directAtRisk().get(10));
    EXPECT_EQ(analyzer.directAtRisk().popcount(), 1u);
}

TEST(AtRiskAnalyzer, TwoDataFaultsProduceThreeAtRiskBits)
{
    // If the pair syndrome maps to a third data column, the at-risk set is
    // {a, b, target} — Table 2's n=2 worst case of 2^2-1 = 3 bits.
    const ecc::HammingCode code = makeCode(3);
    std::optional<std::pair<std::size_t, std::size_t>> pair;
    std::size_t target_pos = 0;
    for (std::size_t i = 0; i < 64 && !pair; ++i) {
        for (std::size_t j = i + 1; j < 64 && !pair; ++j) {
            const auto target = code.syndromeToPosition(
                code.dataColumn(i) ^ code.dataColumn(j));
            if (target && *target < 64) {
                pair = {i, j};
                target_pos = *target;
            }
        }
    }
    ASSERT_TRUE(pair.has_value());
    const fault::WordFaultModel fm(
        code.n(), {{pair->first, 0.5}, {pair->second, 0.5}});
    const AtRiskAnalyzer analyzer(code, fm);

    EXPECT_EQ(analyzer.directAtRisk().popcount(), 2u);
    EXPECT_TRUE(analyzer.indirectAtRisk().get(target_pos));
    EXPECT_EQ(analyzer.indirectAtRisk().popcount(), 1u);
    EXPECT_EQ(analyzer.postCorrectionAtRisk().popcount(), 3u);
    // Worst case simultaneous: both direct fail + miscorrection = 3.
    const gf2::BitVector empty(code.k());
    EXPECT_EQ(analyzer.maxSimultaneousErrors(empty), 3u);
}

TEST(AtRiskAnalyzer, ParityFaultsCauseOnlyIndirectErrors)
{
    // Two parity-cell faults can only hurt data through a miscorrection.
    const ecc::HammingCode code = makeCode(5);
    std::optional<std::pair<std::size_t, std::size_t>> pair;
    std::size_t target_pos = 0;
    for (std::size_t i = 64; i < 71 && !pair; ++i) {
        for (std::size_t j = i + 1; j < 71 && !pair; ++j) {
            const auto target = code.syndromeToPosition(
                code.codewordColumn(i) ^ code.codewordColumn(j));
            if (target && *target < 64) {
                pair = {i, j};
                target_pos = *target;
            }
        }
    }
    ASSERT_TRUE(pair.has_value());
    const fault::WordFaultModel fm(
        code.n(), {{pair->first, 0.5}, {pair->second, 0.5}});
    const AtRiskAnalyzer analyzer(code, fm);
    EXPECT_TRUE(analyzer.directAtRisk().isZero());
    EXPECT_TRUE(analyzer.indirectAtRisk().get(target_pos));
    EXPECT_EQ(analyzer.postCorrectionAtRisk().popcount(), 1u);
    const gf2::BitVector empty(code.k());
    EXPECT_EQ(analyzer.maxSimultaneousErrors(empty), 1u);
}

TEST(AtRiskAnalyzer, OutcomesMatchDirectSimulation)
{
    // Property: for every feasible outcome, replaying the failing cells
    // against a real encode/corrupt/decode cycle yields exactly the
    // predicted post-correction errors. Uses probability-0.5 cells so
    // every subset is feasible with a suitable pattern.
    common::Xoshiro256 rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        const ecc::HammingCode code = makeCode(100 + trial, 16);
        const fault::WordFaultModel fm =
            fault::WordFaultModel::makeUniformFixedCount(code.n(), 4, 0.5,
                                                         rng);
        const AtRiskAnalyzer analyzer(code, fm);
        for (const ErrorPatternOutcome &outcome : analyzer.outcomes()) {
            // Build a dataword that charges the failing cells (the
            // analyzer says one exists).
            gf2::ConstraintSystem cs(code.k());
            for (std::size_t i = 0; i < fm.numFaults(); ++i) {
                if (((outcome.failingMask >> i) & 1) == 0)
                    continue;
                const std::size_t pos = fm.faults()[i].position;
                if (pos < code.k()) {
                    cs.pinVariable(pos, true);
                } else {
                    cs.addConstraint(code.parityRow(pos - code.k()),
                                     true);
                }
            }
            const auto d = cs.solveAny();
            ASSERT_TRUE(d.has_value());
            gf2::BitVector received = code.encode(*d);
            for (std::size_t i = 0; i < fm.numFaults(); ++i)
                if ((outcome.failingMask >> i) & 1)
                    received.flip(fm.faults()[i].position);
            const ecc::DecodeResult decoded = code.decode(received);
            gf2::BitVector diff = decoded.dataword;
            diff ^= *d;
            std::vector<std::uint16_t> observed;
            diff.forEachSetBit([&](std::size_t b) {
                observed.push_back(static_cast<std::uint16_t>(b));
            });
            EXPECT_EQ(observed, outcome.postErrors);
            EXPECT_EQ(decoded.syndrome, outcome.syndrome);
        }
    }
}

TEST(AtRiskAnalyzer, Table2AmplificationBound)
{
    // Table 2: n at-risk cells yield at most 2^n - 1 bits at risk of
    // post-correction error; measured values respect the bound.
    common::Xoshiro256 rng(11);
    for (const std::size_t n : {1u, 2u, 3u, 4u}) {
        std::size_t max_seen = 0;
        for (int trial = 0; trial < 30; ++trial) {
            const ecc::HammingCode code = makeCode(500 + trial);
            const fault::WordFaultModel fm =
                fault::WordFaultModel::makeUniformFixedCount(code.n(), n,
                                                             0.5, rng);
            const AtRiskAnalyzer analyzer(code, fm);
            const std::size_t at_risk =
                analyzer.postCorrectionAtRisk().popcount();
            EXPECT_LE(at_risk, (std::size_t{1} << n) - 1);
            max_seen = std::max(max_seen, at_risk);
        }
        // The bound is approached in practice for small n.
        if (n >= 2) {
            EXPECT_GE(max_seen, n);
        }
    }
}

TEST(AtRiskAnalyzer, ProbabilityOneCellsConstrainFeasibility)
{
    // With p = 1.0 cells, a pattern excluding a charged p=1 cell is
    // impossible; feasibility must reflect the discharge requirement.
    // Construct: two data cells a, b with p=1. The pattern {a} alone is
    // feasible only by discharging b — always possible for data cells.
    const ecc::HammingCode code = makeCode(13);
    const fault::WordFaultModel fm(code.n(), {{0, 1.0}, {1, 1.0}});
    const AtRiskAnalyzer analyzer(code, fm);
    // All three nonempty subsets feasible: {a}, {b}, {a,b}.
    EXPECT_EQ(analyzer.outcomes().size(), 3u);
}

TEST(AtRiskAnalyzer, MaxSimultaneousShrinksWithProfile)
{
    common::Xoshiro256 rng(17);
    const ecc::HammingCode code = makeCode(19);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 4, 0.5,
                                                     rng);
    const AtRiskAnalyzer analyzer(code, fm);
    gf2::BitVector profile(code.k());
    const std::size_t before = analyzer.maxSimultaneousErrors(profile);
    profile = analyzer.postCorrectionAtRisk(); // repair everything
    EXPECT_EQ(analyzer.maxSimultaneousErrors(profile), 0u);
    EXPECT_GE(before, 1u);
}

TEST(AtRiskAnalyzer, UnsafeBitsZeroOnceDirectCovered)
{
    // HARP's core safety argument: with all direct-at-risk bits profiled,
    // at most one (indirect) post-correction error can occur at a time,
    // so no bit remains unsafe under a SEC secondary code.
    common::Xoshiro256 rng(23);
    for (int trial = 0; trial < 20; ++trial) {
        const ecc::HammingCode code = makeCode(700 + trial);
        const fault::WordFaultModel fm =
            fault::WordFaultModel::makeUniformFixedCount(code.n(), 5, 0.5,
                                                         rng);
        const AtRiskAnalyzer analyzer(code, fm);
        const gf2::BitVector &profile = analyzer.directAtRisk();
        EXPECT_LE(analyzer.maxSimultaneousErrors(profile), 1u);
        EXPECT_EQ(analyzer.unsafeBitsAfterReactive(profile), 0u);
    }
}

TEST(AtRiskAnalyzer, UnidentifiedAtRiskCounts)
{
    common::Xoshiro256 rng(29);
    const ecc::HammingCode code = makeCode(31);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 3, 0.5,
                                                     rng);
    const AtRiskAnalyzer analyzer(code, fm);
    const std::size_t total = analyzer.postCorrectionAtRisk().popcount();
    gf2::BitVector profile(code.k());
    EXPECT_EQ(analyzer.unidentifiedAtRisk(profile), total);
    profile = analyzer.postCorrectionAtRisk();
    EXPECT_EQ(analyzer.unidentifiedAtRisk(profile), 0u);
}

/**
 * Property: the three profile queries agree with a brute-force count
 * over outcomes() — per outcome, the post-correction errors the profile
 * leaves uncovered — for random profiles on random words. Profiles mix
 * uniform noise with random subsets of the at-risk bits, so they range
 * from empty to full coverage of the ground truth.
 */
TEST(AtRiskAnalyzer, ProfileQueriesMatchBruteForceOverOutcomes)
{
    std::size_t unsafe_seen = 0;
    test::forEachSeed(120, [&](std::uint64_t, common::Xoshiro256 &rng) {
        const std::size_t ks[] = {16, 32, 64, 128};
        const std::size_t k = ks[rng.nextBelow(4)];
        const ecc::HammingCode code = ecc::HammingCode::randomSec(k, rng);
        const double probs[] = {0.25, 0.5, 1.0};
        const fault::WordFaultModel fm =
            fault::WordFaultModel::makeUniformFixedCount(
                code.n(), 2 + rng.nextBelow(6), probs[rng.nextBelow(3)],
                rng);
        const AtRiskAnalyzer analyzer(code, fm);

        for (int trial = 0; trial < 8; ++trial) {
            gf2::BitVector profile = gf2::BitVector::random(k, rng);
            if (trial % 2 == 0)
                profile &= gf2::BitVector::random(k, rng); // sparse
            gf2::BitVector kept = analyzer.postCorrectionAtRisk();
            kept &= gf2::BitVector::random(k, rng);
            if (trial % 4 == 1)
                profile = kept; // some ground truth, nothing else
            if (trial == 0)
                profile = gf2::BitVector(k);

            std::size_t max_uncovered = 0;
            std::set<std::uint16_t> unsafe;
            std::set<std::uint16_t> unidentified;
            for (const ErrorPatternOutcome &outcome : analyzer.outcomes()) {
                std::vector<std::uint16_t> uncovered;
                for (const std::uint16_t pos : outcome.postErrors)
                    if (!profile.get(pos))
                        uncovered.push_back(pos);
                max_uncovered = std::max(max_uncovered, uncovered.size());
                unidentified.insert(uncovered.begin(), uncovered.end());
                if (uncovered.size() >= 2)
                    unsafe.insert(uncovered.begin(), uncovered.end());
            }
            unsafe_seen += unsafe.size();
            EXPECT_EQ(analyzer.maxSimultaneousErrors(profile),
                      max_uncovered);
            EXPECT_EQ(analyzer.unsafeBitsAfterReactive(profile),
                      unsafe.size());
            EXPECT_EQ(analyzer.unidentifiedAtRisk(profile),
                      unidentified.size());
        }
    });
    // The sweep must reach words with multi-error unsafe bits.
    EXPECT_GT(unsafe_seen, 50u);
}

TEST(AtRiskAnalyzer, PerBitProbabilityMatchesMonteCarlo)
{
    // Cross-check the exact Fig. 4 computation against direct sampling.
    common::Xoshiro256 rng(37);
    const ecc::HammingCode code = makeCode(41);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 3, 0.5,
                                                     rng);
    const AtRiskAnalyzer analyzer(code, fm);

    gf2::BitVector charged(code.k());
    charged.fill(true);
    const std::vector<double> exact =
        analyzer.perBitErrorProbability(charged);

    const gf2::BitVector codeword = code.encode(charged);
    std::vector<std::size_t> fail_counts(code.k(), 0);
    const int trials = 40000;
    for (int t = 0; t < trials; ++t) {
        gf2::BitVector received = codeword;
        received ^= fm.injectErrors(codeword, rng);
        const ecc::DecodeResult decoded = code.decode(received);
        gf2::BitVector diff = decoded.dataword;
        diff ^= charged;
        diff.forEachSetBit([&](std::size_t b) { ++fail_counts[b]; });
    }
    for (std::size_t i = 0; i < code.k(); ++i) {
        const double sampled =
            static_cast<double>(fail_counts[i]) / trials;
        EXPECT_NEAR(sampled, exact[i], 0.02) << "bit " << i;
    }
}

TEST(AtRiskAnalyzer, PerBitProbabilityZeroWhenDischarged)
{
    // With an all-zero pattern no true-cell is charged: no errors at all.
    common::Xoshiro256 rng(43);
    const ecc::HammingCode code = makeCode(47);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 4, 0.5,
                                                     rng);
    const AtRiskAnalyzer analyzer(code, fm);
    // Pattern of all zeros discharges every data cell; parity bits of the
    // zero codeword are zero too.
    const gf2::BitVector zeros(code.k());
    for (const double p : analyzer.perBitErrorProbability(zeros))
        EXPECT_DOUBLE_EQ(p, 0.0);
}

TEST(AtRiskAnalyzer, TooManyCellsThrows)
{
    const ecc::HammingCode code = makeCode(53);
    std::vector<fault::CellFault> faults;
    for (std::size_t i = 0; i < 20; ++i)
        faults.push_back({i, 0.5});
    const fault::WordFaultModel fm(code.n(), faults);
    EXPECT_THROW(AtRiskAnalyzer(code, fm, 16), std::invalid_argument);
    EXPECT_NO_THROW(AtRiskAnalyzer(code, fm, 20));
}

TEST(AtRiskAnalyzer, GuardAboveThePatternMaskWidthThrows)
{
    // Failing patterns are uint32_t masks: 32 cells would shift past
    // the mask, so no guard may admit them.
    const ecc::HammingCode code = makeCode(53);
    std::vector<fault::CellFault> faults;
    for (std::size_t i = 0; i < 32; ++i)
        faults.push_back({i, 0.5});
    const fault::WordFaultModel fm(code.n(), faults);
    EXPECT_THROW(AtRiskAnalyzer(code, fm, 40), std::invalid_argument);
}

TEST(AtRiskAnalyzer, MatchesPerSubsetEliminationReference)
{
    // Property: the once-per-word dependency check reproduces the
    // per-subset ConstraintSystem ground truth exactly. Small k makes
    // cell rows dependent (so some patterns are infeasible); p = 1 cells,
    // anti-cells and parity-position cells exercise every constraint.
    std::vector<std::size_t> ks;
    for (std::size_t k = 4; k <= 16; ++k)
        ks.push_back(k);
    ks.push_back(64);
    ks.push_back(128);
    std::size_t infeasible = 0;
    std::size_t dependent_words = 0;
    test::forEachSeed(160, [&](std::uint64_t, common::Xoshiro256 &rng) {
        const std::size_t k = ks[rng.nextBelow(ks.size())];
        const ecc::HammingCode code = ecc::HammingCode::randomSec(k, rng);
        const std::size_t m = rng.nextBelow(std::min<std::size_t>(
                                  12, code.n()) + 1);
        std::set<std::size_t> positions;
        while (positions.size() < m) {
            positions.insert(rng.nextBernoulli(0.3)
                                 ? k + rng.nextBelow(code.p())
                                 : rng.nextBelow(code.n()));
        }
        std::vector<fault::CellFault> cells;
        for (const std::size_t pos : positions)
            cells.push_back({pos, rng.nextBernoulli(0.3) ? 1.0 : 0.5});
        const fault::WordFaultModel fm(
            code.n(), cells,
            rng.nextBernoulli(0.5) ? fault::CellTechnology::TrueCell
                                   : fault::CellTechnology::AntiCell);

        const AtRiskAnalyzer analyzer(code, fm);
        const test::ReferenceAtRiskAnalyzer reference(code, fm);
        if (!gf2::RowDependencies(storedValueRows(code, fm.faults()))
                 .dependencies()
                 .empty())
            ++dependent_words;
        infeasible += ((std::size_t{1} << m) - 1) -
                      reference.outcomes().size();

        ASSERT_EQ(analyzer.outcomes().size(), reference.outcomes().size());
        for (std::size_t i = 0; i < analyzer.outcomes().size(); ++i) {
            const ErrorPatternOutcome &got = analyzer.outcomes()[i];
            const ErrorPatternOutcome &want = reference.outcomes()[i];
            EXPECT_EQ(got.failingMask, want.failingMask);
            EXPECT_EQ(got.syndrome, want.syndrome);
            EXPECT_EQ(got.correctedPosition, want.correctedPosition);
            EXPECT_EQ(got.postErrors, want.postErrors);
        }
        EXPECT_EQ(analyzer.directAtRisk(), reference.directAtRisk());
        EXPECT_EQ(analyzer.indirectAtRisk(), reference.indirectAtRisk());
        EXPECT_EQ(analyzer.postCorrectionAtRisk(),
                  reference.postCorrectionAtRisk());

        gf2::BitVector ones(k);
        ones.fill(true);
        for (const gf2::BitVector &data :
             {gf2::BitVector::random(k, rng), ones}) {
            // Same subsets, same product and summation order: the
            // probabilities must agree bit for bit, not just closely.
            EXPECT_EQ(analyzer.perBitErrorProbability(data),
                      reference.perBitErrorProbability(data));
        }
    });
    // The sweep must actually reach dependent rows and infeasible
    // patterns, or it proves nothing about the dependency check.
    EXPECT_GT(dependent_words, 10u);
    EXPECT_GT(infeasible, 100u);
}

} // namespace
} // namespace harp::core
