/**
 * @file
 * Unit and property tests for the data-dependent fault model: Bernoulli,
 * isolated, data-dependent errors (HARP section 2.4).
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "fault/fault_model.hh"

namespace harp::fault {
namespace {

TEST(CellTechnology, ChargePolarity)
{
    EXPECT_TRUE(isCharged(CellTechnology::TrueCell, true));
    EXPECT_FALSE(isCharged(CellTechnology::TrueCell, false));
    EXPECT_TRUE(isCharged(CellTechnology::AntiCell, false));
    EXPECT_FALSE(isCharged(CellTechnology::AntiCell, true));
}

TEST(FaultModel, ConstructionValidation)
{
    EXPECT_THROW(WordFaultModel(8, {{8, 0.5}}), std::invalid_argument);
    EXPECT_THROW(WordFaultModel(8, {{1, 0.5}, {1, 0.5}}),
                 std::invalid_argument);
    EXPECT_THROW(WordFaultModel(8, {{1, -0.1}}), std::invalid_argument);
    EXPECT_THROW(WordFaultModel(8, {{1, 1.5}}), std::invalid_argument);
    EXPECT_NO_THROW(WordFaultModel(8, {{7, 1.0}, {0, 0.0}}));
}

TEST(FaultModel, PositionsSorted)
{
    const WordFaultModel fm(16, {{9, 0.5}, {2, 0.5}, {13, 0.5}});
    std::vector<std::size_t> positions;
    for (const CellFault &f : fm.faults())
        positions.push_back(f.position);
    EXPECT_EQ(positions, (std::vector<std::size_t>{2, 9, 13}));
    EXPECT_EQ(fm.numFaults(), 3u);
}

TEST(FaultModel, TrueCellNeverFailsWhenDischarged)
{
    // A true-cell storing '0' holds no charge and cannot leak.
    const WordFaultModel fm(8, {{3, 1.0}});
    common::Xoshiro256 rng(1);
    gf2::BitVector stored(8); // all zero: discharged
    for (int trial = 0; trial < 50; ++trial)
        EXPECT_TRUE(fm.injectErrors(stored, rng).isZero());
}

TEST(FaultModel, TrueCellAlwaysFailsAtProbabilityOneWhenCharged)
{
    const WordFaultModel fm(8, {{3, 1.0}});
    common::Xoshiro256 rng(2);
    gf2::BitVector stored(8);
    stored.set(3, true);
    for (int trial = 0; trial < 50; ++trial) {
        const gf2::BitVector mask = fm.injectErrors(stored, rng);
        EXPECT_EQ(mask.popcount(), 1u);
        EXPECT_TRUE(mask.get(3));
    }
}

TEST(FaultModel, AntiCellPolarityReversed)
{
    const WordFaultModel fm(8, {{3, 1.0}}, CellTechnology::AntiCell);
    common::Xoshiro256 rng(3);
    gf2::BitVector stored(8); // all zero: anti-cells are charged
    EXPECT_TRUE(fm.injectErrors(stored, rng).get(3));
    stored.set(3, true); // discharged for an anti-cell
    EXPECT_TRUE(fm.injectErrors(stored, rng).isZero());
}

TEST(FaultModel, NonAtRiskCellsNeverFail)
{
    const WordFaultModel fm(32, {{5, 1.0}, {20, 1.0}});
    common::Xoshiro256 rng(4);
    gf2::BitVector stored(32);
    stored.fill(true);
    for (int trial = 0; trial < 20; ++trial) {
        const gf2::BitVector mask = fm.injectErrors(stored, rng);
        EXPECT_EQ(mask.setBits(), (std::vector<std::size_t>{5, 20}));
    }
}

TEST(FaultModel, BernoulliFrequencyMatchesProbability)
{
    const WordFaultModel fm(8, {{0, 0.25}});
    common::Xoshiro256 rng(5);
    gf2::BitVector stored(8);
    stored.set(0, true);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += fm.injectErrors(stored, rng).get(0) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.015);
}

TEST(FaultModel, CrnInjectionIsDeterministic)
{
    const WordFaultModel fm(16, {{1, 0.5}, {8, 0.5}, {14, 0.5}});
    gf2::BitVector stored(16);
    stored.fill(true);
    const std::vector<double> uniforms = {0.4, 0.6, 0.1};
    gf2::BitVector a(16);
    gf2::BitVector b(16);
    fm.injectErrorsCrn(stored, uniforms, a);
    fm.injectErrorsCrn(stored, uniforms, b);
    EXPECT_EQ(a, b);
    // u < p fails: cells at sorted positions 1 (u=0.4) and 14 (u=0.1).
    EXPECT_TRUE(a.get(1));
    EXPECT_FALSE(a.get(8));
    EXPECT_TRUE(a.get(14));
}

TEST(FaultModel, CrnRespectsCharge)
{
    const WordFaultModel fm(16, {{1, 0.5}, {8, 0.5}});
    gf2::BitVector stored(16);
    stored.set(1, true); // 8 stays discharged
    const std::vector<double> uniforms = {0.0, 0.0};
    gf2::BitVector mask(16);
    fm.injectErrorsCrn(stored, uniforms, mask);
    EXPECT_TRUE(mask.get(1));
    EXPECT_FALSE(mask.get(8));
}

/** The strike XORs into its target: failing cells toggle whatever the
 *  target already holds there, every other position is left alone. */
TEST(FaultModel, CrnXorsIntoTarget)
{
    const WordFaultModel fm(16, {{1, 0.5}, {8, 0.5}, {14, 0.5}});
    gf2::BitVector stored(16);
    stored.fill(true);
    const std::vector<double> uniforms = {0.4, 0.6, 0.1}; // 1 and 14 fail
    gf2::BitVector target = gf2::BitVector::fromIndices(16, {1, 5, 8});
    fm.injectErrorsCrn(stored, uniforms, target);
    EXPECT_EQ(target, gf2::BitVector::fromIndices(16, {5, 8, 14}));
}

TEST(FaultModel, FixedCountGeneratorProperties)
{
    common::Xoshiro256 rng(6);
    for (int trial = 0; trial < 50; ++trial) {
        const WordFaultModel fm =
            WordFaultModel::makeUniformFixedCount(71, 5, 0.5, rng);
        EXPECT_EQ(fm.numFaults(), 5u);
        std::set<std::size_t> positions;
        for (const CellFault &f : fm.faults()) {
            EXPECT_LT(f.position, 71u);
            EXPECT_DOUBLE_EQ(f.probability, 0.5);
            positions.insert(f.position);
        }
        EXPECT_EQ(positions.size(), 5u) << "positions must be distinct";
    }
}

TEST(FaultModel, FixedCountCoversWholeWord)
{
    // Across many draws every position should eventually be chosen,
    // i.e.\ the sample is not biased to a sub-range.
    common::Xoshiro256 rng(7);
    std::set<std::size_t> seen;
    for (int trial = 0; trial < 400; ++trial) {
        const WordFaultModel fm =
            WordFaultModel::makeUniformFixedCount(71, 3, 0.5, rng);
        for (const CellFault &f : fm.faults())
            seen.insert(f.position);
    }
    EXPECT_EQ(seen.size(), 71u);
}

TEST(FaultModel, FixedCountRejectsMoreCellsThanTheWordHas)
{
    common::Xoshiro256 rng(10);
    EXPECT_THROW(WordFaultModel::makeUniformFixedCount(71, 72, 0.5, rng),
                 std::invalid_argument);
    EXPECT_THROW(WordFaultModel::makeUniformFixedCount(71, 100, 0.5, rng),
                 std::invalid_argument);
    // Every cell at risk is the largest valid count.
    EXPECT_EQ(WordFaultModel::makeUniformFixedCount(71, 71, 0.5, rng)
                  .numFaults(),
              71u);
}

TEST(FaultModel, RberGeneratorDensity)
{
    common::Xoshiro256 rng(8);
    std::size_t total = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
        total += WordFaultModel::makeUniformRber(71, 0.05, 0.5, rng)
                     .numFaults();
    }
    const double mean = static_cast<double>(total) / trials;
    EXPECT_NEAR(mean, 71.0 * 0.05, 0.35);
}

TEST(FaultModel, RberZeroAndOne)
{
    common::Xoshiro256 rng(9);
    EXPECT_EQ(WordFaultModel::makeUniformRber(71, 0.0, 0.5, rng)
                  .numFaults(),
              0u);
    EXPECT_EQ(WordFaultModel::makeUniformRber(71, 1.0, 0.5, rng)
                  .numFaults(),
              71u);
}

} // namespace
} // namespace harp::fault
