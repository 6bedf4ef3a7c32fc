/**
 * @file
 * Unit tests for the streaming fleet aggregator: exact counter folds,
 * closed-form FIT rates, histogram quantiles, and the commutative
 * merge the parallel stratum reduction relies on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "fleet/aggregate.hh"

namespace harp::fleet {
namespace {

ChipOutcome
outcomeWithSpares(std::size_t spares, std::size_t uncorrectable = 0,
                  std::size_t silent = 0)
{
    ChipOutcome outcome;
    outcome.faultEvents = 1;
    outcome.atRiskCells = 2;
    outcome.repairSpareBits = spares;
    outcome.uncorrectableEvents = uncorrectable;
    outcome.silentCorruptions = silent;
    return outcome;
}

TEST(FleetAggregator, CountersFoldExactly)
{
    FleetAggregator agg;
    agg.addCleanChip();
    agg.addCleanChip();
    agg.addChip(outcomeWithSpares(3, 2, 0));
    agg.addChip(outcomeWithSpares(5, 0, 1));
    agg.addChip(outcomeWithSpares(0, 0, 0));

    EXPECT_EQ(agg.chips(), 5u);
    EXPECT_EQ(agg.faultyChips(), 3u);
    EXPECT_EQ(agg.faultEvents(), 3u);
    EXPECT_EQ(agg.atRiskCells(), 6u);
    EXPECT_EQ(agg.failedChips(), 2u);
    EXPECT_EQ(agg.uncorrectableEvents(), 2u);
    EXPECT_EQ(agg.silentCorruptions(), 1u);
    EXPECT_EQ(agg.repairSpareBits(), 8u);
}

TEST(FleetAggregator, FailedMeansAnyCorruptRead)
{
    EXPECT_FALSE(outcomeWithSpares(9, 0, 0).failed());
    EXPECT_TRUE(outcomeWithSpares(0, 1, 0).failed());
    EXPECT_TRUE(outcomeWithSpares(0, 0, 1).failed());
}

TEST(FleetAggregator, FitRateClosedForm)
{
    FleetAggregator agg;
    for (int i = 0; i < 997; ++i)
        agg.addCleanChip();
    for (int i = 0; i < 3; ++i)
        agg.addChip(outcomeWithSpares(0, 1, 0));
    // 3 failures over 1000 chips x 1e6 h = 1e9 device-hours -> 3 FIT.
    EXPECT_DOUBLE_EQ(agg.fitRate(1e6), 3.0);
    EXPECT_DOUBLE_EQ(agg.fitRateCi95(1e6), 1.96 * std::sqrt(3.0));

    FleetAggregator empty;
    EXPECT_DOUBLE_EQ(empty.fitRate(1e6), 0.0);
    EXPECT_DOUBLE_EQ(empty.fitRateCi95(1e6), 0.0);
}

TEST(FleetAggregator, QuantilesOverFaultyChips)
{
    FleetAggregator agg;
    // Spare consumption 0..99, one faulty chip each; clean chips must
    // not drag the percentiles toward zero.
    for (std::size_t i = 0; i < 1000; ++i)
        agg.addCleanChip();
    for (std::size_t spares = 0; spares < 100; ++spares)
        agg.addChip(outcomeWithSpares(spares));
    EXPECT_EQ(agg.repairBitsQuantile(0.50), 49u);
    EXPECT_EQ(agg.repairBitsQuantile(0.99), 98u);
    EXPECT_EQ(agg.repairBitsQuantile(0.999), 99u);

    // Per-chip failure events fill the uncorrectable histogram the
    // same way (uncorrectable + silent are summed per chip).
    FleetAggregator events;
    for (std::size_t e = 0; e < 10; ++e)
        events.addChip(outcomeWithSpares(0, e, e));
    EXPECT_EQ(events.uncorrectableHistogram().quantileBin(0.50), 8u);
}

TEST(FleetAggregator, EmptyAndAllCleanQuantilesAreZero)
{
    FleetAggregator empty;
    EXPECT_EQ(empty.repairBitsQuantile(0.999), 0u);
    EXPECT_EQ(empty.uncorrectableHistogram().total(), 0u);

    FleetAggregator clean;
    for (int i = 0; i < 50; ++i)
        clean.addCleanChip();
    EXPECT_EQ(clean.repairBitsQuantile(0.999), 0u);
    EXPECT_EQ(clean.faultyChips(), 0u);
}

TEST(FleetAggregator, OversizedSpareCountsClampIntoLastBin)
{
    FleetAggregator agg(/*repair_bins=*/8, /*event_bins=*/8);
    agg.addChip(outcomeWithSpares(1000000));
    EXPECT_EQ(agg.repairBitsQuantile(0.5), 7u);
    EXPECT_EQ(agg.repairSpareBits(), 1000000u);
}

TEST(FleetAggregator, MergeMatchesSequentialFoldAndCommutes)
{
    std::vector<ChipOutcome> outcomes;
    for (std::size_t i = 0; i < 40; ++i)
        outcomes.push_back(
            outcomeWithSpares(i % 7, i % 3 == 0 ? 1 : 0, i % 5 == 0));

    FleetAggregator sequential;
    for (const ChipOutcome &outcome : outcomes)
        sequential.addChip(outcome);
    sequential.addCleanChip();

    FleetAggregator left, right;
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        (i < 17 ? left : right).addChip(outcomes[i]);
    right.addCleanChip();

    FleetAggregator lr = left;
    lr.merge(right);
    EXPECT_TRUE(lr == sequential);

    FleetAggregator rl = right;
    rl.merge(left);
    EXPECT_TRUE(rl == sequential);
    EXPECT_FALSE(rl != lr);

    // And the equality operator actually discriminates.
    FleetAggregator different = sequential;
    different.addChip(outcomeWithSpares(1));
    EXPECT_TRUE(different != sequential);
}

} // namespace
} // namespace harp::fleet
