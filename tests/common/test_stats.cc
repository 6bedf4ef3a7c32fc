/**
 * @file
 * Unit tests for the statistics accumulators.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hh"

namespace harp::common {
namespace {

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStat, KnownMoments)
{
    RunningStat s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Percentile, ExactQuantiles)
{
    PercentileTracker t;
    for (int i = 1; i <= 100; ++i)
        t.add(static_cast<double>(i));
    EXPECT_EQ(t.count(), 100u);
    EXPECT_DOUBLE_EQ(t.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(t.quantile(1.0), 100.0);
    EXPECT_NEAR(t.median(), 50.5, 1e-12);
    EXPECT_NEAR(t.quantile(0.99), 99.01, 1e-9);
    EXPECT_NEAR(t.mean(), 50.5, 1e-12);
}

TEST(Percentile, SingleSample)
{
    PercentileTracker t;
    t.add(42.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(t.quantile(1.0), 42.0);
}

TEST(Percentile, UnsortedInsertions)
{
    PercentileTracker t;
    for (const double x : {5.0, 1.0, 4.0, 2.0, 3.0})
        t.add(x);
    EXPECT_DOUBLE_EQ(t.median(), 3.0);
    // Interleave a query with more insertions: must re-sort.
    t.add(0.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.0), 0.0);
}

TEST(Percentile, Merge)
{
    PercentileTracker a, b;
    a.add(1.0);
    a.add(2.0);
    b.add(3.0);
    b.add(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.quantile(1.0), 4.0);
}

TEST(Percentile, EmptyReturnsZero)
{
    PercentileTracker t;
    EXPECT_DOUBLE_EQ(t.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

TEST(Histogram, AddAndClamp)
{
    Histogram h(4);
    h.add(0);
    h.add(1);
    h.add(3);
    h.add(7);   // clamps to last bin
    h.add(-2);  // clamps to first bin
    EXPECT_EQ(h.bin(0), 2u);
    EXPECT_EQ(h.bin(1), 1u);
    EXPECT_EQ(h.bin(2), 0u);
    EXPECT_EQ(h.bin(3), 2u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, Fractions)
{
    Histogram h(2);
    h.add(0, 3);
    h.add(1, 1);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
}

TEST(Histogram, QuantileBin)
{
    Histogram h(5);
    h.add(0, 50);
    h.add(1, 30);
    h.add(2, 19);
    h.add(4, 1);
    EXPECT_EQ(h.quantileBin(0.5), 0u);
    EXPECT_EQ(h.quantileBin(0.8), 1u);
    EXPECT_EQ(h.quantileBin(0.99), 2u);
    EXPECT_EQ(h.quantileBin(1.0), 4u);
}

TEST(Histogram, MergeAndEmpty)
{
    Histogram a(3), b(3);
    a.add(0);
    b.add(2, 5);
    a.merge(b);
    EXPECT_EQ(a.bin(2), 5u);
    EXPECT_EQ(a.total(), 6u);

    Histogram empty(3);
    EXPECT_DOUBLE_EQ(empty.fraction(0), 0.0);
    EXPECT_EQ(empty.quantileBin(0.5), 2u);
}

} // namespace
} // namespace harp::common
