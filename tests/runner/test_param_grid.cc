/**
 * @file
 * Unit tests for parameter values, points and grid expansion: the
 * row-major point order is part of the campaign output contract, so it
 * is pinned here.
 */

#include <gtest/gtest.h>

#include "runner/param.hh"

namespace harp::runner {
namespace {

TEST(ParamValue, TypedAccessAndRendering)
{
    EXPECT_EQ(ParamValue(std::int64_t{5}).asInt(), 5);
    EXPECT_DOUBLE_EQ(ParamValue(0.25).asDouble(), 0.25);
    EXPECT_DOUBLE_EQ(ParamValue(std::int64_t{4}).asDouble(), 4.0);
    EXPECT_EQ(ParamValue("random").asString(), "random");
    EXPECT_EQ(ParamValue(true).toString(), "true");
    EXPECT_THROW(ParamValue("x").asInt(), std::logic_error);

    EXPECT_EQ(ParamValue(std::int64_t{128}).toString(), "128");
    EXPECT_EQ(ParamValue(0.5).toString(), "0.5");
    EXPECT_EQ(ParamValue("charged").toString(), "charged");
}

TEST(ParamValue, ParseSameType)
{
    EXPECT_EQ(ParamValue(std::int64_t{1}).parseSameType("42").asInt(), 42);
    EXPECT_DOUBLE_EQ(ParamValue(1.0).parseSameType("0.75").asDouble(),
                     0.75);
    EXPECT_EQ(ParamValue("a").parseSameType("b").asString(), "b");
    EXPECT_EQ(ParamValue(false).parseSameType("true").toString(), "true");
    EXPECT_THROW(ParamValue(std::int64_t{1}).parseSameType("abc"),
                 std::invalid_argument);
    EXPECT_THROW(ParamValue(1.0).parseSameType("wat"),
                 std::invalid_argument);
}

ParamGrid
sampleGrid()
{
    return ParamGrid({
        {"prob", {ParamValue(0.25), ParamValue(0.5)}},
        {"pre_errors",
         {ParamValue(std::int64_t{2}), ParamValue(std::int64_t{3}),
          ParamValue(std::int64_t{4})}},
    });
}

TEST(ParamGrid, ExpandsRowMajorFirstAxisSlowest)
{
    const ParamGrid grid = sampleGrid();
    EXPECT_EQ(grid.numPoints(), 6u);
    const std::vector<ParamPoint> points = grid.expand();
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].toString(), "prob=0.25 pre_errors=2");
    EXPECT_EQ(points[1].toString(), "prob=0.25 pre_errors=3");
    EXPECT_EQ(points[2].toString(), "prob=0.25 pre_errors=4");
    EXPECT_EQ(points[3].toString(), "prob=0.5 pre_errors=2");
    EXPECT_EQ(points[5].toString(), "prob=0.5 pre_errors=4");
}

TEST(ParamGrid, EmptyGridExpandsToOneEmptyPoint)
{
    const ParamGrid grid;
    EXPECT_EQ(grid.numPoints(), 1u);
    const std::vector<ParamPoint> points = grid.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_TRUE(points[0].entries().empty());
    EXPECT_EQ(points[0].toJson().dump(), "{}");
}

TEST(ParamGrid, CollapseAxisFromText)
{
    const ParamGrid collapsed = sampleGrid().collapsed("prob", "0.75");
    EXPECT_EQ(collapsed.numPoints(), 3u);
    const std::vector<ParamPoint> points = collapsed.expand();
    for (const ParamPoint &p : points)
        EXPECT_DOUBLE_EQ(p.find("prob")->asDouble(), 0.75);
    // The collapsed value parses with the axis's type, not as a string.
    EXPECT_EQ(points[0].find("prob")->type(), ParamValue::Type::Double);

    EXPECT_THROW(sampleGrid().collapsed("nope", "1"),
                 std::invalid_argument);
    EXPECT_THROW(sampleGrid().collapsed("pre_errors", "many"),
                 std::invalid_argument);
}

TEST(ParamPoint, LookupAndJson)
{
    ParamPoint point;
    point.add("prob", ParamValue(0.5));
    point.add("pattern", ParamValue("random"));
    ASSERT_NE(point.find("prob"), nullptr);
    EXPECT_EQ(point.find("missing"), nullptr);
    EXPECT_EQ(point.toJson().dump(),
              R"({"prob":0.5,"pattern":"random"})");
}

} // namespace
} // namespace harp::runner
