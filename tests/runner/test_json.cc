/**
 * @file
 * Unit tests for the runner's JSON document model: construction, typed
 * access, ordered-object semantics, serialization stability and
 * parse/dump round trips.
 */

#include <gtest/gtest.h>

#include "runner/json.hh"

namespace harp::runner {
namespace {

TEST(Json, TypesAndAccessors)
{
    EXPECT_TRUE(JsonValue().isNull());
    EXPECT_EQ(JsonValue(true).asBool(), true);
    EXPECT_EQ(JsonValue(std::int64_t{-7}).asInt(), -7);
    EXPECT_DOUBLE_EQ(JsonValue(1.5).asDouble(), 1.5);
    EXPECT_EQ(JsonValue("hi").asString(), "hi");
    // Int satisfies asDouble (metric fields holding integral values).
    EXPECT_DOUBLE_EQ(JsonValue(std::int64_t{3}).asDouble(), 3.0);
    EXPECT_THROW(JsonValue(1.5).asInt(), std::logic_error);
    EXPECT_THROW(JsonValue("x").asBool(), std::logic_error);
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    JsonValue obj = JsonValue::object();
    obj.set("zebra", JsonValue(1));
    obj.set("alpha", JsonValue(2));
    obj.set("mid", JsonValue(3));
    EXPECT_EQ(obj.dump(), R"({"zebra":1,"alpha":2,"mid":3})");
    // Replacement keeps the original position.
    obj.set("alpha", JsonValue(9));
    EXPECT_EQ(obj.dump(), R"({"zebra":1,"alpha":9,"mid":3})");
    ASSERT_NE(obj.find("mid"), nullptr);
    EXPECT_EQ(obj.find("mid")->asInt(), 3);
    EXPECT_EQ(obj.find("absent"), nullptr);
}

TEST(Json, DumpEscapesStrings)
{
    JsonValue obj = JsonValue::object();
    obj.set("s", JsonValue("a\"b\\c\nd\te"));
    EXPECT_EQ(obj.dump(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, NumberFormattingIsShortestRoundTrip)
{
    EXPECT_EQ(JsonValue(0.5).dump(), "0.5");
    EXPECT_EQ(JsonValue(1e-07).dump(), "1e-07");
    EXPECT_EQ(JsonValue(std::int64_t{128}).dump(), "128");
    // Non-finite doubles cannot be represented in JSON.
    EXPECT_EQ(jsonNumberToString(
                  std::numeric_limits<double>::infinity()),
              "null");
}

TEST(Json, ParseDumpRoundTrip)
{
    const std::string text =
        R"({"a":1,"b":[true,false,null],"c":{"x":0.25,"y":"s"},"d":-3})";
    const JsonValue parsed = JsonValue::parse(text);
    EXPECT_EQ(parsed.dump(), text);
    // Round trip again through the parsed form.
    EXPECT_EQ(JsonValue::parse(parsed.dump()).dump(), parsed.dump());
}

TEST(Json, ParseDistinguishesIntFromDouble)
{
    const JsonValue v = JsonValue::parse(R"([1,1.0,1e2])");
    EXPECT_EQ(v.at(0).type(), JsonType::Int);
    EXPECT_EQ(v.at(1).type(), JsonType::Double);
    EXPECT_EQ(v.at(2).type(), JsonType::Double);
}

TEST(Json, ParseRejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("tru"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{} extra"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
}

TEST(Json, PrettyPrintNests)
{
    JsonValue obj = JsonValue::object();
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue(1));
    obj.set("a", std::move(arr));
    EXPECT_EQ(obj.dump(2), "{\n  \"a\": [\n    1\n  ]\n}");
    // Pretty and compact forms parse to the same document.
    EXPECT_EQ(JsonValue::parse(obj.dump(2)).dump(), obj.dump());
}

TEST(Json, ParseUnicodeEscape)
{
    // U+00E9 decodes to its two-byte UTF-8 form.
    const JsonValue v = JsonValue::parse("\"aA\\u00e9A\"");
    EXPECT_EQ(v.asString(), "aA\xC3\xA9"
                            "A");
}

} // namespace
} // namespace harp::runner
