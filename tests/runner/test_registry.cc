/**
 * @file
 * Unit tests for the experiment registry: the built-in catalogue must
 * expose every ported bench and example experiment, selection by name
 * and label must resolve, and every spec must be well-formed.
 */

#include <gtest/gtest.h>

#include "runner/registry.hh"

namespace harp::runner {
namespace {

TEST(Registry, BuiltinCatalogueIsComplete)
{
    const Registry &registry = builtinRegistry();
    // 15 bench binaries (incl. the BCH t-sweep) + 4 former examples +
    // the engine perf experiment + 2 fleet experiments.
    EXPECT_EQ(registry.size(), 22u);
    EXPECT_EQ(registry.withLabel("bench").size(), 16u);
    EXPECT_EQ(registry.withLabel("example").size(), 4u);
    EXPECT_EQ(registry.withLabel("figure").size(), 7u);
    EXPECT_EQ(registry.withLabel("table").size(), 2u);
    EXPECT_EQ(registry.withLabel("ablation").size(), 2u);
    EXPECT_EQ(registry.withLabel("extension").size(), 6u);
    EXPECT_EQ(registry.withLabel("perf").size(), 1u);
    EXPECT_EQ(registry.withLabel("fleet").size(), 2u);

    const char *expected[] = {
        "ablation_code_length",
        "ablation_data_patterns",
        "bch_t_sweep",
        "beer_reverse_engineering",
        "extension_dec_on_die_ecc",
        "extension_low_probability",
        "extension_secondary_interleaving",
        "fig02_wasted_storage",
        "fig04_postcorrection_probability",
        "fig06_direct_coverage",
        "fig07_bootstrapping",
        "fig08_indirect_coverage",
        "fig09_secondary_ecc",
        "fig10_case_study",
        "fleet_policy_sweep",
        "fleet_population_stats",
        "perf_engine_throughput",
        "quickstart",
        "retention_case_study",
        "secondary_ecc_sizing",
        "table01_repair_survey",
        "table02_amplification",
    };
    for (const char *name : expected)
        EXPECT_NE(registry.find(name), nullptr) << name;
    EXPECT_EQ(registry.find("no_such_experiment"), nullptr);
}

TEST(Registry, SpecsAreWellFormed)
{
    for (const ExperimentSpec *spec : builtinRegistry().all()) {
        EXPECT_FALSE(spec->description.empty()) << spec->name;
        EXPECT_FALSE(spec->labels.empty()) << spec->name;
        EXPECT_FALSE(spec->schema.empty()) << spec->name;
        EXPECT_TRUE(static_cast<bool>(spec->run)) << spec->name;
        EXPECT_GE(spec->grid.numPoints(), 1u) << spec->name;
        // Axis names must not collide with tunable names: both resolve
        // through the same RunContext lookup.
        for (const ParamAxis &axis : spec->grid.axes())
            for (const TunableSpec &tunable : spec->tunables)
                EXPECT_NE(axis.name, tunable.name) << spec->name;
    }
}

TEST(Registry, AllIsSortedByName)
{
    const auto all = builtinRegistry().all();
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(all[i - 1]->name, all[i]->name);
}

TEST(Registry, SelectByNameAndLabel)
{
    const Registry &registry = builtinRegistry();
    const auto by_name =
        registry.select({"quickstart", "fig02_wasted_storage"});
    ASSERT_EQ(by_name.size(), 2u);
    EXPECT_EQ(by_name[0]->name, "quickstart");
    EXPECT_EQ(by_name[1]->name, "fig02_wasted_storage");

    const auto tables = registry.select({"label:table"});
    ASSERT_EQ(tables.size(), 2u);
    EXPECT_EQ(tables[0]->name, "table01_repair_survey");

    // Duplicates collapse.
    const auto dedup =
        registry.select({"quickstart", "label:example", "quickstart"});
    EXPECT_EQ(dedup.size(), 4u);

    EXPECT_THROW(registry.select({"nope"}), std::invalid_argument);
    EXPECT_THROW(registry.select({"label:nope"}), std::invalid_argument);
}

TEST(Registry, RejectsDuplicatesAndMalformedSpecs)
{
    Registry registry;
    ExperimentSpec spec;
    spec.name = "x";
    spec.description = "d";
    spec.schema = {{"v", JsonType::Int, ""}};
    spec.run = [](const RunContext &) { return JsonValue::object(); };
    registry.add(spec);
    EXPECT_THROW(registry.add(spec), std::invalid_argument);

    ExperimentSpec unnamed = spec;
    unnamed.name.clear();
    EXPECT_THROW(registry.add(unnamed), std::invalid_argument);

    ExperimentSpec runless;
    runless.name = "y";
    EXPECT_THROW(registry.add(runless), std::invalid_argument);
}

TEST(SchemaValidation, AcceptsMatchingAndRejectsMismatch)
{
    const std::vector<FieldSpec> schema = {
        {"count", JsonType::Int, ""},
        {"rate", JsonType::Double, ""},
        {"name", JsonType::String, ""},
    };
    JsonValue ok = JsonValue::object();
    ok.set("count", JsonValue(3));
    ok.set("rate", JsonValue(0.5));
    ok.set("name", JsonValue("x"));
    EXPECT_FALSE(validateSchema(schema, ok).has_value());

    // Int satisfies Double; null satisfies anything.
    JsonValue relaxed = ok;
    relaxed.set("rate", JsonValue(2));
    relaxed.set("name", JsonValue());
    EXPECT_FALSE(validateSchema(schema, relaxed).has_value());

    JsonValue missing = JsonValue::object();
    missing.set("count", JsonValue(3));
    EXPECT_TRUE(validateSchema(schema, missing).has_value());

    JsonValue wrong_type = ok;
    wrong_type.set("count", JsonValue("three"));
    EXPECT_TRUE(validateSchema(schema, wrong_type).has_value());

    JsonValue extra = ok;
    extra.set("undeclared", JsonValue(1));
    EXPECT_TRUE(validateSchema(schema, extra).has_value());

    EXPECT_TRUE(validateSchema(schema, JsonValue(5)).has_value());
}

TEST(SchemaValidation, SchemaJsonRoundTrips)
{
    for (const ExperimentSpec *spec : builtinRegistry().all()) {
        const JsonValue schema = schemaToJson(spec->schema);
        EXPECT_EQ(JsonValue::parse(schema.dump()).dump(), schema.dump())
            << spec->name;
        EXPECT_EQ(schema.size(), spec->schema.size()) << spec->name;
    }
}

} // namespace
} // namespace harp::runner
