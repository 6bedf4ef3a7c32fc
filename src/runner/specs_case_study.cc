/**
 * @file
 * Experiment spec for the DRAM data-retention case study (Fig. 10,
 * section 7.4): BER before/after reactive profiling vs. active rounds.
 */

#include "core/case_study_experiment.hh"
#include "runner/registry.hh"
#include "runner/sweeps.hh"

namespace harp::runner {

namespace {

using namespace harp;

ExperimentSpec
makeFig10()
{
    ExperimentSpec spec;
    spec.name = "fig10_case_study";
    spec.description =
        "Data-retention BER before/after reactive profiling vs. rounds";
    spec.labels = {"bench", "figure"};
    spec.grid = ParamGrid({probabilityAxis()});
    spec.tunables = {
        {"k", 64, "dataword length of the on-die ECC code"},
        {"samples", 24, "Monte-Carlo samples per conditioned cell count"},
        {"max_cells", 5, "largest conditioned at-risk-cell count"},
        {"rounds", 128, "active-profiling rounds"},
    };
    spec.schema = {
        {"checkpoints", JsonType::Array, "log-spaced round numbers"},
        {"series", JsonType::Array,
         "per (profiler, RBER): BER curves before/after reactive "
         "profiling at the checkpoints"},
        {"rounds_to_zero_after", JsonType::Object,
         "per profiler: first round with zero post-reactive BER "
         "(rounds+1 = never)"},
        {"slowdown_vs_harp_u", JsonType::Object,
         "per profiler: rounds-to-zero ratio vs. HARP-U (null when "
         "either never reaches zero)"},
    };
    spec.run = [](const RunContext &ctx) {
        core::CaseStudyConfig config;
        config.k = ctx.getCount("k");
        config.samplesPerCellCount = ctx.getCount("samples");
        config.maxConditionedCells = ctx.getCount("max_cells");
        config.rounds = ctx.getCount("rounds");
        config.perBitProbability = ctx.getDouble("prob");
        config.seed = ctx.seed();
        config.threads = ctx.threads();

        const core::CaseStudyResult result =
            core::runCaseStudyExperiment(config);
        const auto checkpoints = roundCheckpoints(config.rounds);

        JsonValue series = JsonValue::array();
        for (const core::CaseStudySeries &s : result.series) {
            JsonValue obj = JsonValue::object();
            obj.set("profiler", JsonValue(s.profiler));
            obj.set("rber", JsonValue(s.rber));
            JsonValue before = JsonValue::array();
            JsonValue after = JsonValue::array();
            for (const std::size_t cp : checkpoints) {
                before.push(JsonValue(s.berBefore[cp - 1]));
                after.push(JsonValue(s.berAfter[cp - 1]));
            }
            obj.set("ber_before", std::move(before));
            obj.set("ber_after", std::move(after));
            series.push(std::move(obj));
        }

        // HARP-U is index 2 (Naive, BEEP, HARP-U, HARP-A).
        const std::size_t harp_u_rounds = result.roundsToZeroAfter[2];
        JsonValue rounds_to_zero = JsonValue::object();
        JsonValue slowdown = JsonValue::object();
        for (std::size_t p = 0; p < result.profilerNames.size(); ++p) {
            const std::size_t rounds = result.roundsToZeroAfter[p];
            rounds_to_zero.set(result.profilerNames[p], JsonValue(rounds));
            JsonValue ratio; // null when either never reaches zero
            if (rounds <= config.rounds && harp_u_rounds <= config.rounds)
                ratio = JsonValue(static_cast<double>(rounds) /
                                  static_cast<double>(harp_u_rounds));
            slowdown.set(result.profilerNames[p], std::move(ratio));
        }

        JsonValue metrics = JsonValue::object();
        metrics.set("checkpoints", checkpointsJson(checkpoints));
        metrics.set("series", std::move(series));
        metrics.set("rounds_to_zero_after", std::move(rounds_to_zero));
        metrics.set("slowdown_vs_harp_u", std::move(slowdown));
        return metrics;
    };
    return spec;
}

} // namespace

void
registerCaseStudySpecs(Registry &registry)
{
    registry.add(makeFig10());
}

} // namespace harp::runner
