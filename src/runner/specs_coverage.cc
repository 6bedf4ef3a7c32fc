/**
 * @file
 * Experiment specs built on the Monte-Carlo coverage experiment: Fig. 6
 * (direct coverage), Fig. 7 (bootstrapping), Fig. 8 (missed indirect
 * errors), Fig. 9 (secondary-ECC sizing) and the code-length and
 * data-pattern ablations.
 */

#include <algorithm>

#include "core/coverage_experiment.hh"
#include "ecc/hamming_code.hh"
#include "runner/registry.hh"
#include "runner/sweeps.hh"

namespace harp::runner {

namespace {

using namespace harp;

/** Coverage config from the standard tunables plus the per-bit
 *  probability and at-risk cell count, each an axis or a tunable. */
core::CoverageConfig
coverageConfigFromPoint(const RunContext &ctx)
{
    core::CoverageConfig config = coverageConfigFromContext(ctx);
    config.perBitProbability = ctx.getDouble("prob");
    config.numPreCorrectionErrors = ctx.getCount("pre_errors");
    return config;
}

/** Coverage values at the log-spaced checkpoints, as a JSON array. */
JsonValue
curveAtCheckpoints(const std::vector<std::size_t> &checkpoints,
                   const std::function<double(std::size_t)> &value)
{
    JsonValue arr = JsonValue::array();
    for (const std::size_t cp : checkpoints)
        arr.push(JsonValue(value(cp - 1)));
    return arr;
}

/** 1-based round at which the profiler reaches full aggregate direct
 *  coverage; rounds+1 when it never does. */
std::size_t
fullCoverageRound(const core::CoverageResult &result, std::size_t profiler)
{
    for (std::size_t r = 0; r < result.config.rounds; ++r)
        if (result.profilers[profiler].directIdentifiedSum[r] ==
            result.totalDirectAtRisk)
            return r + 1;
    return result.config.rounds + 1;
}

ExperimentSpec
makeFig06()
{
    ExperimentSpec spec;
    spec.name = "fig06_direct_coverage";
    spec.description =
        "Direct-error coverage vs. profiling rounds per profiler";
    spec.labels = {"bench", "figure"};
    spec.grid = ParamGrid({probabilityAxis(), preErrorAxis()});
    spec.tunables = coverageTunables();
    spec.schema = {
        {"checkpoints", JsonType::Array, "log-spaced round numbers"},
        {"profilers", JsonType::Array,
         "per profiler: name, coverage curve, full-coverage round, false "
         "positives"},
        {"total_direct_at_risk", JsonType::Int,
         "ground-truth direct-at-risk bits over all words"},
        {"num_words", JsonType::Int, "simulated ECC words"},
        {"harp_vs_best_baseline", JsonType::Double,
         "HARP-U full-coverage round / best baseline's (null when either "
         "never reaches full coverage)"},
    };
    spec.run = [](const RunContext &ctx) {
        const core::CoverageConfig config = coverageConfigFromPoint(ctx);
        const core::CoverageResult result =
            core::runCoverageExperiment(config);
        const auto checkpoints = roundCheckpoints(config.rounds);

        JsonValue profilers = JsonValue::array();
        std::vector<std::size_t> full_round;
        for (std::size_t p = 0; p < result.profilers.size(); ++p) {
            full_round.push_back(fullCoverageRound(result, p));
            JsonValue obj = JsonValue::object();
            obj.set("name", JsonValue(result.profilers[p].name));
            obj.set("coverage",
                    curveAtCheckpoints(checkpoints, [&](std::size_t r) {
                        return result.directCoverage(p, r);
                    }));
            obj.set("full_coverage_round", JsonValue(full_round.back()));
            obj.set("false_positives_mean",
                    JsonValue(static_cast<double>(
                                  result.profilers[p].falsePositiveSum
                                      [config.rounds - 1]) /
                              static_cast<double>(result.numWords)));
            profilers.push(std::move(obj));
        }

        // Profiler order is Naive, BEEP, HARP-U, HARP-A (coverage
        // experiment contract, asserted by its tests).
        const std::size_t harp = full_round[2];
        const std::size_t best_baseline =
            std::min(full_round[0], full_round[1]);
        JsonValue ratio; // null when either side never converged
        if (harp <= config.rounds && best_baseline <= config.rounds)
            ratio = JsonValue(static_cast<double>(harp) /
                              static_cast<double>(best_baseline));

        JsonValue metrics = JsonValue::object();
        metrics.set("checkpoints", checkpointsJson(checkpoints));
        metrics.set("profilers", std::move(profilers));
        metrics.set("total_direct_at_risk",
                    JsonValue(result.totalDirectAtRisk));
        metrics.set("num_words", JsonValue(result.numWords));
        metrics.set("harp_vs_best_baseline", std::move(ratio));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeFig07()
{
    ExperimentSpec spec;
    spec.name = "fig07_bootstrapping";
    spec.description =
        "Rounds until the first direct error is identified per profiler";
    spec.labels = {"bench", "figure"};
    spec.grid = ParamGrid({probabilityAxis(), preErrorAxis()});
    spec.tunables = coverageTunables();
    spec.schema = {
        {"profilers", JsonType::Array,
         "per profiler: bootstrap-round quantiles and the count of words "
         "that never bootstrapped"},
    };
    spec.run = [](const RunContext &ctx) {
        const core::CoverageConfig config = coverageConfigFromPoint(ctx);
        const core::CoverageResult result =
            core::runCoverageExperiment(config);

        JsonValue profilers = JsonValue::array();
        for (const core::ProfilerAggregate &agg : result.profilers) {
            const auto &boot = agg.bootstrapRounds;
            // Words reported at rounds+1 never identified a direct error.
            const auto samples = boot.sortedSamples();
            const std::size_t never = static_cast<std::size_t>(
                samples.end() -
                std::upper_bound(samples.begin(), samples.end(),
                                 static_cast<double>(config.rounds)));
            JsonValue obj = JsonValue::object();
            obj.set("name", JsonValue(agg.name));
            obj.set("p25", JsonValue(boot.quantile(0.25)));
            obj.set("median", JsonValue(boot.median()));
            obj.set("p75", JsonValue(boot.quantile(0.75)));
            obj.set("p99", JsonValue(boot.quantile(0.99)));
            obj.set("max", JsonValue(boot.quantile(1.0)));
            obj.set("never_bootstrapped", JsonValue(never));
            profilers.push(std::move(obj));
        }
        JsonValue metrics = JsonValue::object();
        metrics.set("profilers", std::move(profilers));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeFig08()
{
    ExperimentSpec spec;
    spec.name = "fig08_indirect_coverage";
    spec.description =
        "Missed indirect errors per ECC word vs. profiling rounds";
    spec.labels = {"bench", "figure"};
    spec.grid = ParamGrid({probabilityAxis(), preErrorAxis()});
    spec.tunables = coverageTunables();
    spec.schema = {
        {"checkpoints", JsonType::Array, "log-spaced round numbers"},
        {"profilers", JsonType::Array,
         "per profiler (incl. HARP-A+BEEP): missed-indirect curve"},
    };
    spec.run = [](const RunContext &ctx) {
        core::CoverageConfig config = coverageConfigFromPoint(ctx);
        config.includeHarpABeep = true;
        const core::CoverageResult result =
            core::runCoverageExperiment(config);
        const auto checkpoints = roundCheckpoints(config.rounds);

        JsonValue profilers = JsonValue::array();
        for (std::size_t p = 0; p < result.profilers.size(); ++p) {
            JsonValue obj = JsonValue::object();
            obj.set("name", JsonValue(result.profilers[p].name));
            obj.set("missed_indirect_per_word",
                    curveAtCheckpoints(checkpoints, [&](std::size_t r) {
                        return result.missedIndirectPerWord(p, r);
                    }));
            profilers.push(std::move(obj));
        }
        JsonValue metrics = JsonValue::object();
        metrics.set("checkpoints", checkpointsJson(checkpoints));
        metrics.set("profilers", std::move(profilers));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeFig09()
{
    ExperimentSpec spec;
    spec.name = "fig09_secondary_ecc";
    spec.description =
        "Secondary-ECC correction capability: max-simultaneous-error "
        "histogram and rounds to bound";
    spec.labels = {"bench", "figure"};
    spec.grid = ParamGrid({probabilityAxis(), preErrorAxis()});
    spec.tunables = coverageTunables();
    spec.schema = {
        {"profilers", JsonType::Array,
         "per profiler: final max-simultaneous-error fractions and "
         "99th-percentile rounds to bound <= 1/2/3"},
    };
    spec.run = [](const RunContext &ctx) {
        const core::CoverageConfig config = coverageConfigFromPoint(ctx);
        const core::CoverageResult result =
            core::runCoverageExperiment(config);

        JsonValue profilers = JsonValue::array();
        for (const core::ProfilerAggregate &agg : result.profilers) {
            const auto &hist = agg.maxSimultaneousFinal;
            double frac4plus = 0.0;
            for (std::size_t b = 4; b < hist.numBins(); ++b)
                frac4plus += hist.fraction(b);
            JsonValue obj = JsonValue::object();
            obj.set("name", JsonValue(agg.name));
            JsonValue fracs = JsonValue::array();
            for (std::size_t b = 0; b < 4; ++b)
                fracs.push(JsonValue(hist.fraction(b)));
            fracs.push(JsonValue(frac4plus));
            obj.set("final_max_simultaneous_fractions", std::move(fracs));
            JsonValue bounds = JsonValue::array();
            for (std::size_t x = 1; x <= 3; ++x) {
                const double v = agg.roundsToBound[x - 1].quantile(0.99);
                // rounds+1 means the bound was never reached in budget.
                bounds.push(JsonValue(v));
            }
            obj.set("rounds_to_bound_p99", std::move(bounds));
            profilers.push(std::move(obj));
        }
        JsonValue metrics = JsonValue::object();
        metrics.set("profilers", std::move(profilers));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeAblationCodeLength()
{
    ExperimentSpec spec;
    spec.name = "ablation_code_length";
    spec.description =
        "Direct coverage at (71,64) vs. (136,128) on-die code lengths";
    spec.labels = {"bench", "ablation"};
    ParamAxis k{"k", {std::size_t{64}, std::size_t{128}}};
    spec.grid = ParamGrid({k, preErrorAxis()});
    spec.tunables = {
        {"codes", 8, "randomly generated codes per point"},
        {"words", 24, "simulated ECC words per code"},
        {"rounds", 128, "active-profiling rounds"},
        {"prob", 0.5, "per-bit failure probability of at-risk cells"},
    };
    spec.schema = {
        {"code", JsonType::String, "(n,k) of the evaluated code"},
        {"checkpoints", JsonType::Array, "log-spaced round numbers"},
        {"profilers", JsonType::Array, "per profiler: coverage curve"},
    };
    spec.run = [](const RunContext &ctx) {
        const core::CoverageConfig config = coverageConfigFromPoint(ctx);
        const core::CoverageResult result =
            core::runCoverageExperiment(config);
        const auto checkpoints = roundCheckpoints(config.rounds);

        JsonValue profilers = JsonValue::array();
        for (std::size_t p = 0; p < result.profilers.size(); ++p) {
            JsonValue obj = JsonValue::object();
            obj.set("name", JsonValue(result.profilers[p].name));
            obj.set("coverage",
                    curveAtCheckpoints(checkpoints, [&](std::size_t r) {
                        return result.directCoverage(p, r);
                    }));
            profilers.push(std::move(obj));
        }
        JsonValue metrics = JsonValue::object();
        metrics.set(
            "code",
            JsonValue("(" +
                      std::to_string(
                          config.k +
                          ecc::HammingCode::minParityBits(config.k)) +
                      "," + std::to_string(config.k) + ")"));
        metrics.set("checkpoints", checkpointsJson(checkpoints));
        metrics.set("profilers", std::move(profilers));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeAblationDataPatterns()
{
    ExperimentSpec spec;
    spec.name = "ablation_data_patterns";
    spec.description =
        "Direct coverage under random vs. charged vs. checkered patterns";
    spec.labels = {"bench", "ablation"};
    ParamAxis pattern{"pattern", {"random", "charged", "checkered"}};
    spec.grid = ParamGrid({pattern});
    spec.tunables = {
        {"k", 64, "dataword length of the on-die ECC code"},
        {"codes", 8, "randomly generated codes per point"},
        {"words", 24, "simulated ECC words per code"},
        {"rounds", 128, "active-profiling rounds"},
        {"prob", 0.5, "per-bit failure probability of at-risk cells"},
        {"pre_errors", 4, "at-risk cells per ECC word"},
    };
    spec.schema = {
        {"checkpoints", JsonType::Array, "log-spaced round numbers"},
        {"profilers", JsonType::Array,
         "Naive and HARP-U coverage curves (the ablation's focus)"},
    };
    spec.run = [](const RunContext &ctx) {
        core::CoverageConfig config = coverageConfigFromPoint(ctx);
        config.pattern =
            core::patternKindFromName(ctx.getString("pattern"));
        const core::CoverageResult result =
            core::runCoverageExperiment(config);
        const auto checkpoints = roundCheckpoints(config.rounds);

        JsonValue profilers = JsonValue::array();
        for (std::size_t p = 0; p < result.profilers.size(); ++p) {
            // Focus the ablation on Naive (0) and HARP-U (2).
            if (p != 0 && p != 2)
                continue;
            JsonValue obj = JsonValue::object();
            obj.set("name", JsonValue(result.profilers[p].name));
            obj.set("coverage",
                    curveAtCheckpoints(checkpoints, [&](std::size_t r) {
                        return result.directCoverage(p, r);
                    }));
            profilers.push(std::move(obj));
        }
        JsonValue metrics = JsonValue::object();
        metrics.set("checkpoints", checkpointsJson(checkpoints));
        metrics.set("profilers", std::move(profilers));
        return metrics;
    };
    return spec;
}

} // namespace

void
registerCoverageSpecs(Registry &registry)
{
    registry.add(makeFig06());
    registry.add(makeFig07());
    registry.add(makeFig08());
    registry.add(makeFig09());
    registry.add(makeAblationCodeLength());
    registry.add(makeAblationDataPatterns());
}

} // namespace harp::runner
