/**
 * @file
 * Standard sweep axes and helpers shared by the experiment specs — the
 * paper's canonical parameter values, previously copy-pasted across the
 * bench binaries as bench/bench_common.hh.
 */

#ifndef HARP_RUNNER_SWEEPS_HH
#define HARP_RUNNER_SWEEPS_HH

#include <cstddef>
#include <vector>

#include "core/coverage_experiment.hh"
#include "runner/experiment_spec.hh"
#include "runner/param.hh"

namespace harp::runner {

/** Per-bit pre-correction error probabilities evaluated in the paper. */
inline const std::vector<double> paperProbabilities = {0.25, 0.50, 0.75,
                                                       1.00};

/** Pre-correction error counts evaluated in Figs. 6-10. */
inline const std::vector<std::size_t> paperErrorCounts = {2, 3, 4, 5};

/** Axis over the paper's per-bit probabilities ("prob"). */
inline ParamAxis
probabilityAxis()
{
    ParamAxis axis{"prob", {}};
    for (const double p : paperProbabilities)
        axis.values.emplace_back(p);
    return axis;
}

/** Axis over the paper's pre-correction error counts ("pre_errors"). */
inline ParamAxis
preErrorAxis()
{
    ParamAxis axis{"pre_errors", {}};
    for (const std::size_t n : paperErrorCounts)
        axis.values.emplace_back(n);
    return axis;
}

/** Logarithmically spaced profiling-round checkpoints for curve output. */
inline std::vector<std::size_t>
roundCheckpoints(std::size_t rounds)
{
    std::vector<std::size_t> points;
    for (std::size_t r = 1; r <= rounds; r *= 2)
        points.push_back(r);
    if (points.empty() || points.back() != rounds)
        points.push_back(rounds);
    return points;
}

/** JSON array of checkpoint round numbers. */
inline JsonValue
checkpointsJson(const std::vector<std::size_t> &checkpoints)
{
    JsonValue arr = JsonValue::array();
    for (const std::size_t cp : checkpoints)
        arr.push(JsonValue(cp));
    return arr;
}

/** The Monte-Carlo scale tunables shared by the coverage-style specs. */
inline std::vector<TunableSpec>
coverageTunables()
{
    return {
        {"k", 64, "dataword length of the on-die ECC code"},
        {"codes", 8, "randomly generated codes per point"},
        {"words", 24, "simulated ECC words per code"},
        {"rounds", 128, "active-profiling rounds"},
    };
}

/** Populate a coverage config from the standard tunables. */
inline core::CoverageConfig
coverageConfigFromContext(const RunContext &ctx)
{
    core::CoverageConfig config;
    config.k = ctx.getCount("k");
    config.numCodes = ctx.getCount("codes");
    config.wordsPerCode = ctx.getCount("words");
    config.rounds = ctx.getCount("rounds");
    config.seed = ctx.seed();
    config.threads = ctx.threads();
    return config;
}

} // namespace harp::runner

#endif // HARP_RUNNER_SWEEPS_HH
