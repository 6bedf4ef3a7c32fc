/**
 * @file
 * Fleet-scale Monte Carlo reliability experiments.
 *
 * `fleet_policy_sweep` draws a large chip population from a field fault
 * distribution and runs every faulty chip through the full profiler +
 * scrub + repair stack (fleet/policy.hh) for each point of the
 * (profiler x scrub interval x repair budget) grid, emitting FIT rates
 * and repair-capacity percentiles. `fleet_population_stats` exposes
 * the sampler alone — per-mode event counts and the mode-mix
 * chi-square statistic the test tier bounds.
 *
 * Both experiments derive all randomness from ctx.seed(), so campaign
 * JSONL is byte-identical at any --threads.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "fleet/distribution.hh"
#include "fleet/policy.hh"
#include "fleet/population.hh"
#include "runner/registry.hh"

namespace harp::runner {

namespace {

using namespace harp;

/** Scale/shape tunables shared by both fleet experiments. */
std::vector<TunableSpec>
fleetShapeTunables()
{
    return {
        {"chips", 125000, "simulated chips per grid point"},
        {"words_per_chip", 128, "ECC words per chip"},
        {"device_hours", 43800.0,
         "field exposure per chip (Poisson window; 43800 h = 5 y)"},
        {"cell_prob", 0.5,
         "per-access failure probability of placed at-risk cells"},
        {"fit_scale", 1.0,
         "multiplier on every mode FIT rate (inflate for small fleets)"},
        {"fleet_seed", 0,
         "fixed population seed shared by every grid point for paired "
         "policy comparisons (0 = per-point campaign seed)"},
    };
}

std::uint64_t
fleetSeedFromContext(const RunContext &ctx)
{
    const std::size_t pinned = ctx.getCount("fleet_seed");
    return pinned > 0 ? pinned : ctx.seed();
}

fleet::FleetDistribution
distributionFromContext(const RunContext &ctx)
{
    fleet::FleetDistribution dist =
        fleet::FleetDistribution::preset(ctx.getString("dist"));
    dist.cellProbability = ctx.getDouble("cell_prob");
    const double fit_scale = ctx.getDouble("fit_scale");
    for (double &fit : dist.modeFit)
        fit *= fit_scale;
    dist.validate();
    return dist;
}

/** The `chips` knob: a fleet of zero chips has no rate to report. */
std::size_t
chipsFromContext(const RunContext &ctx)
{
    const std::size_t chips = ctx.getCount("chips");
    if (chips == 0)
        throw std::invalid_argument("chips must be at least 1");
    return chips;
}

JsonValue
runPolicySweepPoint(const RunContext &ctx)
{
    fleet::FleetConfig config;
    config.distribution = distributionFromContext(ctx);
    config.wordsPerChip = ctx.getCount("words_per_chip");
    config.deviceHours = ctx.getDouble("device_hours");
    config.chips = chipsFromContext(ctx);
    config.windows = ctx.getCount("windows");
    if (config.windows == 0)
        throw std::invalid_argument(
            "windows must be at least 1 (no field operation is replayed)");
    config.seed = fleetSeedFromContext(ctx);
    config.threads = ctx.threads();

    config.policy.profiler =
        fleet::profilerKindFromName(ctx.getString("profiler"));
    config.policy.activeRounds = ctx.getCount("rounds");
    config.policy.scrubInterval = ctx.getCount("scrub_interval");
    const std::int64_t budget = ctx.getInt("repair_budget");
    config.policy.repairBudget =
        budget < 0 ? fleet::kUnlimitedBudget
                   : static_cast<std::size_t>(budget);

    fleet::FleetAggregator agg;
    try {
        agg = fleet::runFleet(config, [&ctx] { return ctx.cancelled(); });
    } catch (const fleet::FleetStopped &) {
        throw JobCancelled();
    }

    JsonValue metrics = JsonValue::object();
    metrics.set("chips", JsonValue(agg.chips()));
    metrics.set("faulty_chips", JsonValue(agg.faultyChips()));
    metrics.set("fault_events", JsonValue(agg.faultEvents()));
    metrics.set("at_risk_cells", JsonValue(agg.atRiskCells()));
    metrics.set("failed_chips", JsonValue(agg.failedChips()));
    metrics.set("fit_rate", JsonValue(agg.fitRate(config.deviceHours)));
    metrics.set("fit_rate_ci95",
                JsonValue(agg.fitRateCi95(config.deviceHours)));
    metrics.set("repair_capacity_p50",
                JsonValue(agg.repairBitsQuantile(0.50)));
    metrics.set("repair_capacity_p99",
                JsonValue(agg.repairBitsQuantile(0.99)));
    metrics.set("repair_capacity_p999",
                JsonValue(agg.repairBitsQuantile(0.999)));
    metrics.set("repair_bits_total", JsonValue(agg.repairSpareBits()));
    metrics.set("profiled_bits", JsonValue(agg.profiledBits()));
    metrics.set("uncorrectable_events",
                JsonValue(agg.uncorrectableEvents()));
    metrics.set("silent_corruptions", JsonValue(agg.silentCorruptions()));
    metrics.set("repaired_bit_reads", JsonValue(agg.repairedBitReads()));
    metrics.set("scrub_writebacks", JsonValue(agg.scrubWritebacks()));
    return metrics;
}

JsonValue
runPopulationStatsPoint(const RunContext &ctx)
{
    const fleet::FleetDistribution dist = distributionFromContext(ctx);
    const std::size_t chips = chipsFromContext(ctx);
    const fleet::ChipGeometry geometry{ctx.getCount("words_per_chip"), 71};
    const fleet::PopulationSampler sampler(
        dist, geometry, ctx.getDouble("device_hours"),
        fleetSeedFromContext(ctx));

    std::array<std::uint64_t, fleet::kNumFaultModes> mode_counts{};
    std::vector<std::uint64_t> tier_counts(dist.tiers.size(), 0);
    std::uint64_t faulty = 0, events = 0, cells = 0, max_events = 0;
    for (std::size_t chip = 0; chip < chips; ++chip) {
        const fleet::ChipSample sample = sampler.sample(chip);
        ++tier_counts[sample.tier];
        if (!sample.faulty())
            continue;
        ++faulty;
        events += sample.events.size();
        max_events = std::max<std::uint64_t>(max_events,
                                             sample.events.size());
        cells += sample.distinctCells();
        for (const fleet::FaultEvent &event : sample.events)
            ++mode_counts[static_cast<std::size_t>(event.mode)];
    }

    // Conditioned on an event arriving, its mode is an iid draw from
    // modeMix() in every tier — the chi-square statistic against that
    // mix is what the statistical test tier bounds.
    const auto mix = dist.modeMix();
    double chi_square = 0.0;
    if (events > 0) {
        for (std::size_t m = 0; m < fleet::kNumFaultModes; ++m) {
            const double expected =
                static_cast<double>(events) * mix[m];
            if (expected <= 0.0)
                continue;
            const double delta =
                static_cast<double>(mode_counts[m]) - expected;
            chi_square += delta * delta / expected;
        }
    }

    // Expected faulty fraction: mixture of per-tier Poisson arrivals.
    double expected_faulty = 0.0;
    for (std::size_t t = 0; t < dist.tiers.size(); ++t)
        expected_faulty +=
            dist.tiers[t].fraction *
            -std::expm1(-sampler.eventRate(t));

    JsonValue metrics = JsonValue::object();
    metrics.set("chips", JsonValue(chips));
    metrics.set("faulty_chips", JsonValue(faulty));
    metrics.set("fault_events", JsonValue(events));
    metrics.set("distinct_cells", JsonValue(cells));
    metrics.set("max_events_per_chip", JsonValue(max_events));
    metrics.set("mean_events_per_chip",
                JsonValue(static_cast<double>(events) /
                          static_cast<double>(chips)));
    metrics.set("expected_faulty_fraction", JsonValue(expected_faulty));
    metrics.set("events_bit", JsonValue(mode_counts[0]));
    metrics.set("events_word", JsonValue(mode_counts[1]));
    metrics.set("events_column", JsonValue(mode_counts[2]));
    metrics.set("events_chip", JsonValue(mode_counts[3]));
    metrics.set("chi_square_mode_mix", JsonValue(chi_square));
    JsonValue tiers = JsonValue::array();
    for (std::size_t t = 0; t < dist.tiers.size(); ++t) {
        JsonValue tier = JsonValue::object();
        tier.set("name", JsonValue(dist.tiers[t].name));
        tier.set("chips", JsonValue(tier_counts[t]));
        tiers.push(std::move(tier));
    }
    metrics.set("tiers", tiers);
    return metrics;
}

} // namespace

void
registerFleetSpecs(Registry &registry)
{
    {
        ExperimentSpec spec;
        spec.name = "fleet_policy_sweep";
        spec.description =
            "Monte Carlo fleet reliability: FIT rate and repair-capacity "
            "percentiles per (profiler x scrub x repair budget) policy";
        spec.labels = {"fleet", "extension"};
        spec.grid = ParamGrid{{
            ParamAxis{"profiler",
                      {ParamValue("none"), ParamValue("naive"),
                       ParamValue("harp_u"), ParamValue("harp_a")}},
            ParamAxis{"scrub_interval", {ParamValue(0), ParamValue(8)}},
            ParamAxis{"repair_budget", {ParamValue(16), ParamValue(-1)}},
        }};
        spec.tunables = fleetShapeTunables();
        spec.tunables.push_back(
            {"dist", "ddr4",
             "field fault distribution preset: ddr4 | hrm (3-tier HRM)"});
        spec.tunables.push_back(
            {"windows", 32, "operation windows replayed per chip"});
        spec.tunables.push_back(
            {"rounds", 32, "active-profiling rounds per faulty word"});
        spec.schema = {
            {"chips", JsonType::Int, "simulated chips"},
            {"faulty_chips", JsonType::Int,
             "chips the sampler drew fault events for"},
            {"fault_events", JsonType::Int, "field fault events drawn"},
            {"at_risk_cells", JsonType::Int,
             "distinct at-risk cells placed on faulty chips"},
            {"failed_chips", JsonType::Int,
             "chips with any corrupt read (detected or silent)"},
            {"fit_rate", JsonType::Double,
             "failed chips per billion device-hours"},
            {"fit_rate_ci95", JsonType::Double,
             "95% CI half-width of fit_rate"},
            {"repair_capacity_p50", JsonType::Int,
             "median spare bits consumed per faulty chip"},
            {"repair_capacity_p99", JsonType::Int,
             "p99 spare bits consumed per faulty chip"},
            {"repair_capacity_p999", JsonType::Int,
             "p999 spare bits consumed per faulty chip"},
            {"repair_bits_total", JsonType::Int,
             "spare bits consumed fleet-wide"},
            {"profiled_bits", JsonType::Int,
             "profiled at-risk bits fleet-wide"},
            {"uncorrectable_events", JsonType::Int,
             "detected-uncorrectable reads fleet-wide"},
            {"silent_corruptions", JsonType::Int,
             "reads returning wrong data undetected"},
            {"repaired_bit_reads", JsonType::Int,
             "bit corrections served from spares"},
            {"scrub_writebacks", JsonType::Int,
             "patrol-scrub corrections written back"},
        };
        spec.run = runPolicySweepPoint;
        registry.add(std::move(spec));
    }
    {
        ExperimentSpec spec;
        spec.name = "fleet_population_stats";
        spec.description =
            "Chip-population sampler statistics: per-mode event counts, "
            "tier split and the mode-mix chi-square statistic";
        spec.labels = {"fleet", "extension"};
        spec.grid = ParamGrid{{
            ParamAxis{"dist", {ParamValue("ddr4"), ParamValue("hrm")}},
        }};
        spec.tunables = fleetShapeTunables();
        spec.schema = {
            {"chips", JsonType::Int, "sampled chips"},
            {"faulty_chips", JsonType::Int, "chips with >= 1 event"},
            {"fault_events", JsonType::Int, "events drawn"},
            {"distinct_cells", JsonType::Int,
             "distinct at-risk cells across faulty chips"},
            {"max_events_per_chip", JsonType::Int,
             "largest per-chip event count"},
            {"mean_events_per_chip", JsonType::Double,
             "events / chips"},
            {"expected_faulty_fraction", JsonType::Double,
             "closed-form P(>=1 event) under the tier mixture"},
            {"events_bit", JsonType::Int, "single-bit events"},
            {"events_word", JsonType::Int, "single-word events"},
            {"events_column", JsonType::Int, "single-column events"},
            {"events_chip", JsonType::Int, "chip-wide events"},
            {"chi_square_mode_mix", JsonType::Double,
             "chi-square of the observed mode mix vs modeMix()"},
            {"tiers", JsonType::Array,
             "per-tier {name, chips} population split"},
        };
        spec.run = runPopulationStatsPoint;
        registry.add(std::move(spec));
    }
}

} // namespace harp::runner
