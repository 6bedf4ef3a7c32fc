/**
 * @file
 * Experiment specs for the paper's motivation studies: Fig. 2 (wasted
 * storage vs. repair granularity), Table 1 (repair-mechanism survey),
 * Table 2 (at-risk bit amplification) and Fig. 4 (post-correction
 * error-probability distribution).
 */

#include <cmath>
#include <stdexcept>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/at_risk_analyzer.hh"
#include "core/fig4_experiment.hh"
#include "core/waste_model.hh"
#include "ecc/hamming_code.hh"
#include "fault/fault_model.hh"
#include "runner/registry.hh"
#include "runner/sweeps.hh"

namespace harp::runner {

namespace {

using namespace harp;

ExperimentSpec
makeFig02()
{
    ExperimentSpec spec;
    spec.name = "fig02_wasted_storage";
    spec.description =
        "Expected wasted storage vs. RBER per repair granularity";
    spec.labels = {"bench", "figure"};

    // RBER sweep 1e-7 .. ~0.5 (log-spaced), matching the figure's x-axis.
    ParamAxis rber{"rber", {}};
    for (double p = 1e-7; p <= 0.5; p *= std::sqrt(10.0))
        rber.values.emplace_back(p);
    ParamAxis granularity{"granularity", {}};
    for (const std::size_t g : {1024, 512, 64, 32, 1})
        granularity.values.emplace_back(g);
    spec.grid = ParamGrid({rber, granularity});

    spec.tunables = {
        {"blocks", 4000, "Monte-Carlo blocks per cross-check point"},
    };
    spec.schema = {
        {"expected_waste", JsonType::Double,
         "closed form (1-(1-p)^g) - p"},
        {"monte_carlo", JsonType::Double, "simulated wasted fraction"},
        {"abs_error", JsonType::Double, "|expected - monte_carlo|"},
    };
    spec.run = [](const RunContext &ctx) {
        const double rber = ctx.getDouble("rber");
        const auto g = ctx.getCount("granularity");
        const auto blocks = ctx.getCount("blocks");
        // The simulated fraction divides by the simulated bit count.
        if (blocks == 0)
            throw std::invalid_argument("blocks must be at least 1");
        common::Xoshiro256 rng(ctx.seed());

        const double expected = core::expectedWastedFraction(g, rber);
        const double simulated =
            core::simulateWastedFraction(g, rber, blocks, rng);
        JsonValue metrics = JsonValue::object();
        metrics.set("expected_waste", JsonValue(expected));
        metrics.set("monte_carlo", JsonValue(simulated));
        metrics.set("abs_error", JsonValue(std::abs(expected - simulated)));
        return metrics;
    };
    return spec;
}

/** Table 1 survey rows (literature data; the quantitative columns come
 *  from the Fig. 2 waste model). */
struct SurveyRow
{
    const char *mechanismClass;
    const char *sizeBits;
    std::size_t representativeBits;
    const char *examples;
};

constexpr SurveyRow surveyRows[] = {
    {"system_page", "32K", 32768, "RAPID, RIO, page retirement"},
    {"dram_external_row", "2-64K", 16384, "PPR, Agnos, RAIDR, DIVA"},
    {"dram_internal_row_col", "512-1024", 1024, "row/col sparing, Solar"},
    {"cache_block", "256-512", 512, "FREE-p, CiDRA"},
    {"processor_word", "32-64", 64, "ArchShield"},
    {"byte", "8", 8, "DRM"},
    {"single_bit", "1", 1,
     "ECP, SECRET, REMAP, SFaultMap, HOTH, FLOWER, SAFER, Bit-fix"},
};

ExperimentSpec
makeTable01()
{
    ExperimentSpec spec;
    spec.name = "table01_repair_survey";
    spec.description =
        "Survey of repair mechanisms + waste model per granularity class";
    spec.labels = {"bench", "table"};

    ParamAxis mechanism{"mechanism", {}};
    for (const SurveyRow &row : surveyRows)
        mechanism.values.emplace_back(row.mechanismClass);
    spec.grid = ParamGrid({mechanism});

    spec.schema = {
        {"size_bits", JsonType::String, "granularity range from the survey"},
        {"representative_bits", JsonType::Int,
         "granularity used for the waste model"},
        {"examples", JsonType::String, "mechanisms from the literature"},
        {"waste_at_rber_1e4", JsonType::Double,
         "expected wasted fraction at RBER 1e-4"},
        {"waste_at_rber_1e2", JsonType::Double,
         "expected wasted fraction at RBER 1e-2"},
    };
    spec.run = [](const RunContext &ctx) {
        const std::string &name = ctx.getString("mechanism");
        const SurveyRow *row = nullptr;
        for (const SurveyRow &candidate : surveyRows)
            if (name == candidate.mechanismClass)
                row = &candidate;
        if (row == nullptr)
            throw std::runtime_error("unknown mechanism class " + name);
        JsonValue metrics = JsonValue::object();
        metrics.set("size_bits", JsonValue(row->sizeBits));
        metrics.set("representative_bits",
                    JsonValue(row->representativeBits));
        metrics.set("examples", JsonValue(row->examples));
        metrics.set("waste_at_rber_1e4",
                    JsonValue(core::expectedWastedFraction(
                        row->representativeBits, 1e-4)));
        metrics.set("waste_at_rber_1e2",
                    JsonValue(core::expectedWastedFraction(
                        row->representativeBits, 1e-2)));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeTable02()
{
    ExperimentSpec spec;
    spec.name = "table02_amplification";
    spec.description =
        "On-die ECC amplification of n at-risk cells: closed forms vs. "
        "measured";
    spec.labels = {"bench", "table"};

    ParamAxis n{"pre_errors", {}};
    for (const std::size_t v : {1, 2, 3, 4, 5, 6, 8})
        n.values.emplace_back(v);
    spec.grid = ParamGrid({n});

    spec.tunables = {
        {"k", 64, "dataword length of the random SEC codes"},
        {"trials", 400, "random (code, fault placement) trials"},
    };
    spec.schema = {
        {"unique_patterns", JsonType::Int, "2^n - 1"},
        {"uncorrectable_patterns", JsonType::Int, "2^n - n - 1"},
        {"worst_case_at_risk", JsonType::Int,
         "upper bound on post-correction at-risk bits (2^n - 1)"},
        {"measured_max", JsonType::Double,
         "largest at-risk count across trials"},
        {"measured_mean", JsonType::Double,
         "mean at-risk count across trials"},
    };
    spec.run = [](const RunContext &ctx) {
        const auto n = ctx.getCount("pre_errors");
        const auto k = ctx.getCount("k");
        const auto trials = ctx.getCount("trials");

        common::RunningStat at_risk;
        for (std::size_t t = 0; t < trials; ++t) {
            common::Xoshiro256 code_rng(
                common::deriveSeed(ctx.seed(), {n, t, 0xC0DEu}));
            const ecc::HammingCode code =
                ecc::HammingCode::randomSec(k, code_rng);
            common::Xoshiro256 fault_rng(
                common::deriveSeed(ctx.seed(), {n, t, 0xFA17u}));
            const fault::WordFaultModel faults =
                fault::WordFaultModel::makeUniformFixedCount(code.n(), n,
                                                             0.5,
                                                             fault_rng);
            const core::AtRiskAnalyzer analyzer(code, faults);
            at_risk.add(static_cast<double>(
                analyzer.postCorrectionAtRisk().popcount()));
        }
        const std::size_t unique = (std::size_t{1} << n) - 1;
        JsonValue metrics = JsonValue::object();
        metrics.set("unique_patterns", JsonValue(unique));
        metrics.set("uncorrectable_patterns",
                    JsonValue((std::size_t{1} << n) - n - 1));
        metrics.set("worst_case_at_risk", JsonValue(unique));
        metrics.set("measured_max", JsonValue(at_risk.max()));
        metrics.set("measured_mean", JsonValue(at_risk.mean()));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeFig04()
{
    ExperimentSpec spec;
    spec.name = "fig04_postcorrection_probability";
    spec.description =
        "Distribution of per-bit post-correction error probability";
    spec.labels = {"bench", "figure"};

    ParamAxis n{"pre_errors", {}};
    for (std::size_t v = 2; v <= 8; ++v)
        n.values.emplace_back(v);
    spec.grid = ParamGrid({n});

    spec.tunables = {
        {"k", 64, "dataword length of the on-die ECC code"},
        {"codes", 40, "randomly generated codes"},
        {"words", 40, "simulated ECC words per code"},
        {"prob", 0.5, "per-bit failure probability of at-risk cells"},
    };
    const char *quantiles[] = {"p5", "p25", "median", "p75", "p95"};
    for (const char *q : quantiles)
        spec.schema.push_back({std::string("post_") + q, JsonType::Double,
                               "post-correction probability quantile"});
    spec.schema.push_back({"post_mean", JsonType::Double,
                           "mean post-correction probability"});
    spec.schema.push_back({"pre_mean", JsonType::Double,
                           "mean pre-correction probability (reference)"});
    spec.schema.push_back(
        {"samples", JsonType::Int, "at-risk bits sampled"});

    spec.run = [](const RunContext &ctx) {
        core::Fig4Config config;
        config.k = ctx.getCount("k");
        config.numCodes = ctx.getCount("codes");
        config.wordsPerCode = ctx.getCount("words");
        config.perBitProbability = ctx.getDouble("prob");
        const auto n = ctx.getCount("pre_errors");
        config.minPreCorrectionErrors = n;
        config.maxPreCorrectionErrors = n;
        config.seed = ctx.seed();
        config.threads = ctx.threads();

        const core::Fig4Result result = core::runFig4Experiment(config);
        const core::Fig4Row &row = result.rows.front();
        JsonValue metrics = JsonValue::object();
        metrics.set("post_p5", JsonValue(row.postCorrection.quantile(0.05)));
        metrics.set("post_p25",
                    JsonValue(row.postCorrection.quantile(0.25)));
        metrics.set("post_median", JsonValue(row.postCorrection.median()));
        metrics.set("post_p75",
                    JsonValue(row.postCorrection.quantile(0.75)));
        metrics.set("post_p95",
                    JsonValue(row.postCorrection.quantile(0.95)));
        metrics.set("post_mean", JsonValue(row.postCorrection.mean()));
        metrics.set("pre_mean", JsonValue(row.preCorrection.mean()));
        metrics.set("samples", JsonValue(row.postCorrection.count()));
        return metrics;
    };
    return spec;
}

} // namespace

void
registerMotivationSpecs(Registry &registry)
{
    registry.add(makeFig02());
    registry.add(makeTable01());
    registry.add(makeTable02());
    registry.add(makeFig04());
}

} // namespace harp::runner
