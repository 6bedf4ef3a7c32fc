#include "core/case_study_experiment.hh"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/rng.hh"
#include "core/at_risk_analyzer.hh"
#include "core/beep_profiler.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "ecc/hamming_code.hh"

namespace harp::core {

namespace {

/**
 * One profile and the residual counts derived from it — pure functions
 * of the profile and the sample's fixed ground truth, so a round whose
 * profile equals the last one reuses them unchanged.
 */
struct ProfileResiduals
{
    gf2::BitVector profile;
    std::uint64_t before = 0;
    std::uint64_t after = 0;
};

/**
 * One Monte-Carlo sample of the case study: its own random code, fault
 * model, profiler set and per-round residual counters. Observation
 * logic is shared by both engines, so results are engine-independent.
 */
struct SampleSim
{
    SampleSim(const CaseStudyConfig &config, std::size_t n,
              std::size_t sample)
        : code([&] {
              common::Xoshiro256 code_rng(common::deriveSeed(
                  config.seed, {0xC0DEu, n, sample}));
              return ecc::HammingCode::randomSec(config.k, code_rng);
          }()),
          faults([&] {
              common::Xoshiro256 fault_rng(common::deriveSeed(
                  config.seed, {0xFA17u, n, sample}));
              return fault::WordFaultModel::makeUniformFixedCount(
                  code.n(), n, config.perBitProbability, fault_rng);
          }()),
          analyzer(code, faults),
          n(n),
          engineSeed(
              common::deriveSeed(config.seed, {0xE221u, n, sample}))
    {
        profilers.push_back(std::make_unique<NaiveProfiler>(code.k()));
        profilers.push_back(std::make_unique<BeepProfiler>(code));
        profilers.push_back(std::make_unique<HarpUProfiler>(code.k()));
        profilers.push_back(std::make_unique<HarpAProfiler>(code));
        for (auto &p : profilers)
            raw.push_back(p.get());
        last.resize(profilers.size());
        localBefore.assign(profilers.size(),
                           std::vector<std::uint64_t>(config.rounds, 0));
        localAfter = localBefore;
    }

    /** Record residuals for all profilers after round index @p r. */
    void accumulateRound(std::size_t r)
    {
        for (std::size_t pi = 0; pi < raw.size(); ++pi) {
            const gf2::BitVector &ident = raw[pi]->identified();
            ProfileResiduals &m = last[pi];
            if (ident != m.profile) {
                m.profile = ident;
                m.before = analyzer.unidentifiedAtRisk(ident);
                m.after = analyzer.unsafeBitsAfterReactive(ident);
            }
            localBefore[pi][r] = m.before;
            localAfter[pi][r] = m.after;
        }
    }

    WordInputs inputs() const { return {&code, &faults, engineSeed, raw}; }

    ecc::HammingCode code;
    fault::WordFaultModel faults;
    AtRiskAnalyzer analyzer;
    /** Conditioned at-risk cell count. */
    std::size_t n;
    std::uint64_t engineSeed;
    std::vector<std::unique_ptr<Profiler>> profilers;
    std::vector<Profiler *> raw;
    /** Per profiler: the profile seen last round and its residuals
     *  (empty until the first round). */
    std::vector<ProfileResiduals> last;
    std::vector<std::vector<std::uint64_t>> localBefore;
    std::vector<std::vector<std::uint64_t>> localAfter;
};

} // namespace

double
binomialPmf(std::size_t n, std::size_t trials, double p)
{
    if (n > trials)
        return 0.0;
    // Log-space for numerical robustness at tiny p.
    double log_choose = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        log_choose += std::log(static_cast<double>(trials - i)) -
                      std::log(static_cast<double>(i + 1));
    }
    const double log_pmf =
        log_choose + static_cast<double>(n) * std::log(p) +
        static_cast<double>(trials - n) * std::log1p(-p);
    return std::exp(log_pmf);
}

CaseStudyResult
runCaseStudyExperiment(const CaseStudyConfig &config)
{
    if (config.rounds == 0 || config.samplesPerCellCount == 0 ||
        config.maxConditionedCells == 0)
        throw std::invalid_argument(
            "case study: rounds, samples per cell count and conditioned "
            "cells must be positive");
    CaseStudyResult result;
    result.config = config;
    result.profilerNames = {"Naive", "BEEP", "HARP-U", "HARP-A"};
    const std::size_t num_profilers = result.profilerNames.size();

    // Conditional sums: [profiler][cell count n][round] of (a) unidentified
    // post-correction at-risk bits and (b) unsafe bits after reactive
    // profiling, summed over Monte-Carlo samples.
    const std::size_t max_n = config.maxConditionedCells;
    std::vector<std::vector<std::vector<std::uint64_t>>> before_sum(
        num_profilers,
        std::vector<std::vector<std::uint64_t>>(
            max_n + 1, std::vector<std::uint64_t>(config.rounds, 0)));
    auto after_sum = before_sum;

    // Per-sample integer sums are order-insensitive, but the merges
    // still run in sample order so every engine and thread count walks
    // the aggregates identically.
    const WordRun run{config.engine, max_n * config.samplesPerCellCount,
                      config.rounds, config.pattern, config.threads};
    profileWords<SampleSim>(
        run,
        [&](std::size_t g) {
            return std::make_unique<SampleSim>(
                config, 1 + g / config.samplesPerCellCount,
                g % config.samplesPerCellCount);
        },
        [&](SampleSim &sim, std::size_t r) { sim.accumulateRound(r); },
        [&](SampleSim &sim) {
            for (std::size_t pi = 0; pi < num_profilers; ++pi) {
                for (std::size_t r = 0; r < config.rounds; ++r) {
                    before_sum[pi][sim.n][r] += sim.localBefore[pi][r];
                    after_sum[pi][sim.n][r] += sim.localAfter[pi][r];
                }
            }
        });

    // Mix the conditional expectations with Binomial weights.
    const std::size_t codeword_bits =
        config.k + ecc::HammingCode::minParityBits(config.k);
    const double samples =
        static_cast<double>(config.samplesPerCellCount);
    for (std::size_t pi = 0; pi < num_profilers; ++pi) {
        for (const double rber : config.rbers) {
            CaseStudySeries series;
            series.profiler = result.profilerNames[pi];
            series.rber = rber;
            series.berBefore.assign(config.rounds, 0.0);
            series.berAfter.assign(config.rounds, 0.0);
            for (std::size_t n = 1; n <= max_n; ++n) {
                const double weight =
                    binomialPmf(n, codeword_bits, rber);
                for (std::size_t r = 0; r < config.rounds; ++r) {
                    series.berBefore[r] +=
                        weight *
                        (static_cast<double>(before_sum[pi][n][r]) /
                         samples) /
                        static_cast<double>(config.k);
                    series.berAfter[r] +=
                        weight *
                        (static_cast<double>(after_sum[pi][n][r]) /
                         samples) /
                        static_cast<double>(config.k);
                }
            }
            result.series.push_back(std::move(series));
        }

        // First round with zero post-reactive residual across every
        // conditioned cell count (equivalently: mixture exactly zero).
        std::size_t first_zero = config.rounds + 1;
        for (std::size_t r = 0; r < config.rounds; ++r) {
            bool all_zero = true;
            for (std::size_t n = 1; n <= max_n && all_zero; ++n)
                all_zero = (after_sum[pi][n][r] == 0);
            if (all_zero) {
                first_zero = r + 1;
                break;
            }
        }
        result.roundsToZeroAfter.push_back(first_zero);
    }

    return result;
}

} // namespace harp::core
