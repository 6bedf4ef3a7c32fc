/**
 * @file
 * DRAM data-retention case study (HARP section 7.4, Fig. 10): bit error
 * rate of a system with an ideal bit-repair mechanism, before and after
 * reactive profiling with a single-error-correcting secondary ECC.
 *
 * BERs at realistic retention RBERs (1e-4..1e-8) are far below what direct
 * sampling can resolve, so the experiment is semi-analytic: it conditions
 * on the number of at-risk cells per word n ~ Binomial(k+p, RBER),
 * Monte-Carlo-simulates profiling for each n, and mixes the conditional
 * expectations with the Binomial weights — exact mixing of per-n
 * estimates, where direct sampling would almost never draw a word with
 * two or more at-risk cells.
 */

#ifndef HARP_CORE_CASE_STUDY_EXPERIMENT_HH
#define HARP_CORE_CASE_STUDY_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/data_pattern.hh"
#include "core/engine_kind.hh"

namespace harp::core {

/** Configuration of one case-study facet (one per-bit probability). */
struct CaseStudyConfig
{
    std::size_t k = 64;
    /** Per-bit failure probability of at-risk cells (facet). */
    double perBitProbability = 0.5;
    /** Raw bit error rates to report (line series in Fig. 10). */
    std::vector<double> rbers = {1e-4, 1e-6, 1e-8};
    /** Largest conditioned at-risk-cell count; Binomial tail beyond this
     *  is negligible for the evaluated RBERs. */
    std::size_t maxConditionedCells = 5;
    /** Monte-Carlo samples (code, word) per conditioned cell count. */
    std::size_t samplesPerCellCount = 24;
    std::size_t rounds = 128;
    PatternKind pattern = PatternKind::Random;
    std::uint64_t seed = 1;
    std::size_t threads = 0;
    /**
     * Profiling-round engine; bit-identical results either way. The
     * sliced engine batches samples of one conditioned cell count into
     * 64-lane blocks even though every sample has its own random code
     * (lanes need only share the dataword length k).
     */
    EngineKind engine = EngineKind::Sliced64;
};

/** One profiler's BER curves for one RBER. */
struct CaseStudySeries
{
    std::string profiler;
    double rber = 0.0;
    /** Per round: expected BER before reactive profiling (Fig. 10 left). */
    std::vector<double> berBefore;
    /** Per round: expected BER after reactive profiling (Fig. 10 right). */
    std::vector<double> berAfter;
};

/** Full case-study result for one facet. */
struct CaseStudyResult
{
    CaseStudyConfig config;
    std::vector<CaseStudySeries> series;
    /**
     * Per profiler (Naive, BEEP, HARP-U, HARP-A): 1-based first round at
     * which the post-reactive BER reaches exactly zero, or rounds+1 when
     * it never does. RBER-independent (the Binomial mixture is zero iff
     * every conditional expectation is zero). The paper's headline "3.7x
     * faster than Naive at p=0.75" is Naive's value divided by HARP's.
     */
    std::vector<std::string> profilerNames;
    std::vector<std::size_t> roundsToZeroAfter;
};

/** Binomial(n; trials, p) probability mass. */
double binomialPmf(std::size_t n, std::size_t trials, double p);

/** Run one case-study facet. */
CaseStudyResult runCaseStudyExperiment(const CaseStudyConfig &config);

} // namespace harp::core

#endif // HARP_CORE_CASE_STUDY_EXPERIMENT_HH
