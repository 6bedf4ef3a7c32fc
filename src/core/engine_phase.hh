/**
 * @file
 * Optional per-phase wall-time accounting shared by the scalar and
 * bit-sliced profiling-round engines.
 *
 * A profiling round decomposes into three phases:
 *  - setup:    data-pattern generation, common-random-number draws and
 *              profiler dataword choice;
 *  - datapath: encode -> inject -> decode (gathers included on the
 *              sliced engine);
 *  - observe:  everything that feeds profiler state — lane-observation
 *              passes, post/raw scatters and scalar observe() calls.
 *
 * Engines accumulate into an EnginePhaseSeconds sink only when one is
 * attached (setPhaseSink); the default null sink keeps the hot path
 * free of clock reads, so headline throughput numbers are never
 * contaminated by the instrumentation (runner/specs_perf.cc measures
 * the phase split in a separate instrumented repetition).
 */

#ifndef HARP_CORE_ENGINE_PHASE_HH
#define HARP_CORE_ENGINE_PHASE_HH

#include <chrono>

namespace harp::core {

/** Accumulated wall seconds per profiling-round phase. */
struct EnginePhaseSeconds
{
    double setup = 0.0;
    double datapath = 0.0;
    double observe = 0.0;
};

/**
 * Scoped accumulator: adds the elapsed wall time between construction
 * and destruction to @p *field, or does nothing (and reads no clock)
 * when @p field is null.
 */
class PhaseScope
{
  public:
    explicit PhaseScope(double *field)
        : field_(field)
    {
        if (field_ != nullptr)
            start_ = std::chrono::steady_clock::now();
    }

    ~PhaseScope()
    {
        if (field_ != nullptr)
            *field_ += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
    }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    double *field_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace harp::core

#endif // HARP_CORE_ENGINE_PHASE_HH
