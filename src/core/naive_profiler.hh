/**
 * @file
 * Naive baseline profiler (HARP section 7.1.1).
 *
 * Represents the vast majority of prior active-profiling proposals: it
 * programs worst-case data patterns and identifies a bit as at-risk when
 * it observes the bit flip in the post-correction read data. It has no
 * knowledge of (or visibility into) the on-die ECC function.
 */

#ifndef HARP_CORE_NAIVE_PROFILER_HH
#define HARP_CORE_NAIVE_PROFILER_HH

#include "core/profiler.hh"

namespace harp::core {

/**
 * Post-correction-observation profiler without on-die ECC knowledge.
 */
class NaiveProfiler : public Profiler
{
  public:
    explicit NaiveProfiler(std::size_t k);

    std::string name() const override { return "Naive"; }

    void observe(const RoundObservation &obs) override;

    /** Naive's observe is pure positionwise accumulation: lane-native
     *  groups replay it as identified |= written ^ post. */
    LaneObserveKind laneObserveKind() const override
    {
        return LaneObserveKind::PostCorrection;
    }

    bool cleanObserveIsNoOp() const override { return true; }
};

} // namespace harp::core

#endif // HARP_CORE_NAIVE_PROFILER_HH
