/**
 * @file
 * Lane-native observation accumulator for one profiler slot of the
 * bit-sliced round engine, templated over the lane width.
 *
 * PR 3/4 bit-sliced the encode -> inject -> decode datapath, but every
 * round still ended with a 64x64 bit-transpose scatter of the post (and
 * raw) slices plus one scalar virtual observe() call per lane per
 * profiler slot — the observation side capped the measured speedup well
 * below the lane ceiling. This class removes that cap for the profilers
 * whose observe() is itself GF(2)-positionwise (LaneObserveKind):
 *
 *  - Naive:  identified |= written ^ post        (one XOR+OR per
 *            position retires W*64 words at once);
 *  - HARP-U: identified = direct |= written ^ raw (same, over the
 *            decode-bypass lanes);
 *  - HARP-A: HARP-U's accumulation plus per-lane indirect-error
 *            prediction, recomputed only for the (rare) lanes whose
 *            direct set actually grew this round.
 *
 * The group wraps the up-to-W*64 same-kind profilers of one engine slot
 * and consumes RoundLaneObservationW — BitSliceW references straight
 * out of the engine's datapath — so profiling rounds never leave
 * transposed form for these slots. Profile extraction transposes once
 * on demand instead of once per round: reading any wrapped profiler's
 * identified() (or identifiedDirect()) triggers flushIfDirty() through
 * the width-erased LaneObserverGroup base, which scatters the
 * accumulated lane state into the wrapped profilers' members.
 * Experiments that inspect profiles every round therefore stay
 * bit-identical to the scalar engine, while throughput-bound runs pay a
 * single transpose at the end.
 *
 * Lifetime: the engine owns its groups and builds them once, at
 * construction. A group attaches its profilers for its whole life and
 * refuses a profiler another group already holds; its destruction
 * flushes and detaches every profiler, which must therefore outlive
 * it.
 */

#ifndef HARP_CORE_SLICED_PROFILER_GROUP_HH
#define HARP_CORE_SLICED_PROFILER_GROUP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/profiler.hh"
#include "gf2/bit_slice.hh"
#include "gf2/bit_vector.hh"
#include "gf2/lane.hh"

namespace harp::core {

/**
 * One profiling round's outcome in transposed lane form: the slices
 * the engine's datapath already produced, never scattered.
 */
template <std::size_t W>
struct RoundLaneObservationW
{
    /** Programmed datawords, k positions. */
    const gf2::BitSliceW<W> &written;
    /** Post-correction datawords, k positions. */
    const gf2::BitSliceW<W> &post;
    /** Received codewords, n positions; the decode-bypass raw data is
     *  the k-position prefix. */
    const gf2::BitSliceW<W> &received;
};

/** The historical 64-lane name. */
using RoundLaneObservation = RoundLaneObservationW<1>;

/**
 * Accumulates one slot's observations across up to W*64 lanes without
 * leaving transposed form.
 */
template <std::size_t W>
class SlicedProfilerGroupW final : public LaneObserverGroup
{
  public:
    using Lane = gf2::LaneOf<W>;

    /**
     * Form a group over one slot's per-lane profilers (index = lane),
     * or return null when the slot cannot be driven lane-natively —
     * any lane reporting LaneObserveKind::None, mixed kinds across
     * lanes, or a dataword length disagreeing with @p k. The returned
     * group seeds its lane state from the profilers' current profiles,
     * so pre-warmed profilers keep their bits. Throws
     * std::invalid_argument if a profiler is already attached to a
     * live group.
     */
    static std::unique_ptr<SlicedProfilerGroupW>
    tryMake(const std::vector<Profiler *> &lane_profilers, std::size_t k);

    ~SlicedProfilerGroupW() override;

    SlicedProfilerGroupW(const SlicedProfilerGroupW &) = delete;
    SlicedProfilerGroupW &operator=(const SlicedProfilerGroupW &) = delete;

    /** The slot's shared observation kind (never None). */
    LaneObserveKind kind() const { return kind_; }

    /** True iff lane state has accumulated since the last flush. */
    bool dirty() const { return dirty_; }

    /**
     * Observe one round for every lane at once. BypassAware groups may
     * call back into lanes whose direct set grew
     * (Profiler::laneDirectGrew); everything else is pure lane
     * arithmetic.
     */
    void observeLanes(const RoundLaneObservationW<W> &obs);

    /** Transpose the accumulated lane state into the wrapped
     *  profilers' identified (and direct) members; no-op when clean. */
    void flushIfDirty() override;

  private:
    SlicedProfilerGroupW(const std::vector<Profiler *> &lane_profilers,
                         LaneObserveKind kind, std::size_t k);

    /** Extract lane @p lane of @p slice's first k positions into
     *  laneScratch_. */
    void extractLane(const gf2::BitSliceW<W> &slice, std::size_t lane);

    LaneObserveKind kind_;
    std::size_t k_;
    /** Mask of live lanes (bit w set iff lane w wraps a profiler). */
    Lane liveMask_{};
    std::vector<Profiler *> profilers_;
    /** Accumulated identified lane masks, k positions. */
    gf2::BitSliceW<W> atRisk_;
    /** BypassAware only: accumulated direct-error lane masks (a subset
     *  of atRisk_; Bypass kinds reuse atRisk_, where the two sets
     *  coincide). */
    gf2::BitSliceW<W> direct_;
    bool dirty_ = false;

    // Flush/extraction scratch (no allocations after construction).
    std::vector<gf2::BitVector> flushScratch_;
    gf2::BitVector laneScratch_;
};

/** The historical 64-lane name. */
using SlicedProfilerGroup = SlicedProfilerGroupW<1>;
/** The wide 256-lane variant. */
using SlicedProfilerGroup256 = SlicedProfilerGroupW<4>;

extern template class SlicedProfilerGroupW<1>;
extern template class SlicedProfilerGroupW<4>;

} // namespace harp::core

#endif // HARP_CORE_SLICED_PROFILER_GROUP_HH
