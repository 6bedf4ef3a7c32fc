/**
 * @file
 * Lane-native observation accumulator for one profiler slot of the
 * bit-sliced round engine.
 *
 * PR 3/4 bit-sliced the encode -> inject -> decode datapath, but every
 * round still ended with a 64x64 bit-transpose scatter of the post (and
 * raw) slices plus one scalar virtual observe() call per lane per
 * profiler slot — the observation side capped the measured speedup well
 * below the lane ceiling. This class removes that cap for the profilers
 * whose observe() is itself GF(2)-positionwise (LaneObserveKind):
 *
 *  - Naive:  identified |= written ^ post        (one XOR+OR per
 *            position retires 64 words at once);
 *  - HARP-U: identified = direct |= written ^ raw (same, over the
 *            decode-bypass lanes);
 *  - HARP-A: HARP-U's accumulation plus per-lane indirect-error
 *            prediction, recomputed only for the (rare) lanes whose
 *            direct set actually grew this round.
 *
 * The group wraps the up-to-64 same-kind profilers of one engine slot
 * and consumes RoundLaneObservation — BitSlice references straight out
 * of the engine's datapath — so profiling rounds never leave
 * transposed form for these slots. Profile extraction transposes once
 * on demand instead of once per round: reading any wrapped profiler's
 * identified() (or identifiedDirect()) triggers flushIfDirty(), which
 * scatters the accumulated lane state into the wrapped profilers'
 * members.
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

namespace harp::core {

/**
 * One profiling round's outcome in transposed lane form: the slices
 * the engine's datapath already produced, never scattered.
 */
struct RoundLaneObservation
{
    /** Programmed datawords, k positions. */
    const gf2::BitSlice &written;
    /** Post-correction datawords, k positions. */
    const gf2::BitSlice &post;
    /** Received codewords, n positions; the decode-bypass raw data is
     *  the k-position prefix. */
    const gf2::BitSlice &received;
};

/**
 * Accumulates one slot's observations across up to 64 lanes without
 * leaving transposed form.
 */
class SlicedProfilerGroup
{
  public:

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
    static std::unique_ptr<SlicedProfilerGroup>
    tryMake(const std::vector<Profiler *> &lane_profilers, std::size_t k);

    ~SlicedProfilerGroup();

    SlicedProfilerGroup(const SlicedProfilerGroup &) = delete;
    SlicedProfilerGroup &operator=(const SlicedProfilerGroup &) = delete;

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
    void observeLanes(const RoundLaneObservation &obs);

    /** Transpose the accumulated lane state into the wrapped
     *  profilers' identified (and direct) members; no-op when clean. */
    void flushIfDirty();

  private:
    SlicedProfilerGroup(const std::vector<Profiler *> &lane_profilers,
                        LaneObserveKind kind, std::size_t k);

    /** Extract lane @p lane of @p slice's first k positions into
     *  laneScratch_. */
    void extractLane(const gf2::BitSlice &slice, std::size_t lane);

    LaneObserveKind kind_;
    std::size_t k_;
    /** Mask of live lanes (bit w set iff lane w wraps a profiler). */
    std::uint64_t liveMask_{};
    std::vector<Profiler *> profilers_;
    /** Accumulated identified lane masks, k positions. */
    gf2::BitSlice atRisk_;
    /** BypassAware only: accumulated direct-error lane masks (a subset
     *  of atRisk_; Bypass kinds reuse atRisk_, where the two sets
     *  coincide). */
    gf2::BitSlice direct_;
    bool dirty_ = false;

    // Flush/extraction scratch (no allocations after construction).
    std::vector<gf2::BitVector> flushScratch_;
    gf2::BitVector laneScratch_;
};

} // namespace harp::core

#endif // HARP_CORE_SLICED_PROFILER_GROUP_HH
