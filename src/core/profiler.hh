/**
 * @file
 * Profiler interface shared by Naive, BEEP, HARP-U, HARP-A and
 * HARP-A+BEEP (HARP sections 6 and 7.1.1).
 *
 * A profiler participates in round-based active profiling: each round it
 * (1) chooses a dataword to program, and (2) observes the outcome of
 * reading the word back. Its output is the set of data-bit positions it
 * has identified as at risk of post-correction error — the error profile
 * a repair mechanism would consume.
 */

#ifndef HARP_CORE_PROFILER_HH
#define HARP_CORE_PROFILER_HH

#include <memory>
#include <string>

#include "ecc/hamming_code.hh"
#include "gf2/bit_vector.hh"

namespace harp::core {

class SlicedProfilerGroup;

/**
 * How a profiler's observe() step can be replayed in transposed lane
 * form by a SlicedProfilerGroup (core/sliced_profiler_group.hh).
 *
 * A non-None kind is a contract with the sliced engine: the profiler
 * (a) never crafts a dataword (craftDataword() keeps the default) and
 * (b) its observe() reduces to the position-wise accumulation named by
 * the kind. The engine then skips the per-lane craft calls, feeds the
 * whole slot one lane observation per round, and elides the post/raw
 * scatters.
 */
enum class LaneObserveKind
{
    /** No lane-native form: drive through scalar observe() (BEEP and
     *  BEEP hybrids — crafted patterns and non-linear suspect state). */
    None,
    /** identified |= written ^ postCorrectionData (Naive). */
    PostCorrection,
    /** identified = direct |= written ^ rawData (HARP-U). */
    Bypass,
    /** Bypass plus per-lane indirect-prediction recomputation whenever
     *  the lane's direct set grows (HARP-A). */
    BypassAware,
};

/**
 * Everything a profiler may observe about one profiling round.
 *
 * The rawData field models the on-die ECC decode-bypass read path (HARP
 * section 5.2). Only bypass-capable profilers (HARP variants) may use it;
 * baseline profilers must restrict themselves to postCorrectionData. The
 * pre-correction parity bits are never exposed, matching the paper's
 * transparency limit.
 */
struct RoundObservation
{
    /** Dataword d the profiler programmed. */
    const gf2::BitVector &writtenData;
    /** Post-correction dataword d' from the normal read path. */
    const gf2::BitVector &postCorrectionData;
    /** Raw stored data bits from the decode-bypass path. */
    const gf2::BitVector &rawData;
};

/**
 * Abstract round-based error profiler.
 *
 * An engine binds its profilers at construction and drives them until
 * it is destroyed: the profilers must outlive the engine, and a
 * profiler belongs to at most one live engine at a time.
 */
class Profiler
{
  public:
    /** @param k Dataword length of the profiled ECC word. */
    explicit Profiler(std::size_t k);
    /** The profiler must be detached: its engine died first. */
    virtual ~Profiler();

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** Display name ("Naive", "BEEP", "HARP-U", ...). */
    virtual std::string name() const = 0;

    /** True iff the profiler reads through the decode-bypass path. */
    virtual bool usesBypassPath() const { return false; }

    /**
     * Craft this round's dataword instead of programming the shared
     * suggested pattern (identical across profilers, so comparisons
     * use the same patterns; section 7.1.2).
     *
     * @return true iff the crafted word has been written into @p out
     *         (copy-assignment reuses its capacity); false (the
     *         default) programs the suggested pattern, which lets the
     *         engines share one datapath evaluation between every
     *         such profiler of a round.
     */
    virtual bool craftDataword(gf2::BitVector &out)
    {
        (void)out;
        return false;
    }

    /** Observe the outcome of the round the profiler just programmed. */
    virtual void observe(const RoundObservation &obs) = 0;

    /**
     * Lane-native observation form of observe(), or None (the
     * default). See LaneObserveKind for the contract a non-None kind
     * asserts.
     */
    virtual LaneObserveKind laneObserveKind() const
    {
        return LaneObserveKind::None;
    }

    /**
     * True iff observe() provably changes no state when the read was
     * clean — postCorrectionData equals writtenData and, for bypass
     * profilers, rawData does too. The sliced engine then skips the
     * call (and, when every lane of a slot is clean, the whole
     * post/raw scatter) for clean lanes. Must stay false for
     * profilers with round-counting state (e.g.\ HARP-A+BEEP's
     * stability window advances on clean reads).
     */
    virtual bool cleanObserveIsNoOp() const { return false; }

    /**
     * Data-bit positions currently identified as at risk of
     * post-correction error (the profiler's error profile).
     *
     * While a SlicedProfilerGroup is accumulating this profiler's
     * observations in lane form, reading the profile transparently
     * flushes the group's pending lane state first — so callers see
     * exactly the state scalar observe() calls would have produced,
     * while rounds that nobody inspects never pay a transpose.
     */
    const gf2::BitVector &identified() const
    {
        if (laneGroup_ != nullptr)
            syncLaneState();
        return identified_;
    }

    /** Dataword length of the profiled ECC word. */
    std::size_t k() const { return k_; }

    /** @name Lane-native observation support
     * Internal interface between a profiler and the
     * SlicedProfilerGroup accumulating its observations; not meant for
     * general callers.
     * @{ */

    /** Fold lane-extracted identified bits into the profile (group
     *  flush). */
    void absorbLaneIdentified(const gf2::BitVector &bits)
    {
        identified_ |= bits;
    }

    /** Fold lane-extracted direct-error bits (Bypass kinds); the
     *  default (no direct state) ignores them. */
    virtual void absorbLaneDirect(const gf2::BitVector &bits)
    {
        (void)bits;
    }

    /** Current direct-error state to seed a group's lane accumulator
     *  with, or null when the profiler keeps none. */
    virtual const gf2::BitVector *laneDirectState() const
    {
        return nullptr;
    }

    /**
     * BypassAware only: this lane's direct set grew to @p direct.
     * Implementations absorb the set, refresh their indirect-error
     * predictions, and return the updated prediction vector for the
     * group to fold into the lane's identified state (null = none).
     */
    virtual const gf2::BitVector *laneDirectGrew(const gf2::BitVector &direct)
    {
        (void)direct;
        return nullptr;
    }

    /** @} */

  protected:
    friend class SlicedProfilerGroup;

    /** Flush the attached group's pending lane observations into this
     *  (and its sibling) profilers' members. */
    void syncLaneState() const;

    /** Group currently accumulating this profiler's observations in
     *  lane form; maintained by the group itself. */
    SlicedProfilerGroup *laneGroup_ = nullptr;

    /** Dataword length of the profiled ECC word. */
    std::size_t k_;
    /** Data-bit positions identified as at risk so far. */
    gf2::BitVector identified_;
    /**
     * Reusable scratch vectors for allocation-free observe()
     * implementations (profiling runs observe() millions of times;
     * copy-assignment into these reuses their capacity). Valid only
     * within one observe() call.
     */
    gf2::BitVector scratchA_, scratchB_;
};

} // namespace harp::core

#endif // HARP_CORE_PROFILER_HH
