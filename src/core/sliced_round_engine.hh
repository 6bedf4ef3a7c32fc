/**
 * @file
 * Bit-sliced profiling-round engine: 64 independent ECC words per
 * lane-operation.
 *
 * Drop-in sibling of core/round_engine.hh. Each lane simulates one ECC
 * word with its own fault model, data patterns and RNG streams —
 * derived from per-lane seeds with the *same* derivation constants as
 * the scalar RoundEngine, so every per-word outcome (written /
 * post-correction / raw data, and therefore every profiler's
 * identified set) is bit-identical to running 64 scalar engines. What
 * changes is the cost: the encode -> inject -> syndrome-decode
 * datapath runs on transposed gf2::BitSlice lanes, retiring 64
 * profiling rounds per word-op instead of one.
 *
 * The engine is code-agnostic: it drives any ecc::SlicedCode
 * implementation — sliced SEC Hamming (per-lane column arrangements
 * may differ) or sliced t-error BCH (memoized syndrome decoding) —
 * with a convenience constructor for SEC Hamming lanes.
 *
 * Observation dispatch is per slot (slot s of every lane is driven
 * together):
 *
 *  - Slots whose profilers share a lane-native observe form
 *    (core/sliced_profiler_group.hh) never leave transposed layout —
 *    the slot consumes the suggested-pattern datapath slices directly,
 *    one XOR+OR per bit position for all 64 words, and the post/raw
 *    scatters are elided entirely. Profile extraction transposes once
 *    on demand (reading identified() flushes), not once per round.
 *  - Crafting slots (BEEP, HARP-A+BEEP) keep the scalar path: per-lane
 *    craftDataword() calls, a sliced datapath over the gathered lanes,
 *    one scatter pair, and per-lane virtual observe() calls.
 *  - Scalar slots that programmed the suggested pattern verbatim in
 *    every lane share a single suggested-datapath evaluation per round
 *    (common random numbers fix the trials within a round), with the
 *    post/raw scatters materialized lazily at most once per round.
 *
 * The Stats counters witness the elision (tests assert that pure
 * lane-native rounds perform zero scatters and zero scalar observes),
 * and an optional EnginePhaseSeconds sink splits wall time into
 * setup / datapath / observe phases for the perf experiments.
 */

#ifndef HARP_CORE_SLICED_ROUND_ENGINE_HH
#define HARP_CORE_SLICED_ROUND_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "core/data_pattern.hh"
#include "core/engine_phase.hh"
#include "core/profiler.hh"
#include "core/sliced_profiler_group.hh"
#include "ecc/hamming_code.hh"
#include "ecc/sliced_code.hh"
#include "fault/sliced_injector.hh"
#include "gf2/bit_slice.hh"

namespace harp::core {

/**
 * Executes profiling rounds for up to 64 simulated ECC words at once.
 */
class SlicedRoundEngine
{
  public:

    /**
     * Generic form over any sliced code block: @p code must outlive
     * the engine and may be *shared* by several engines (e.g.
     * consecutive blocks of one BCH workload filling one syndrome
     * memo — but not concurrently; see ecc/sliced_bch.hh, whose
     * copies share the memo thread-safely).
     * The engine drives faults.size() lanes, which may be fewer than
     * code.lanes(): surplus code lanes stay zeroed by gather() and
     * cost nothing.
     *
     * @param code      The lanes' sliced ECC datapath.
     * @param faults    One fault model per live lane (word length n).
     * @param pattern   Shared data-pattern policy for non-crafting
     *                  profilers.
     * @param seeds     One seed per lane, used exactly as RoundEngine
     *                  uses its seed (same child-stream derivation).
     * @param profilers profilers[w] is lane w's profiler set; every
     *                  lane passes the same number of profilers, each
     *                  with the code's k (slot s of every lane is
     *                  driven together). The profilers must outlive
     *                  the engine and belong to no other live engine.
     *
     * Throws std::invalid_argument on inconsistent lane counts, a
     * ragged or wrong-k profiler set, or a profiler already bound to
     * a live engine's observer group.
     */
    SlicedRoundEngine(
        const ecc::SlicedCode &code,
        const std::vector<const fault::WordFaultModel *> &faults,
        PatternKind pattern, const std::vector<std::uint64_t> &seeds,
        std::vector<std::vector<Profiler *>> profilers);

    /** Convenience over SEC Hamming lanes (1..64 codes, one per
     *  fault model, equal k; the arrangements may differ, so
     *  heterogeneous-code workloads like the Fig. 10 case study slice
     *  too). */
    SlicedRoundEngine(
        const std::vector<const ecc::HammingCode *> &codes,
        const std::vector<const fault::WordFaultModel *> &faults,
        PatternKind pattern, const std::vector<std::uint64_t> &seeds,
        std::vector<std::vector<Profiler *>> profilers);

    /** Destroying the engine flushes and detaches every lane-native
     *  observer group, so profiles read afterwards are complete. */
    ~SlicedRoundEngine() = default;

    /** Number of live lanes (simulated words). */
    std::size_t lanes() const { return lanes_; }

    /** Run one profiling round for every lane's bound profilers. */
    void runRound();

    /** Number of rounds executed so far. */
    std::size_t roundsRun() const { return round_; }

    /**
     * Observation-path instrumentation: witnesses that lane-native
     * slots really elide the per-round transposes and virtual calls.
     */
    struct Stats
    {
        /** Slot-rounds observed lane-natively (no scatter, no virtual
         *  observe). */
        std::uint64_t laneObserveSlotRounds = 0;
        /** Scalar observe() calls (crafting or mixed slots). */
        std::uint64_t scalarObserveCalls = 0;
        /** Scalar observe() calls skipped because the lane's read was
         *  clean and the profiler declared clean observes no-ops. */
        std::uint64_t cleanObserveSkips = 0;
        /** Post-correction slice scatters (k-position transposes). */
        std::uint64_t postScatters = 0;
        /** Raw (decode-bypass) slice scatters. */
        std::uint64_t rawScatters = 0;
        /** Suggested-pattern datapath evaluations (<= 1 per round). */
        std::uint64_t suggestedDatapathRuns = 0;
        /** Per-slot datapath evaluations for non-verbatim slots. */
        std::uint64_t mixedDatapathRuns = 0;
    };

    const Stats &stats() const { return stats_; }

    /** Attach a per-phase wall-time sink (null disables; the default).
     *  See core/engine_phase.hh. */
    void setPhaseSink(EnginePhaseSeconds *sink) { phases_ = sink; }

  private:
    /** The Hamming convenience form: owns its datapath in hamming_. */
    SlicedRoundEngine(
        std::unique_ptr<const ecc::SlicedCode> hamming,
        const std::vector<const fault::WordFaultModel *> &faults,
        PatternKind pattern, const std::vector<std::uint64_t> &seeds,
        std::vector<std::vector<Profiler *>> profilers);

    const ecc::SlicedCode *code_;
    /** Set by the Hamming convenience constructor; null when the
     *  caller owns (and may share) the datapath. */
    std::unique_ptr<const ecc::SlicedCode> hamming_;
    std::size_t lanes_;
    std::size_t k_;
    fault::SlicedCrnInjector injector_;
    std::vector<PatternGenerator> patterns_;
    std::vector<common::Xoshiro256> crnRngs_;
    /** profilers_[w][s]: lane w's slot-s profiler. */
    std::vector<std::vector<Profiler *>> profilers_;

    /** Run gather -> encode -> inject -> decode for one profiler
     *  slot's chosen datawords into the mixed-slot slices
     *  (written_/post_/received_); the caller scatters whatever the
     *  slot's observers actually read. */
    void runDatapath(const std::vector<gf2::BitVector> &written);

    /** Where a scalar slot's observations come from: a datapath's
     *  slices, the lanes' written datawords, the buffers the slices
     *  scatter into, and whether those hold the slices' outcome yet. */
    struct ScalarSource
    {
        const gf2::BitSlice &written, &post, &received;
        const std::vector<const gf2::BitVector *> &writtenViews;
        std::vector<gf2::BitVector> &postVec, &rawVec;
        bool postScattered = false, rawScattered = false;
    };

    /** Feed scalar slot @p s the observations in @p src: scatter what
     *  its profilers read (once per source) and call observe() on
     *  every lane whose read a clean-no-op slot cannot skip. */
    void observeScalarSlot(std::size_t s, ScalarSource &src);

    /** Evaluate the suggested pattern's datapath into the dedicated
     *  suggested slices (sWritten_/sPost_/sReceived_), which stay
     *  valid for the rest of the round while mixed slots reuse the
     *  engine scratch. */
    void runSuggestedDatapath();

    // Round-persistent scratch: no allocations on the hot path.
    gf2::BitSlice written_;
    gf2::BitSlice stored_;
    gf2::BitSlice received_;
    gf2::BitSlice post_;
    /** Suggested-pattern datapath slices, computed at most once per
     *  round and consumed in transposed form by every lane-native slot
     *  (and scattered lazily for scalar verbatim slots). */
    gf2::BitSlice sWritten_;
    gf2::BitSlice sReceived_;
    gf2::BitSlice sPost_;
    /** Per-lane zero-copy views of the round's suggested pattern
     *  (PatternGenerator::patternView): consumed by the gather and
     *  verbatim observations without materializing per-round
     *  copies. */
    std::vector<const gf2::BitVector *> suggestedViews_;
    std::vector<gf2::BitVector> writtenVec_;
    /** &writtenVec_[w] per lane: the mixed slots' written views. */
    std::vector<const gf2::BitVector *> writtenViews_;
    std::vector<gf2::BitVector> postVec_;
    std::vector<gf2::BitVector> rawVec_;
    /** Scalar materialization of the suggested datapath outcome,
     *  scattered at most once per round and shared by every scalar
     *  slot that programs the suggested word verbatim (the CRN trials
     *  are fixed within a round, so those slots see identical
     *  observations). */
    std::vector<gf2::BitVector> postSuggestedVec_;
    std::vector<gf2::BitVector> rawSuggestedVec_;

    /** Lane-native observer per slot (null = scalar slot). */
    std::vector<std::unique_ptr<SlicedProfilerGroup>> groups_;
    /** Per scalar slot: every lane's profiler declared clean observes
     *  no-ops, enabling the clean-lane elision. */
    std::vector<char> slotCleanNoOp_;
    /** Per slot: any lane's profiler reads the decode-bypass path. */
    std::vector<char> slotNeedsRaw_;
    /** Mask of live lanes (dead-lane slice bits are garbage). */
    std::uint64_t liveMask_ = 0;

    Stats stats_;
    EnginePhaseSeconds *phases_ = nullptr;

    std::size_t round_ = 0;
};

} // namespace harp::core

#endif // HARP_CORE_SLICED_ROUND_ENGINE_HH
