/**
 * @file
 * BEEP baseline profiler (HARP section 7.1.1; algorithm from the BEER
 * paper, Patel et al., MICRO 2020).
 *
 * BEEP knows the on-die ECC parity-check matrix (e.g.\ from BEER reverse
 * engineering) but has no visibility into pre-correction errors. It uses
 * random data patterns until the first post-correction error is confirmed;
 * thereafter it crafts data patterns that charge all currently-suspected
 * at-risk cells plus one probe cell, chosen round-robin, so hypothesized
 * failure combinations produce observable miscorrections. Pattern crafting
 * solves the cell-charge constraints as an affine GF(2) system (the same
 * queries the original artifact posed to a SAT solver).
 */

#ifndef HARP_CORE_BEEP_PROFILER_HH
#define HARP_CORE_BEEP_PROFILER_HH

#include <set>
#include <vector>

#include "core/profiler.hh"
#include "ecc/hamming_code.hh"

namespace harp::core {

/**
 * BEEP: SAT-crafted-pattern profiler with parity-check matrix knowledge.
 */
class BeepProfiler : public Profiler
{
  public:
    explicit BeepProfiler(const ecc::HammingCode &code);

    std::string name() const override { return "BEEP"; }

    bool craftDataword(gf2::BitVector &out) override;

    void observe(const RoundObservation &obs) override;

    /** BEEP learns nothing from a clean read: observe() returns
     *  before touching any state when written == post. */
    bool cleanObserveIsNoOp() const override { return true; }

    /** Codeword positions currently believed to be at risk of
     *  pre-correction error (the crafted patterns charge these). */
    const std::set<std::size_t> &suspectedCells() const
    {
        return suspected_;
    }

    /**
     * Seed the suspect set with externally-known at-risk cells (used by
     * HARP-A+BEEP, which feeds BEEP the direct errors found via the
     * bypass path).
     */
    void addSuspectedCell(std::size_t codeword_position);

  protected:
    /** Update the identified set with miscorrection targets computable
     *  from the current suspect set. */
    void precomputeFromSuspects();

    /**
     * precomputeFromSuspects() iff the suspect set grew since the last
     * recompute. Crafted patterns and miscorrection targets are pure
     * functions of the suspect set, so skipping the recompute (and
     * caching craftPattern() results per probe until the set grows) is
     * output-identical — the suspect set stabilizes after the first few
     * error observations, turning BEEP's per-round work into cache
     * lookups.
     */
    void precomputeIfSuspectsChanged();

    const ecc::HammingCode &code_;
    std::set<std::size_t> suspected_;
    /** Bitmask mirror of suspected_ for O(1) membership tests on the
     *  per-round hot path (the set stays the public/API view). */
    gf2::BitVector suspectedMask_;
    std::size_t probeCursor_ = 0;
    bool observedAnyError_ = false;

  private:
    /** Bumped whenever suspected_ actually grows. */
    std::size_t suspectsVersion_ = 0;
    /** suspectsVersion_ at the last precomputeFromSuspects(). */
    std::size_t precomputedVersion_ = 0;
    /** Rebuild the per-version crafting state below; called whenever
     *  the suspect set grew since the last rebuild. */
    void rebuildCraftMasks();

    /** suspectsVersion_ the crafting masks were built for. */
    std::size_t craftCacheVersion_ = 0;
    /**
     * Per-version crafting state. Every crafted pattern of one
     * suspect-set version is the shared base word (all suspected data
     * cells charged) plus at most one probe bit, and its feasibility
     * is a per-probe bit in a precomputed mask: parity suspect c
     * demands parityRow(c-k).word == 1, and for a data probe i,
     * parityRow.(base ^ e_i) = parityRow.base ^ parityRow[i] — so
     * each parity suspect contributes one AND with (row or ~row).
     * This replaces the per-probe craft cache (a vector of cached
     * BitVectors rebuilt on every suspect growth) with O(p) vector ops
     * per version and two word-ops per round, which removed the
     * crafting slot as the sliced engine's dominant cost.
     */
    gf2::BitVector craftBase_;
    /** Bit i: data probe i satisfies every parity-suspect constraint. */
    gf2::BitVector craftFeasData_;
    /** Bit j: parity probe k+j is feasible (base satisfies all parity
     *  suspects and charges parity cell j). */
    gf2::BitVector craftFeasParity_;

    /**
     * Achievable-syndrome sets over the 2^p syndrome space, maintained
     * incrementally as suspects arrive (one bit per syndrome value):
     * reach1_ holds the suspects' own columns (single-cell syndromes),
     * reach2_ the XOR of every suspect subset of size >= 2 — exactly
     * the uncorrectable combinations precomputeFromSuspects() mines
     * for miscorrection targets. Updating on a new column v is three
     * bitset ops (reach2 |= reach2^v | reach1^v; reach1 |= {v}), which
     * replaces the previous O(2^suspects) subset enumeration.
     */
    std::vector<std::uint64_t> reach1_, reach2_;
    /** Columns of suspects not yet folded into reach1_/reach2_. */
    std::vector<std::uint32_t> pendingColumns_;
};

} // namespace harp::core

#endif // HARP_CORE_BEEP_PROFILER_HH
