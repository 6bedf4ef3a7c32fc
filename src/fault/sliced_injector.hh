/**
 * @file
 * Bit-sliced common-random-number fault injection for up to 64 ECC
 * words at once.
 *
 * The scalar profiling loop draws one uniform variate per at-risk cell
 * per round and reuses it for every profiler (the paper's fairness
 * requirement, HARP section 7.1.2). The sliced injector keeps that
 * contract bit-identical — each lane consumes its *own* RNG stream in
 * the exact order WordFaultModel::injectErrorsCrn would — but turns
 * the per-profiler application of the Bernoulli outcomes into a few
 * lane-mask AND/XOR operations: a cell flips iff its trial succeeded
 * *and* it is charged under the codeword that profiler stored.
 */

#ifndef HARP_FAULT_SLICED_INJECTOR_HH
#define HARP_FAULT_SLICED_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "fault/fault_model.hh"
#include "gf2/bit_slice.hh"

namespace harp::fault {

/**
 * Common-random-number fault injector over up to 64 lanes.
 *
 * One WordFaultModel per lane (equal word length n; at-risk cells,
 * probabilities and cell technologies may differ freely). The word
 * length is whatever the engine's ecc::SlicedCode reports — the
 * injector is shared unchanged by the Hamming and BCH datapaths, whose
 * codewords differ in parity width. Per round,
 * drawRound() consumes each lane's RNG exactly as the scalar path
 * would; apply() then flips received bits lane-parallel, any number of
 * times per round (once per profiler).
 */
class SlicedCrnInjector
{
  public:

    /**
     * Build from one fault model per lane (1..64 entries, equal
     * wordBits). The models are only read during construction.
     */
    explicit SlicedCrnInjector(
        const std::vector<const WordFaultModel *> &models);

    /** Codeword length n shared by all lanes. */
    std::size_t wordBits() const { return wordBits_; }

    /**
     * Draw this round's Bernoulli trials: for each lane w, one 64-bit
     * draw from @p rngs[w] per at-risk cell, in ascending cell position
     * order, compared against the cell's common::bernoulliThreshold() —
     * the same stream consumption and outcomes as
     * WordFaultModel::injectErrorsCrn fed from a per-word nextDouble()
     * buffer.
     */
    void drawRound(std::vector<common::Xoshiro256> &rngs);

    /**
     * Flip @p received (n positions) where this round's trial
     * succeeded and the cell is charged under @p stored (n positions):
     * received ^= trial & charged(stored). Uses the trials of the last
     * drawRound(); may be applied to any number of (stored, received)
     * pairs per round.
     */
    void apply(const gf2::BitSlice &stored,
               gf2::BitSlice &received) const;

  private:
    /** One at-risk cell of one lane, flattened lane-major. */
    struct Entry
    {
        std::uint32_t lane = 0;
        std::uint32_t position = 0;
        /** common::bernoulliThreshold() of the cell's probability. */
        std::uint64_t threshold = 0;
    };

    std::size_t wordBits_ = 0;
    std::size_t lanes_ = 0;
    std::vector<Entry> entries_;
    /** Distinct at-risk positions across all lanes, ascending. */
    std::vector<std::uint32_t> touchedPositions_;
    /** Lane mask of AntiCell lanes: charged = stored ^ antiMask. */
    std::uint64_t antiMask_{};
    /** trial_[pos]: lanes whose cell at pos trialed "fail" this round. */
    std::vector<std::uint64_t> trial_;
};

} // namespace harp::fault

#endif // HARP_FAULT_SLICED_INJECTOR_HH
