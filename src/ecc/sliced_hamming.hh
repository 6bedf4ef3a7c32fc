/**
 * @file
 * Bit-sliced evaluation of up to W*64 systematic SEC Hamming codes at
 * once.
 *
 * Parity-check evaluation over GF(2) is pure linear algebra, so with
 * codewords held in transposed gf2::BitSliceW layout (one lane word per
 * codeword position, one lane *bit* per independent ECC word) the whole
 * encode/decode hot path becomes word-parallel:
 *
 *  - encoding: each parity lane is an XOR-reduction of data lanes,
 *    masked by which lanes' codes include that data column;
 *  - syndrome decoding: the corrected-position selection becomes an
 *    AND/XOR mask cascade (lane bit set iff that lane's syndrome equals
 *    that lane's parity column), with no per-word branching.
 *
 * Lanes may carry *different* codes of the same dataword length k,
 * which is what lets the sliced profiling engine batch both
 * coverage-style workloads (a block of words of one code) and
 * case-study-style workloads (distinct random codes per lane). Results
 * are bit-identical to the scalar HammingCode path at every width; W=4
 * retires four 64-lane sub-words per lane-op via the auto-vectorized
 * gf2::LaneVec arithmetic.
 */

#ifndef HARP_ECC_SLICED_HAMMING_HH
#define HARP_ECC_SLICED_HAMMING_HH

#include <cstdint>
#include <vector>

#include "ecc/hamming_code.hh"
#include "ecc/sliced_code.hh"
#include "gf2/bit_slice.hh"
#include "gf2/lane.hh"

namespace harp::ecc {

/**
 * Up to W*64 SEC Hamming codes evaluated lane-parallel.
 *
 * All lanes must share the dataword length k (and therefore the parity
 * count p); the parity-column *arrangements* may differ per lane.
 */
template <std::size_t W>
class SlicedHammingCodeW final : public SlicedCodeW<W>
{
  public:
    using Lane = gf2::LaneOf<W>;

    /**
     * Build from one code per lane (1..W*64 entries, equal k). The
     * codes are only read during construction; no references are
     * retained.
     */
    explicit SlicedHammingCodeW(const std::vector<const HammingCode *> &codes);

    std::size_t k() const override { return k_; }
    /** Codeword length n = k + p (identical across lanes). */
    std::size_t n() const override { return k_ + p_; }
    /** Number of live lanes. */
    std::size_t lanes() const override { return lanes_; }

    /**
     * Encode all lanes: @p data has k positions, @p codeword n
     * positions. Codeword positions [0,k) copy the data lanes,
     * positions [k,n) receive each lane's parity bits.
     */
    void encode(const gf2::BitSliceW<W> &data,
                gf2::BitSliceW<W> &codeword) const override;

    /**
     * Per-lane syndromes of a received codeword slice: @p out[j] gets
     * the lane mask of syndrome bit j (j < p).
     */
    void syndromes(const gf2::BitSliceW<W> &received, Lane *out) const;

    /**
     * Syndrome-decode all lanes to their post-correction *datawords*
     * (@p data_out has k positions). Matches HammingCode::decode
     * exactly on the data bits: a lane whose syndrome equals one of its
     * data columns gets that bit flipped; zero, parity-column and
     * unmatched (shortened-code) syndromes leave the data untouched.
     */
    void decodeData(const gf2::BitSliceW<W> &received,
                    gf2::BitSliceW<W> &data_out) const override;

  private:
    std::size_t k_ = 0;
    std::size_t p_ = 0;
    std::size_t lanes_ = 0;
    /** columnBits_[i * p + j]: lanes whose data column i has bit j set. */
    std::vector<Lane> columnBits_;
};

/** The historical 64-lane name. */
using SlicedHammingCode = SlicedHammingCodeW<1>;
/** The wide 256-lane variant. */
using SlicedHammingCode256 = SlicedHammingCodeW<4>;

extern template class SlicedHammingCodeW<1>;
extern template class SlicedHammingCodeW<4>;

} // namespace harp::ecc

#endif // HARP_ECC_SLICED_HAMMING_HH
