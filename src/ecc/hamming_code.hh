/**
 * @file
 * Systematic single-error-correcting (SEC) Hamming codes, the on-die ECC
 * used by the paper's evaluation ((71,64) and (136,128) configurations;
 * HARP section 2.5).
 *
 * Codeword layout: positions [0, k) are the systematically-encoded data
 * bits, positions [k, k+p) are the parity-check bits. The parity-check
 * matrix H therefore has the form [P | I_p], and encoding computes
 * q = P·d.
 */

#ifndef HARP_ECC_HAMMING_CODE_HH
#define HARP_ECC_HAMMING_CODE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "gf2/bit_matrix.hh"
#include "gf2/bit_vector.hh"

namespace harp::ecc {

/** Outcome of one syndrome-decode operation. */
struct DecodeResult
{
    /** Post-correction dataword d' (length k). */
    gf2::BitVector dataword;
    /** Codeword position the decoder flipped, if any (data or parity). */
    std::optional<std::size_t> correctedPosition;
    /**
     * True when the syndrome was nonzero but matched no column — possible
     * only for shortened codes, where the decoder performs no correction.
     */
    bool detectedUncorrectable = false;
    /** Raw syndrome value for diagnostics/analysis. */
    std::uint32_t syndrome = 0;
};

/**
 * A systematic SEC Hamming code with configurable parity-column layout.
 *
 * Supports the design degrees of freedom the paper discusses (section
 * 2.5.2): any arrangement of distinct, nonzero, non-identity columns for
 * the data bits defines a valid code, and different arrangements yield
 * different miscorrection behaviour.
 */
class HammingCode
{
  public:
    /**
     * Construct from explicit data parity-columns.
     *
     * @param k         Number of data bits.
     * @param data_cols k distinct p-bit column values, each of weight ≥ 2.
     */
    HammingCode(std::size_t k, std::vector<std::uint32_t> data_cols);

    /**
     * Generate a uniformly random systematic SEC Hamming code, mirroring
     * the paper's randomly-generated parity-check matrices (section 7.1.2).
     *
     * @param k   Dataword length (e.g.\ 64 or 128).
     * @param rng Random source; determines the column arrangement.
     */
    static HammingCode randomSec(std::size_t k, common::Xoshiro256 &rng);

    /** Minimal parity-bit count for a SEC code over @p k data bits. */
    static std::size_t minParityBits(std::size_t k);

    std::size_t k() const { return k_; }
    std::size_t p() const { return p_; }
    /** Codeword length n = k + p. */
    std::size_t n() const { return k_ + p_; }

    /** Parity column of data bit @p i (p-bit value). */
    std::uint32_t dataColumn(std::size_t i) const { return dataCols_[i]; }

    /** Parity-check column of codeword position @p pos (data or parity). */
    std::uint32_t codewordColumn(std::size_t pos) const;

    /** True iff @p pos indexes a data bit (systematic region). */
    bool isDataPosition(std::size_t pos) const { return pos < k_; }

    /** Encode dataword (length k) into codeword (length n). */
    gf2::BitVector encode(const gf2::BitVector &dataword) const;

    /** Allocation-free encode into a pre-sized codeword (length n). */
    void encodeInto(const gf2::BitVector &dataword,
                    gf2::BitVector &codeword) const;

    /**
     * Allocation-free post-correction dataword of @p received into
     * @p data_out (pre-sized k): exactly decode().dataword — only
     * data-position corrections change the dataword; parity
     * corrections and unmatched (shortened-code) syndromes do not.
     */
    void decodeDataInto(const gf2::BitVector &received,
                        gf2::BitVector &data_out) const
    {
        correctDataInto(received, syndrome(received), data_out);
    }

    /**
     * decodeDataInto() for a caller that already knows the syndrome
     * of @p received (a memory chip that keeps it current on every
     * write and cell flip).
     */
    void correctDataInto(const gf2::BitVector &received,
                         std::uint32_t syndrome,
                         gf2::BitVector &data_out) const;

    /** Syndrome of a (possibly erroneous) codeword. */
    std::uint32_t syndrome(const gf2::BitVector &codeword) const
    {
        return syndrome(codeword, codeword, k_);
    }

    /**
     * Syndrome of a word held in two pieces, neither copied: the data
     * bits are the first k of @p data, and parity bit j is bit
     * @p parity_offset + j of @p parity.
     */
    std::uint32_t syndrome(const gf2::BitVector &data,
                           const gf2::BitVector &parity,
                           std::size_t parity_offset) const;

    /** Syndrome of an error pattern given by set positions. */
    std::uint32_t
    syndromeOfErrors(const std::vector<std::size_t> &positions) const;

    /** Codeword position a syndrome corrects, if it matches any column. */
    std::optional<std::size_t>
    syndromeToPosition(std::uint32_t syndrome) const;

    /** Full syndrome decode of a (possibly erroneous) codeword. */
    DecodeResult decode(const gf2::BitVector &codeword) const;

    /** Parity-check matrix H = [P | I_p] as a p × n BitMatrix. */
    gf2::BitMatrix parityCheckMatrix() const;

    /** Generator matrix G = [I_k ; P] as an n × k BitMatrix (c = G·d). */
    gf2::BitMatrix generatorMatrix() const;

    /**
     * Parity row @p j as a length-k vector over the dataword: parity bit j
     * of the codeword equals row · d. Used by analyses that treat cell
     * charge states as affine functions of the dataword.
     */
    const gf2::BitVector &parityRow(std::size_t j) const
    {
        return parityRows_[j];
    }

    bool operator==(const HammingCode &other) const
    {
        return k_ == other.k_ && dataCols_ == other.dataCols_;
    }

  private:
    std::size_t k_;
    std::size_t p_;
    std::vector<std::uint32_t> dataCols_;
    /** parityRows_[j].get(i) == bit j of dataCols_[i]. */
    std::vector<gf2::BitVector> parityRows_;
    /** syndrome (< 2^p) -> codeword position, or -1 when unmatched. */
    std::vector<std::int32_t> syndromeMap_;
};

} // namespace harp::ecc

#endif // HARP_ECC_HAMMING_CODE_HH
