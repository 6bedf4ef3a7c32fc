/**
 * @file
 * Double-error-correcting (DEC) binary BCH code with systematic
 * encoding, shortened to an arbitrary dataword length, decoded in
 * closed form. It is the independent test oracle for ecc::BchCode(k, 2):
 * both use the same generator, and their decode outcomes must agree
 * (tests/ecc/test_bch_general.cc).
 *
 * Codeword layout matches the repository convention: positions [0, k)
 * are data bits, positions [k, k+p) are parity bits (p = 2m for BCH over
 * GF(2^m)). Internally data bit i is polynomial coefficient x^(p+i) and
 * parity bit j is coefficient x^j of a code polynomial divisible by the
 * generator g(x) = m1(x) · m3(x).
 */

#ifndef HARP_TESTS_SUPPORT_BCH_DEC_CODE_HH
#define HARP_TESTS_SUPPORT_BCH_DEC_CODE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "ecc/gf2m.hh"
#include "gf2/bit_vector.hh"

namespace harp::ecc {

/** Outcome of one DEC BCH decode. */
struct BchDecodeResult
{
    /** Post-correction dataword d' (length k). */
    gf2::BitVector dataword;
    /** Codeword positions the decoder flipped (0, 1 or 2 entries). */
    std::vector<std::size_t> correctedPositions;
    /** True when the syndromes were inconsistent with <= 2 in-range
     *  errors; the decoder then performs no correction. */
    bool detectedUncorrectable = false;
};

/**
 * Shortened systematic DEC BCH code over GF(2^m).
 */
class BchDecCode
{
  public:
    /**
     * Build a DEC BCH code for @p k data bits. The field degree m is
     * the smallest with 2^m - 1 - 2m >= k (m = 7 for the (78,64)
     * configuration mirroring the paper's 64-bit on-die ECC words).
     */
    explicit BchDecCode(std::size_t k);

    std::size_t k() const { return k_; }
    /** Parity-bit count p = 2m. */
    std::size_t p() const { return parityBits_; }
    std::size_t n() const { return k_ + parityBits_; }
    /** Correction capability t = 2. */
    static constexpr std::size_t correctionCapability() { return 2; }

    const Gf2m &field() const { return field_; }

    bool isDataPosition(std::size_t pos) const { return pos < k_; }

    /** Encode dataword (length k) into codeword (length n). */
    gf2::BitVector encode(const gf2::BitVector &dataword) const;

    /** Syndrome decode with up-to-two-error correction. */
    BchDecodeResult decode(const gf2::BitVector &codeword) const;

    /**
     * Post-correction *data* error positions produced by a raw error
     * pattern (valid for any linear code: decode the error vector
     * against the zero codeword). Used by the at-risk analyses.
     */
    std::vector<std::size_t>
    decodeErrorPattern(const std::vector<std::size_t> &error_positions)
        const;

    /**
     * Parity row @p j as a length-k vector over the dataword: parity bit
     * j of the codeword equals row · d (parity is linear in the data).
     */
    const gf2::BitVector &parityRow(std::size_t j) const
    {
        return parityRows_[j];
    }

    /** Generator polynomial g(x) as a GF(2) bitmask (bit i = coeff x^i). */
    std::uint64_t generatorPolynomial() const { return generator_; }

  private:
    /** Polynomial coefficient index of codeword position @p pos. */
    std::size_t coefficientOf(std::size_t pos) const;
    /** Codeword position of polynomial coefficient @p coeff, if it maps
     *  into the shortened code. */
    std::optional<std::size_t> positionOf(std::size_t coeff) const;

    /** Syndromes (S1, S3) of a set of flipped coefficient indices. */
    void syndromesOf(const std::vector<std::size_t> &coeffs,
                     Gf2m::Element &s1, Gf2m::Element &s3) const;

    /** Error-coefficient candidates (<= 2) for syndromes (S1, S3);
     *  nullopt when inconsistent with <= 2 in-range errors. */
    std::optional<std::vector<std::size_t>>
    locateErrors(Gf2m::Element s1, Gf2m::Element s3) const;

    std::size_t k_;
    Gf2m field_;
    std::size_t parityBits_;
    std::uint64_t generator_;
    /** x^(p+i) mod g(x) for data bit i, as a p-bit parity mask. */
    std::vector<std::uint32_t> parityMasks_;
    std::vector<gf2::BitVector> parityRows_;
    /** Per codeword position: alpha^coeff and alpha^(3*coeff). */
    std::vector<Gf2m::Element> alphaPow_;
    std::vector<Gf2m::Element> alpha3Pow_;
};

} // namespace harp::ecc

#endif // HARP_TESTS_SUPPORT_BCH_DEC_CODE_HH
