/**
 * @file
 * General t-error-correcting shortened systematic binary BCH code with a
 * Berlekamp-Massey + Chien-search decoder.
 *
 * Serves the paper's "significantly more complex on-die ECC" discussion
 * (HARP section 6.3.2): the secondary-ECC strength a system needs
 * scales with the on-die code's correction capability, and this class
 * provides the arbitrary-t codes to study that scaling. The closed-form
 * t=2 decoder in tests/support/bch_dec_code.hh is its test oracle.
 *
 * The decode hot path is allocation-free: syndromes come from a
 * precomputed per-coefficient alpha-power table, the Berlekamp-Massey
 * and Chien stages run on reusable member scratch, and decodeInto()
 * writes into a caller-owned result whose buffers persist across
 * calls. Because that scratch is per-instance, decoding the *same*
 * BchCode object from multiple threads requires external
 * synchronization — give each concurrently-driven word its own copy
 * (the class is cheaply copyable).
 */

#ifndef HARP_ECC_BCH_GENERAL_HH
#define HARP_ECC_BCH_GENERAL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "ecc/gf2m.hh"
#include "gf2/bit_vector.hh"

namespace harp::ecc {

/** Outcome of one general-BCH decode. */
struct BchGeneralDecodeResult
{
    /** Post-correction dataword d' (length k). */
    gf2::BitVector dataword;
    /** Codeword positions flipped by the decoder (<= t, sorted). */
    std::vector<std::size_t> correctedPositions;
    /** True when the syndromes were inconsistent with <= t in-range
     *  errors; no correction is applied. */
    bool detectedUncorrectable = false;
};

/**
 * Shortened systematic BCH code correcting up to @p t errors.
 */
class BchCode
{
  public:
    /**
     * @param k Dataword length.
     * @param t Correction capability (1 <= t <= 8). The field degree m
     *          is the smallest giving the shortened code room for the
     *          data plus the generator's parity bits.
     */
    BchCode(std::size_t k, std::size_t t);

    std::size_t k() const { return k_; }
    std::size_t p() const { return parityBits_; }
    std::size_t n() const { return k_ + parityBits_; }
    std::size_t t() const { return t_; }

    const Gf2m &field() const { return field_; }

    bool isDataPosition(std::size_t pos) const { return pos < k_; }

    /** Encode dataword (length k) into codeword (length n). */
    gf2::BitVector encode(const gf2::BitVector &dataword) const;

    /** Allocation-free encode into a pre-sized codeword (length n). */
    void encodeInto(const gf2::BitVector &dataword,
                    gf2::BitVector &codeword) const;

    /** Full decode: syndromes -> Berlekamp-Massey -> Chien search. */
    BchGeneralDecodeResult decode(const gf2::BitVector &codeword) const;

    /**
     * Allocation-free decode into a reusable result object: after the
     * first call with the same @p result, steady state performs no
     * heap allocation (scratch lives in the code instance and the
     * result's buffers are reused). Not thread-safe on a shared
     * instance — see the file comment.
     */
    void decodeInto(const gf2::BitVector &codeword,
                    BchGeneralDecodeResult &result) const;

    /** Post-correction data error positions of a raw error pattern. */
    std::vector<std::size_t>
    decodeErrorPattern(const std::vector<std::size_t> &error_positions)
        const;

    /** Parity bit @p j as a linear function of the dataword. */
    const gf2::BitVector &parityRow(std::size_t j) const
    {
        return parityRows_[j];
    }

    /** Generator polynomial g(x) as a GF(2) bitmask. */
    std::uint64_t generatorPolynomial() const { return generator_; }

    /**
     * Polynomial-coefficient index of codeword position @p pos: data
     * positions map to the high coefficients, parity positions to the
     * low ones (systematic layout over x^p * d(x) + q(x)).
     */
    std::size_t coefficientOf(std::size_t pos) const;

    /** Codeword position of coefficient @p coeff; nullopt when the
     *  coefficient lies outside the shortened code. */
    std::optional<std::size_t> positionOf(std::size_t coeff) const;

  private:
    /**
     * Berlekamp-Massey over the member syndrome scratch: fills
     * lambdaScratch_ with the error-locator polynomial. False when the
     * register length exceeds t (more than t errors signalled).
     */
    bool berlekampMassey() const;

    /**
     * Chien search over lambdaScratch_: fills rootsScratch_ with the
     * coefficient indices i < n where Lambda(alpha^-i) = 0. False when
     * the root count does not match deg Lambda (errors outside the
     * shortened range or a degenerate locator).
     */
    bool chienSearch() const;

    std::size_t k_;
    std::size_t t_;
    Gf2m field_;
    std::size_t parityBits_;
    std::uint64_t generator_;
    std::vector<std::uint64_t> parityMasks_;
    std::vector<gf2::BitVector> parityRows_;
    /** synAlpha_[c * 2t + j] = alpha^((j+1) * c) for coefficient c < n:
     *  the syndrome contribution of an error at coefficient c. */
    std::vector<Gf2m::Element> synAlpha_;

    // Decode scratch (see the thread-safety note in the file comment).
    mutable std::vector<Gf2m::Element> synScratch_;
    mutable std::vector<Gf2m::Element> lambdaScratch_;
    mutable std::vector<Gf2m::Element> bScratch_;
    mutable std::vector<Gf2m::Element> nextScratch_;
    mutable std::vector<std::size_t> rootsScratch_;
};

} // namespace harp::ecc

#endif // HARP_ECC_BCH_GENERAL_HH
