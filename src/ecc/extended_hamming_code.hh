/**
 * @file
 * Extended Hamming (SECDED) code used as the memory controller's secondary
 * ECC during HARP's reactive profiling phase (HARP section 6.3).
 *
 * Corrects any single error and *detects* (without miscorrecting) any
 * double error, which is what makes reactive identification of indirect
 * errors "safe" once active profiling has achieved full direct coverage.
 */

#ifndef HARP_ECC_EXTENDED_HAMMING_CODE_HH
#define HARP_ECC_EXTENDED_HAMMING_CODE_HH

#include <cstdint>
#include <optional>

#include "ecc/hamming_code.hh"

namespace harp::ecc {

/** Classification of one secondary-ECC decode. */
enum class SecondaryDecodeStatus
{
    NoError,             ///< Clean word.
    CorrectedSingle,     ///< One error corrected (position reported).
    DetectedUncorrectable ///< ≥2 errors detected; data not trustworthy.
};

/** Outcome of a secondary-ECC decode. */
struct SecondaryDecodeResult
{
    SecondaryDecodeStatus status = SecondaryDecodeStatus::NoError;
    /** Corrected codeword position (data or check bit) when status is
     *  CorrectedSingle. */
    std::optional<std::size_t> correctedPosition;
    /** Post-correction dataword. Valid unless status is
     *  DetectedUncorrectable. */
    gf2::BitVector dataword;
};

/** Status and corrected position of one secondary decode, without
 *  the dataword: what the decode core returns. */
struct SecondaryClassification
{
    SecondaryDecodeStatus status = SecondaryDecodeStatus::NoError;
    /** Corrected codeword position when status is CorrectedSingle. */
    std::optional<std::size_t> correctedPosition;
};

/**
 * SECDED code: an inner SEC Hamming code plus one overall parity bit.
 *
 * Codeword layout: [data (k) | inner parity (p) | overall parity (1)].
 * The check bits are the last checkBits() positions; a memory
 * controller keeps them apart from the data, so the decode core takes
 * the two pieces separately.
 */
class ExtendedHammingCode
{
  public:
    /** Build over an inner SEC code (takes a copy). */
    explicit ExtendedHammingCode(HammingCode inner);

    /** Random SECDED instance over @p k data bits. */
    static ExtendedHammingCode randomSecDed(std::size_t k,
                                            common::Xoshiro256 &rng);

    std::size_t k() const { return inner_.k(); }
    /** Check-bit count including the overall parity bit. */
    std::size_t checkBits() const { return inner_.p() + 1; }
    std::size_t n() const { return inner_.n() + 1; }

    const HammingCode &inner() const { return inner_; }

    /** Encode a dataword into a SECDED codeword. */
    gf2::BitVector encode(const gf2::BitVector &dataword) const;

    /** Check bits [inner parity | overall parity] of @p dataword into
     *  @p check (pre-sized checkBits()); no codeword is built. */
    void encodeCheckBitsInto(const gf2::BitVector &dataword,
                             gf2::BitVector &check) const;

    /**
     * The decode core: classify the word made of @p data (k bits) and
     * @p check (checkBits() bits) with single-correction /
     * double-detection semantics. The inner syndrome comes from the
     * parity-row dots, the overall parity from popcounts; nothing is
     * copied.
     */
    SecondaryClassification classify(const gf2::BitVector &data,
                                     const gf2::BitVector &check) const;

    /** Decode an assembled codeword (split, then classify()). */
    SecondaryDecodeResult decode(const gf2::BitVector &codeword) const;

  private:
    HammingCode inner_;
};

} // namespace harp::ecc

#endif // HARP_ECC_EXTENDED_HAMMING_CODE_HH
