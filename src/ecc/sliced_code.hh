/**
 * @file
 * Code-agnostic interface of the bit-sliced ECC datapath.
 *
 * The sliced round engine (core/sliced_round_engine.hh) drives the
 * encode -> inject -> decode hot path over transposed gf2::BitSlice
 * lane blocks: one lane word per codeword position, one lane *bit* per
 * independent ECC word (up to 64 words per block). Any code family
 * whose encode and syndrome evaluation are GF(2)-linear can implement
 * this interface and ride that datapath — SEC Hamming and SECDED
 * extended Hamming (ecc/sliced_hamming.hh) resolve corrections with a
 * branchless column-match mask cascade, while t-error BCH
 * (ecc/sliced_bch.hh) resolves them through a syndrome -> decode-action
 * memo table backed by the scalar Berlekamp-Massey decoder.
 *
 * Contract shared by all implementations: lanes() words are
 * simulated per block, every lane shares the dataword length k() and
 * codeword length n(), and decodeData() is bit-identical per lane to
 * the matching scalar decoder's post-correction dataword.
 */

#ifndef HARP_ECC_SLICED_CODE_HH
#define HARP_ECC_SLICED_CODE_HH

#include <cstddef>

#include "gf2/bit_slice.hh"

namespace harp::ecc {

/**
 * Up to 64 ECC words of one code family evaluated lane-parallel.
 */
class SlicedCode
{
  public:
    virtual ~SlicedCode() = default;

    /** Dataword length shared by every lane. */
    virtual std::size_t k() const = 0;
    /** Codeword length shared by every lane. */
    virtual std::size_t n() const = 0;
    /** Number of live lanes (1..64). */
    virtual std::size_t lanes() const = 0;

    /**
     * Encode all lanes: @p data has k() positions, @p codeword n()
     * positions. Codeword positions [0, k) copy the data lanes (all
     * implementations are systematic), positions [k, n) receive each
     * lane's parity bits.
     */
    virtual void encode(const gf2::BitSlice &data,
                        gf2::BitSlice &codeword) const = 0;

    /**
     * Syndrome-decode all lanes to their post-correction *datawords*
     * (@p data_out has k() positions), matching the scalar decoder of
     * the lane's code exactly on the data bits: detected-uncorrectable
     * lanes keep the uncorrected data.
     */
    virtual void decodeData(const gf2::BitSlice &received,
                            gf2::BitSlice &data_out) const = 0;
};

} // namespace harp::ecc

#endif // HARP_ECC_SLICED_CODE_HH
