/**
 * @file
 * The error profile: the list of bits known to be at risk of
 * post-correction error, maintained by the profilers and consumed by the
 * repair mechanism (HARP Fig. 1/5).
 */

#ifndef HARP_MEMSYS_ERROR_PROFILE_HH
#define HARP_MEMSYS_ERROR_PROFILE_HH

#include <cstddef>
#include <vector>

#include "gf2/bit_vector.hh"

namespace harp::mem {

/**
 * Bit-granularity error profile over an array of ECC words.
 *
 * Stores one bitmap of profiled (at-risk) data-bit positions per word.
 */
class ErrorProfile
{
  public:
    /**
     * @param num_words Number of ECC words covered.
     * @param word_bits Dataword length (profiled positions are data bits).
     */
    ErrorProfile(std::size_t num_words, std::size_t word_bits);

    /** Dataword length (profiled positions are data bits). */
    std::size_t wordBits() const { return wordBits_; }

    /** Record that (word, bit) is at risk. Idempotent. */
    void markAtRisk(std::size_t word, std::size_t bit);

    /**
     * OR a whole bitmap of at-risk positions into word @p word — the
     * bulk-placement hook used when a profiler's identified() set (or a
     * fleet sampler's per-word risk map) is installed in one shot.
     * @throws std::invalid_argument when sizes mismatch.
     */
    void markWordBitmap(std::size_t word, const gf2::BitVector &bits);

    /** True iff (word, bit) has been profiled as at risk. */
    bool isAtRisk(std::size_t word, std::size_t bit) const;

    /** Bitmap of profiled positions in @p word. */
    const gf2::BitVector &wordBitmap(std::size_t word) const;

    /** Total profiled bit count across all words. */
    std::size_t totalAtRisk() const;

  private:
    std::size_t wordBits_;
    std::vector<gf2::BitVector> bitmaps_;
};

} // namespace harp::mem

#endif // HARP_MEMSYS_ERROR_PROFILE_HH
