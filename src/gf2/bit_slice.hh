/**
 * @file
 * Bit-sliced (transposed) block of up to 64 equal-length bit vectors.
 *
 * A BitSlice stores one 64-bit *lane word* per vector position: lane
 * bit `w` of `lane(pos)` is bit `pos` of word `w`. In this layout a
 * single lane-op (XOR, AND, ...) applies one GF(2) operation to the
 * same position of 64 independent words at once, which is what the
 * sliced profiling engine exploits to retire 64 profiling rounds per
 * machine operation on the ECC hot path.
 *
 * Conversion between the two layouts (row-major gf2::BitVector "words"
 * <-> position-major lanes) is one 64x64 bit-matrix transpose per 64
 * positions, implemented blockwise with the classic recursive quadrant
 * swap.
 */

#ifndef HARP_GF2_BIT_SLICE_HH
#define HARP_GF2_BIT_SLICE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gf2/bit_vector.hh"

namespace harp::gf2 {

/**
 * Transposed block of 64 lanes over a fixed number of bit positions.
 *
 * Lanes whose index is >= the number of live words gathered into the
 * slice hold unspecified bits; consumers must only extract the lanes
 * they populated (ragged tails where live words < 64 are expected).
 */
class BitSlice
{
  public:
    /** Number of lanes a slice can carry. */
    static constexpr std::size_t laneCount = 64;

    /** Construct a slice over @p positions bit positions, all zero. */
    explicit BitSlice(std::size_t positions = 0);

    /** Number of bit positions (the length of each sliced word). */
    std::size_t positions() const { return lanes_.size(); }

    /** Zero every lane word. */
    void clear();

    /** Lane word of @p pos: lane bit w == bit @p pos of word w. */
    std::uint64_t lane(std::size_t pos) const { return lanes_[pos]; }
    /** Mutable lane word of @p pos. */
    std::uint64_t &lane(std::size_t pos) { return lanes_[pos]; }

    /** Bit @p pos of word @p word. */
    bool get(std::size_t pos, std::size_t word) const;
    /** Set bit @p pos of word @p word to @p value. */
    void set(std::size_t pos, std::size_t word, bool value);

    /**
     * Lane-native mismatch accumulation over the first @p count
     * positions: `lane(p) |= a.lane(p) ^ b.lane(p)`. One XOR + one OR
     * retires the GF(2) difference of the same position of 64 word
     * pairs — the core reduction of the lane-native observation path
     * (core/sliced_profiler_group.hh). @p count must not exceed the
     * positions of any operand; bits of dead lanes accumulate garbage
     * and must be masked or ignored by the consumer.
     *
     * @return Lanes that gained a bit: a mismatch at a position whose
     *         lane bit was still clear (dead-lane bits garbage). A
     *         mismatch already accumulated does not count, so an
     *         all-zero mask means the call changed nothing.
     */
    std::uint64_t orXorPrefix(const BitSlice &a, const BitSlice &b,
                              std::size_t count);

    /**
     * Lane mask of words that differ from @p other anywhere in the
     * first @p count positions (lane bit w set iff word w's prefixes
     * mismatch). Dead-lane bits are garbage, as with orXorPrefix();
     * mask them before use. The engines use this to prove whole slots
     * observed clean reads without ever scattering them.
     */
    std::uint64_t diffLanesPrefix(const BitSlice &other,
                                  std::size_t count) const;

    /**
     * Transpose @p words (each of length positions()) into the lanes:
     * word w lands in lane bit w. At most laneCount words; lanes
     * beyond `words.size()` are zeroed.
     */
    void gather(const std::vector<BitVector> &words);

    /** gather() over @p count borrowed words — the zero-copy form the
     *  sliced engine feeds pattern-generator views into. */
    void gather(const BitVector *const *words, std::size_t count);

    /**
     * Inverse of gather() for the first @p count positions: writes bit
     * @p pos of word w (pos < count) into @p words[w], which must each
     * be sized to exactly @p count bits. Only `words.size()` lanes are
     * extracted.
     */
    void scatterPrefix(std::size_t count,
                       std::vector<BitVector> &words) const;

    /** scatterPrefix() over every position. */
    void scatter(std::vector<BitVector> &words) const
    {
        scatterPrefix(positions(), words);
    }

    /** Word @p word materialized as a BitVector (for tests/debugging;
     *  the scatter APIs are the fast path). */
    BitVector extractWord(std::size_t word) const;

  private:
    std::vector<std::uint64_t> lanes_;
};

/**
 * In-place 64x64 bit-matrix transpose: afterwards, bit c of m[r] is
 * the former bit r of m[c]. Both axes are LSB-first.
 */
void transpose64x64(std::uint64_t m[64]);

} // namespace harp::gf2

#endif // HARP_GF2_BIT_SLICE_HH
