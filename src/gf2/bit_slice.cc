#include "gf2/bit_slice.hh"

#include <algorithm>
#include <cassert>

#include "common/bits.hh"

namespace harp::gf2 {

namespace {

/** One stage of the quadrant swap at compile-time step J: element
 *  (r, c+J) trades places with (r+J, c) for every r, c whose J-bit is
 *  clear, walking the row blocks [r0, r0+J) directly. */
template <std::size_t J>
inline void
transposeStage(std::uint64_t m[64])
{
    // Bits c with (c & J) == 0, e.g. 0x00000000FFFFFFFF for J = 32.
    constexpr std::uint64_t mask =
        ~std::uint64_t{0} / ((std::uint64_t{1} << J) + 1);
    for (std::size_t r0 = 0; r0 < 64; r0 += 2 * J) {
        for (std::size_t r = r0; r < r0 + J; ++r) {
            const std::uint64_t t = ((m[r] >> J) ^ m[r + J]) & mask;
            m[r] ^= t << J;
            m[r + J] ^= t;
        }
    }
}

} // namespace

void
transpose64x64(std::uint64_t m[64])
{
    // Recursive quadrant swap (Hacker's Delight 7-3, adapted to
    // LSB-first columns), one unrolled stage per power of two.
    transposeStage<32>(m);
    transposeStage<16>(m);
    transposeStage<8>(m);
    transposeStage<4>(m);
    transposeStage<2>(m);
    transposeStage<1>(m);
}

BitSlice::BitSlice(std::size_t positions)
    : lanes_(positions, 0)
{
}

void
BitSlice::clear()
{
    lanes_.assign(lanes_.size(), 0);
}

bool
BitSlice::get(std::size_t pos, std::size_t word) const
{
    assert(pos < lanes_.size() && word < laneCount);
    return (lanes_[pos] >> word) & 1;
}

void
BitSlice::set(std::size_t pos, std::size_t word, bool value)
{
    assert(pos < lanes_.size() && word < laneCount);
    const std::uint64_t bit = std::uint64_t{1} << word;
    lanes_[pos] = value ? lanes_[pos] | bit : lanes_[pos] & ~bit;
}

std::uint64_t
BitSlice::orXorPrefix(const BitSlice &a, const BitSlice &b,
                      std::size_t count)
{
    assert(count <= lanes_.size() && count <= a.lanes_.size() &&
           count <= b.lanes_.size());
    std::uint64_t grew = 0;
    for (std::size_t pos = 0; pos < count; ++pos) {
        const std::uint64_t mismatch = a.lanes_[pos] ^ b.lanes_[pos];
        grew |= mismatch & ~lanes_[pos];
        lanes_[pos] |= mismatch;
    }
    return grew;
}

std::uint64_t
BitSlice::diffLanesPrefix(const BitSlice &other, std::size_t count) const
{
    assert(count <= lanes_.size() && count <= other.lanes_.size());
    std::uint64_t diff = 0;
    for (std::size_t pos = 0; pos < count; ++pos)
        diff |= lanes_[pos] ^ other.lanes_[pos];
    return diff;
}

void
BitSlice::gather(const std::vector<BitVector> &words)
{
    assert(words.size() <= laneCount);
    const BitVector *ptrs[laneCount];
    for (std::size_t w = 0; w < words.size(); ++w)
        ptrs[w] = &words[w];
    gather(ptrs, words.size());
}

void
BitSlice::gather(const BitVector *const *words, std::size_t count)
{
    assert(count <= laneCount);
    const std::size_t positions = lanes_.size();
    const std::size_t blocks = common::wordsFor(positions);
    std::uint64_t block[64];
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t base = b * common::wordBits;
        const std::size_t valid =
            std::min(common::wordBits, positions - base);
        // One 64x64 transpose per 64 positions: row w carries bits
        // b*64..b*64+63 of word w.
        for (std::size_t w = 0; w < 64; ++w) {
            if (w < count) {
                assert(words[w] != nullptr &&
                       words[w]->size() == positions);
                block[w] = words[w]->words()[b];
            } else {
                block[w] = 0;
            }
        }
        transpose64x64(block);
        for (std::size_t i = 0; i < valid; ++i)
            lanes_[base + i] = block[i];
    }
}

void
BitSlice::scatterPrefix(std::size_t count,
                        std::vector<BitVector> &words) const
{
    assert(count <= lanes_.size());
    assert(words.size() <= laneCount);
    if (words.empty())
        return;
    const std::size_t blocks = common::wordsFor(count);
    std::uint64_t block[64];
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t base = b * common::wordBits;
        const std::size_t valid = std::min(common::wordBits, count - base);
        for (std::size_t i = 0; i < valid; ++i)
            block[i] = lanes_[base + i];
        for (std::size_t i = valid; i < common::wordBits; ++i)
            block[i] = 0;
        transpose64x64(block);
        for (std::size_t w = 0; w < words.size(); ++w) {
            assert(words[w].size() == count);
            words[w].setWord(b, block[w]);
        }
    }
}

BitVector
BitSlice::extractWord(std::size_t word) const
{
    assert(word < laneCount);
    BitVector out(lanes_.size());
    for (std::size_t pos = 0; pos < lanes_.size(); ++pos)
        out.set(pos, get(pos, word));
    return out;
}

} // namespace harp::gf2
