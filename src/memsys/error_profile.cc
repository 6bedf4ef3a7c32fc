#include "memsys/error_profile.hh"

#include <stdexcept>

namespace harp::mem {

ErrorProfile::ErrorProfile(std::size_t num_words, std::size_t word_bits)
    : wordBits_(word_bits),
      bitmaps_(num_words, gf2::BitVector(word_bits))
{
}

void
ErrorProfile::markAtRisk(std::size_t word, std::size_t bit)
{
    bitmaps_.at(word).set(bit, true);
}

void
ErrorProfile::markWordBitmap(std::size_t word, const gf2::BitVector &bits)
{
    if (bits.size() != wordBits_)
        throw std::invalid_argument(
            "ErrorProfile::markWordBitmap: size mismatch");
    bitmaps_.at(word) |= bits;
}

bool
ErrorProfile::isAtRisk(std::size_t word, std::size_t bit) const
{
    return bitmaps_.at(word).get(bit);
}

const gf2::BitVector &
ErrorProfile::wordBitmap(std::size_t word) const
{
    return bitmaps_.at(word);
}

std::size_t
ErrorProfile::totalAtRisk() const
{
    std::size_t total = 0;
    for (const auto &bitmap : bitmaps_)
        total += bitmap.popcount();
    return total;
}

} // namespace harp::mem
