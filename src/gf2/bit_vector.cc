#include "gf2/bit_vector.hh"

#include <bit>
#include <cassert>

#include "common/bits.hh"

namespace harp::gf2 {

using common::bitOffset;
using common::tailMask;
using common::wordIndex;
using common::wordsFor;

BitVector::BitVector(std::size_t size)
    : size_(size), words_(wordsFor(size), 0)
{
}

BitVector
BitVector::fromUint(std::uint64_t value, std::size_t size)
{
    BitVector v(size);
    if (!v.words_.empty()) {
        v.words_[0] = value;
        v.maskTail();
    }
    return v;
}

BitVector
BitVector::fromIndices(std::size_t size,
                       const std::vector<std::size_t> &indices)
{
    BitVector v(size);
    for (std::size_t i : indices)
        v.set(i, true);
    return v;
}

BitVector
BitVector::random(std::size_t size, common::Xoshiro256 &rng)
{
    BitVector v(size);
    v.randomize(rng);
    return v;
}

void
BitVector::randomize(common::Xoshiro256 &rng)
{
    for (auto &word : words_)
        word = rng();
    maskTail();
}

void
BitVector::flip(std::size_t i)
{
    assert(i < size_);
    words_[wordIndex(i)] ^= std::uint64_t{1} << bitOffset(i);
}

void
BitVector::fill(bool value)
{
    const std::uint64_t pattern = value ? ~std::uint64_t{0} : 0;
    for (auto &word : words_)
        word = pattern;
    maskTail();
}

std::size_t
BitVector::popcount() const
{
    std::size_t count = 0;
    for (std::uint64_t word : words_)
        count += static_cast<std::size_t>(std::popcount(word));
    return count;
}

bool
BitVector::isZero() const
{
    for (std::uint64_t word : words_)
        if (word != 0)
            return false;
    return true;
}

bool
BitVector::dot(const BitVector &other) const
{
    assert(size_ == other.size_);
    return dotPrefix(other);
}

BitVector &
BitVector::operator^=(const BitVector &other)
{
    assert(size_ == other.size_);
    for (std::size_t w = 0; w < words_.size(); ++w)
        words_[w] ^= other.words_[w];
    return *this;
}

BitVector &
BitVector::operator&=(const BitVector &other)
{
    assert(size_ == other.size_);
    for (std::size_t w = 0; w < words_.size(); ++w)
        words_[w] &= other.words_[w];
    return *this;
}

BitVector &
BitVector::operator|=(const BitVector &other)
{
    assert(size_ == other.size_);
    for (std::size_t w = 0; w < words_.size(); ++w)
        words_[w] |= other.words_[w];
    return *this;
}

BitVector &
BitVector::andNot(const BitVector &other)
{
    assert(size_ == other.size_);
    for (std::size_t w = 0; w < words_.size(); ++w)
        words_[w] &= ~other.words_[w];
    return *this;
}

bool
BitVector::operator<(const BitVector &other) const
{
    if (size_ != other.size_)
        return size_ < other.size_;
    return words_ < other.words_;
}

std::vector<std::size_t>
BitVector::setBits() const
{
    std::vector<std::size_t> indices;
    forEachSetBit([&](std::size_t i) { indices.push_back(i); });
    return indices;
}

std::uint64_t
BitVector::toUint() const
{
    return words_.empty() ? 0 : words_[0];
}

std::string
BitVector::toString() const
{
    std::string out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(get(i) ? '1' : '0');
    return out;
}

BitVector
BitVector::slice(std::size_t begin, std::size_t end) const
{
    assert(begin <= end && end <= size_);
    BitVector out(end - begin);
    const std::size_t first = wordIndex(begin);
    const std::size_t shift = bitOffset(begin);
    for (std::size_t w = 0; w < out.words_.size(); ++w) {
        std::uint64_t value = words_[first + w] >> shift;
        // Bits past size() are zero, so merging in the next word never
        // reads garbage; the final mask trims what lies past `end`.
        if (shift != 0 && first + w + 1 < words_.size())
            value |= words_[first + w + 1] << (64 - shift);
        out.words_[w] = value;
    }
    out.maskTail();
    return out;
}

void
BitVector::assignPrefix(const BitVector &src)
{
    assert(src.size_ >= size_);
    for (std::size_t w = 0; w < words_.size(); ++w)
        words_[w] = src.words_[w];
    maskTail();
}

void
BitVector::assignAt(std::size_t begin, const BitVector &src)
{
    assert(begin + src.size_ <= size_);
    const std::size_t shift = bitOffset(begin);
    std::size_t w = wordIndex(begin);
    for (std::size_t s = 0; s < src.words_.size(); ++s, ++w) {
        const std::uint64_t keep =
            s + 1 == src.words_.size() ? tailMask(src.size_)
                                       : ~std::uint64_t{0};
        const std::uint64_t value = src.words_[s];
        words_[w] = (words_[w] & ~(keep << shift)) | (value << shift);
        // The source word straddles two destination words.
        if (shift != 0 && (keep >> (64 - shift)) != 0)
            words_[w + 1] = (words_[w + 1] & ~(keep >> (64 - shift))) |
                            (value >> (64 - shift));
    }
}

bool
BitVector::equalsPrefixOf(const BitVector &longer) const
{
    assert(size_ <= longer.size_);
    if (words_.empty())
        return true;
    const std::size_t last = words_.size() - 1;
    for (std::size_t w = 0; w < last; ++w)
        if (words_[w] != longer.words_[w])
            return false;
    return words_[last] == (longer.words_[last] & tailMask(size_));
}

void
BitVector::maskTail()
{
    if (!words_.empty())
        words_.back() &= tailMask(size_);
}

} // namespace harp::gf2
