#include "ecc/hamming_code.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace harp::ecc {

std::size_t
HammingCode::minParityBits(std::size_t k)
{
    // Need 2^p - 1 - p >= k distinct weight>=2 columns for the data bits.
    std::size_t p = 2;
    while (((std::size_t{1} << p) - 1 - p) < k)
        ++p;
    return p;
}

HammingCode::HammingCode(std::size_t k, std::vector<std::uint32_t> data_cols)
    : k_(k), p_(minParityBits(k)), dataCols_(std::move(data_cols))
{
    if (k_ == 0)
        throw std::invalid_argument("HammingCode: k must be at least 1");
    if (dataCols_.size() != k_)
        throw std::invalid_argument("HammingCode: need exactly k columns");
    const std::uint32_t limit = std::uint32_t{1} << p_;
    std::vector<bool> used(limit, false);
    for (const std::uint32_t col : dataCols_) {
        if (col == 0 || col >= limit)
            throw std::invalid_argument("HammingCode: column out of range");
        if (std::popcount(col) < 2)
            throw std::invalid_argument(
                "HammingCode: data column collides with a parity column");
        if (used[col])
            throw std::invalid_argument("HammingCode: duplicate column");
        used[col] = true;
    }

    // Each row word gathers bit j of 64 consecutive columns by shift
    // and OR: no branch on the (random) column bits.
    parityRows_.assign(p_, gf2::BitVector(k_));
    for (std::size_t base = 0; base < k_; base += common::wordBits) {
        const std::size_t end = std::min(k_, base + common::wordBits);
        for (std::size_t j = 0; j < p_; ++j) {
            std::uint64_t row = 0;
            for (std::size_t i = base; i < end; ++i)
                row |= std::uint64_t{(dataCols_[i] >> j) & 1u} << (i - base);
            parityRows_[j].setWord(common::wordIndex(base), row);
        }
    }

    syndromeMap_.assign(limit, -1);
    for (std::size_t i = 0; i < k_; ++i)
        syndromeMap_[dataCols_[i]] = static_cast<std::int32_t>(i);
    for (std::size_t j = 0; j < p_; ++j)
        syndromeMap_[std::uint32_t{1} << j] =
            static_cast<std::int32_t>(k_ + j);
}

HammingCode
HammingCode::randomSec(std::size_t k, common::Xoshiro256 &rng)
{
    const std::size_t p = minParityBits(k);
    std::vector<std::uint32_t> candidates;
    candidates.reserve((std::size_t{1} << p) - 1 - p);
    for (std::uint32_t col = 1; col < (std::uint32_t{1} << p); ++col)
        if (std::popcount(col) >= 2)
            candidates.push_back(col);
    assert(candidates.size() >= k);
    // Partial Fisher-Yates: the first k slots become a uniform sample.
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j =
            i + rng.nextBelow(candidates.size() - i);
        std::swap(candidates[i], candidates[j]);
    }
    candidates.resize(k);
    return HammingCode(k, std::move(candidates));
}

std::uint32_t
HammingCode::codewordColumn(std::size_t pos) const
{
    assert(pos < n());
    if (pos < k_)
        return dataCols_[pos];
    return std::uint32_t{1} << (pos - k_);
}

gf2::BitVector
HammingCode::encode(const gf2::BitVector &dataword) const
{
    gf2::BitVector codeword(n());
    encodeInto(dataword, codeword);
    return codeword;
}

void
HammingCode::encodeInto(const gf2::BitVector &dataword,
                        gf2::BitVector &codeword) const
{
    assert(dataword.size() == k_);
    assert(codeword.size() == n());
    codeword.assignAt(0, dataword);
    for (std::size_t j = 0; j < p_; ++j)
        codeword.set(k_ + j, parityRows_[j].dot(dataword));
}

void
HammingCode::correctDataInto(const gf2::BitVector &received,
                             std::uint32_t syndrome,
                             gf2::BitVector &data_out) const
{
    assert(data_out.size() == k_);
    data_out.assignPrefix(received);
    if (const auto pos = syndromeToPosition(syndrome))
        if (isDataPosition(*pos))
            data_out.flip(*pos);
}

std::uint32_t
HammingCode::syndrome(const gf2::BitVector &data,
                      const gf2::BitVector &parity,
                      std::size_t parity_offset) const
{
    assert(data.size() >= k_ && parity.size() >= parity_offset + p_);
    // Bit j is row j's parity over the data XOR the stored parity bit,
    // packed by shift and OR without a branch per mismatch.
    std::uint32_t s = 0;
    for (std::size_t j = 0; j < p_; ++j)
        s |= std::uint32_t{parityRows_[j].dotPrefix(data) !=
                           parity.get(parity_offset + j)}
             << j;
    return s;
}

std::uint32_t
HammingCode::syndromeOfErrors(const std::vector<std::size_t> &positions) const
{
    std::uint32_t s = 0;
    for (const std::size_t pos : positions)
        s ^= codewordColumn(pos);
    return s;
}

std::optional<std::size_t>
HammingCode::syndromeToPosition(std::uint32_t syndrome) const
{
    if (syndrome == 0 || syndrome >= syndromeMap_.size())
        return std::nullopt;
    const std::int32_t pos = syndromeMap_[syndrome];
    if (pos < 0)
        return std::nullopt;
    return static_cast<std::size_t>(pos);
}

DecodeResult
HammingCode::decode(const gf2::BitVector &codeword) const
{
    assert(codeword.size() == n());
    DecodeResult result;
    result.syndrome = syndrome(codeword);
    result.dataword = gf2::BitVector(k_);
    result.dataword.assignPrefix(codeword);
    if (result.syndrome != 0) {
        const auto pos = syndromeToPosition(result.syndrome);
        if (pos) {
            if (isDataPosition(*pos))
                result.dataword.flip(*pos);
            result.correctedPosition = pos;
        } else {
            // Shortened code: the syndrome matches no column. A real
            // on-die SEC decoder silently returns the data uncorrected.
            result.detectedUncorrectable = true;
        }
    }
    return result;
}

gf2::BitMatrix
HammingCode::parityCheckMatrix() const
{
    gf2::BitMatrix h(p_, n());
    for (std::size_t j = 0; j < p_; ++j) {
        for (std::size_t i = 0; i < k_; ++i)
            h.set(j, i, (dataCols_[i] >> j) & 1);
        h.set(j, k_ + j, true);
    }
    return h;
}

gf2::BitMatrix
HammingCode::generatorMatrix() const
{
    gf2::BitMatrix g(n(), k_);
    for (std::size_t i = 0; i < k_; ++i)
        g.set(i, i, true);
    for (std::size_t j = 0; j < p_; ++j)
        for (std::size_t i = 0; i < k_; ++i)
            g.set(k_ + j, i, (dataCols_[i] >> j) & 1);
    return g;
}

} // namespace harp::ecc
