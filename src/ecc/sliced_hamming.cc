#include "ecc/sliced_hamming.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace harp::ecc {

SlicedHammingCode::SlicedHammingCode(
    const std::vector<const HammingCode *> &codes)
{
    if (codes.empty() || codes.size() > gf2::BitSlice::laneCount)
        throw std::invalid_argument(
            "SlicedHammingCode: lane count out of range");
    k_ = codes[0]->k();
    p_ = codes[0]->p();
    lanes_ = codes.size();
    assert(p_ <= 32); // syndrome scratch arrays are sized for p <= 32
    for (const HammingCode *code : codes)
        if (code->k() != k_)
            throw std::invalid_argument(
                "SlicedHammingCode: lanes must share k");

    // Parity row j of every lane, 64 positions at a time, is a 64x64
    // block with one row per lane; its transpose holds one lane mask
    // per position.
    columnBits_.assign(k_ * p_, 0);
    std::uint64_t block[gf2::BitSlice::laneCount];
    for (std::size_t j = 0; j < p_; ++j) {
        for (std::size_t base = 0; base < k_; base += common::wordBits) {
            const std::size_t b = common::wordIndex(base);
            for (std::size_t w = 0; w < gf2::BitSlice::laneCount; ++w)
                block[w] = w < lanes_ ? codes[w]->parityRow(j).words()[b] : 0;
            gf2::transpose64x64(block);
            const std::size_t valid = std::min(common::wordBits, k_ - base);
            for (std::size_t i = 0; i < valid; ++i)
                columnBits_[(base + i) * p_ + j] = block[i];
        }
    }
}

void
SlicedHammingCode::encode(const gf2::BitSlice &data,
                          gf2::BitSlice &codeword) const
{
    assert(data.positions() == k_ && codeword.positions() == n());
    // Parity lanes accumulate in a local array: read-modify-writes
    // through the codeword's heap storage would force the compiler to
    // assume aliasing with the data lanes and spill the accumulators
    // every iteration.
    std::uint64_t parity[32] = {};
    assert(p_ <= 32);
    for (std::size_t i = 0; i < k_; ++i) {
        const std::uint64_t d = data.lane(i);
        codeword.lane(i) = d;
        const std::uint64_t *col = &columnBits_[i * p_];
        for (std::size_t j = 0; j < p_; ++j)
            parity[j] ^= d & col[j];
    }
    for (std::size_t j = 0; j < p_; ++j)
        codeword.lane(k_ + j) = parity[j];
}

void
SlicedHammingCode::syndromes(const gf2::BitSlice &received,
                             std::uint64_t *out) const
{
    assert(received.positions() >= n());
    for (std::size_t j = 0; j < p_; ++j)
        out[j] = received.lane(k_ + j);
    for (std::size_t i = 0; i < k_; ++i) {
        const std::uint64_t r = received.lane(i);
        const std::uint64_t *col = &columnBits_[i * p_];
        for (std::size_t j = 0; j < p_; ++j)
            out[j] ^= r & col[j];
    }
}

void
SlicedHammingCode::decodeData(const gf2::BitSlice &received,
                              gf2::BitSlice &data_out) const
{
    assert(received.positions() >= n());
    assert(data_out.positions() == k_);
    std::uint64_t s[32];
    syndromes(received, s);
    for (std::size_t i = 0; i < k_; ++i) {
        const std::uint64_t *col = &columnBits_[i * p_];
        std::uint64_t match = ~0;
        for (std::size_t j = 0; j < p_; ++j)
            match &= ~(s[j] ^ col[j]);
        data_out.lane(i) = received.lane(i) ^ match;
    }
}

} // namespace harp::ecc
