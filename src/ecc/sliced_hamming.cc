#include "ecc/sliced_hamming.hh"

#include <cassert>
#include <stdexcept>

namespace harp::ecc {

template <std::size_t W>
SlicedHammingCodeW<W>::SlicedHammingCodeW(
    const std::vector<const HammingCode *> &codes)
{
    if (codes.empty() || codes.size() > gf2::BitSliceW<W>::laneCount)
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

    columnBits_.assign(k_ * p_, Lane{});
    for (std::size_t w = 0; w < lanes_; ++w) {
        for (std::size_t i = 0; i < k_; ++i) {
            const std::uint32_t col = codes[w]->dataColumn(i);
            for (std::size_t j = 0; j < p_; ++j)
                if ((col >> j) & 1)
                    gf2::laneSetBit(columnBits_[i * p_ + j], w);
        }
    }
}

template <std::size_t W>
void
SlicedHammingCodeW<W>::encode(const gf2::BitSliceW<W> &data,
                              gf2::BitSliceW<W> &codeword) const
{
    assert(data.positions() == k_ && codeword.positions() == n());
    // Parity lanes accumulate in a local array: read-modify-writes
    // through the codeword's heap storage would force the compiler to
    // assume aliasing with the data lanes and spill the accumulators
    // every iteration.
    Lane parity[32] = {};
    assert(p_ <= 32);
    for (std::size_t i = 0; i < k_; ++i) {
        const Lane d = data.lane(i);
        codeword.lane(i) = d;
        const Lane *col = &columnBits_[i * p_];
        for (std::size_t j = 0; j < p_; ++j)
            parity[j] ^= d & col[j];
    }
    for (std::size_t j = 0; j < p_; ++j)
        codeword.lane(k_ + j) = parity[j];
}

template <std::size_t W>
void
SlicedHammingCodeW<W>::syndromes(const gf2::BitSliceW<W> &received,
                                 Lane *out) const
{
    assert(received.positions() >= n());
    for (std::size_t j = 0; j < p_; ++j)
        out[j] = received.lane(k_ + j);
    for (std::size_t i = 0; i < k_; ++i) {
        const Lane r = received.lane(i);
        const Lane *col = &columnBits_[i * p_];
        for (std::size_t j = 0; j < p_; ++j)
            out[j] ^= r & col[j];
    }
}

template <std::size_t W>
void
SlicedHammingCodeW<W>::decodeData(const gf2::BitSliceW<W> &received,
                                  gf2::BitSliceW<W> &data_out) const
{
    assert(received.positions() >= n());
    assert(data_out.positions() == k_);
    Lane s[32];
    syndromes(received, s);
    for (std::size_t i = 0; i < k_; ++i) {
        const Lane *col = &columnBits_[i * p_];
        Lane match = gf2::laneOnes<Lane>();
        for (std::size_t j = 0; j < p_; ++j)
            match &= ~(s[j] ^ col[j]);
        data_out.lane(i) = received.lane(i) ^ match;
    }
}

template class SlicedHammingCodeW<1>;
template class SlicedHammingCodeW<4>;

} // namespace harp::ecc
