#include "ecc/sliced_bch.hh"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "common/bits.hh"

namespace harp::ecc {

SlicedBchCode::SlicedBchCode(const BchCode &code, std::size_t lanes)
    : code_(code), lanes_(lanes), memo_(std::make_shared<SlicedBchMemo>())
{
    if (lanes == 0 || lanes > gf2::BitSlice::laneCount)
        throw std::invalid_argument(
            "SlicedBchCode: lane count out of range");

    const std::size_t k = code_.k();
    const std::size_t p = code_.p();
    const std::size_t two_t = 2 * code_.t();
    const unsigned m = code_.field().m();
    syndromeBits_ = two_t * m;
    assert(syndromeBits_ <= 4 * 64); // t <= 8, m <= 14 -> <= 224 bits

    // Parity matrix, CSR over data positions: bit j of the parity word
    // is parityRow(j) . d.
    parityOff_.assign(k + 1, 0);
    parityIdx_.clear();
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < p; ++j)
            if (code_.parityRow(j).get(i))
                parityIdx_.push_back(static_cast<std::uint32_t>(j));
        parityOff_[i + 1] = static_cast<std::uint32_t>(parityIdx_.size());
    }

    // Packed syndrome matrix, CSR over codeword positions: an error at
    // position pos contributes alpha^((j+1) * coeff(pos)) to S_{j+1};
    // packed bit b = j*m + u is bit u of that field element.
    synOff_.assign(code_.n() + 1, 0);
    synIdx_.clear();
    for (std::size_t pos = 0; pos < code_.n(); ++pos) {
        const std::size_t c = code_.coefficientOf(pos);
        for (std::size_t j = 0; j < two_t; ++j) {
            const Gf2m::Element e = code_.field().alphaPow(
                static_cast<std::uint64_t>(j + 1) * c);
            for (unsigned u = 0; u < m; ++u)
                if ((e >> u) & 1)
                    synIdx_.push_back(
                        static_cast<std::uint32_t>(j * m + u));
        }
        synOff_[pos + 1] = static_cast<std::uint32_t>(synIdx_.size());
    }

    synScratch_.assign(syndromeBits_, 0);
    wordScratch_ = gf2::BitVector(code_.n());
}

void
SlicedBchCode::encode(const gf2::BitSlice &data,
                      gf2::BitSlice &codeword) const
{
    const std::size_t k = code_.k();
    const std::size_t p = code_.p();
    assert(data.positions() == k && codeword.positions() == n());
    for (std::size_t j = 0; j < p; ++j)
        codeword.lane(k + j) = 0;
    for (std::size_t i = 0; i < k; ++i) {
        const std::uint64_t d = data.lane(i);
        codeword.lane(i) = d;
        if (d == 0)
            continue;
        for (std::uint32_t r = parityOff_[i]; r < parityOff_[i + 1]; ++r)
            codeword.lane(k + parityIdx_[r]) ^= d;
    }
}

void
SlicedBchCode::syndromes(const gf2::BitSlice &received,
                         std::uint64_t *out) const
{
    assert(received.positions() >= n());
    for (std::size_t b = 0; b < syndromeBits_; ++b)
        out[b] = 0;
    for (std::size_t pos = 0; pos < n(); ++pos) {
        const std::uint64_t r = received.lane(pos);
        if (r == 0)
            continue;
        for (std::uint32_t s = synOff_[pos]; s < synOff_[pos + 1]; ++s)
            out[synIdx_[s]] ^= r;
    }
}

const SlicedBchCode::MemoAction &
SlicedBchCode::lookupAction(const MemoKey &key,
                            const gf2::BitSlice &received,
                            std::size_t lane) const
{
    if (const MemoAction *hit = memo_->find(key))
        return *hit;
    // Miss: reconstruct this lane's received word, run the scalar
    // decoder once, and memoize its action. Exact because BM + Chien
    // are pure syndrome decoding — the flips depend on the syndrome
    // alone, not on the rest of the received word — which also makes
    // racing workers memoize identical entries.
    for (std::size_t pos = 0; pos < n(); ++pos)
        wordScratch_.set(pos, received.get(pos, lane));
    code_.decodeInto(wordScratch_, decodeScratch_);
    MemoAction action;
    for (const std::size_t pos : decodeScratch_.correctedPositions) {
        if (pos < code_.k()) {
            assert(action.numFlips < action.flips.size());
            action.flips[action.numFlips++] =
                static_cast<std::uint16_t>(pos);
        }
    }
    return memo_->insertOrGet(key, action);
}

void
SlicedBchCode::decodeData(const gf2::BitSlice &received,
                          gf2::BitSlice &data_out) const
{
    const std::size_t k = code_.k();
    assert(received.positions() >= n());
    assert(data_out.positions() == k);

    syndromes(received, synScratch_.data());
    for (std::size_t i = 0; i < k; ++i)
        data_out.lane(i) = received.lane(i);

    // Lanes beyond lanes_ may hold unspecified bits (ragged tails);
    // never decode them.
    std::uint64_t pending = 0;
    for (std::size_t b = 0; b < syndromeBits_; ++b)
        pending |= synScratch_[b];
    pending &= common::laneMask(lanes_);
    if (pending == 0)
        return; // every lane clean: zero syndrome decodes to no flips

    // Resolve erroneous lanes: extract each lane's packed syndrome key
    // with one 64x64 transpose per 64 packed bits (t <= 4 with m <= 8
    // needs exactly one), then walk the set bits of the pending mask.
    const std::size_t blocks = (syndromeBits_ + 63) / 64;
    for (std::size_t block = 0; block < blocks; ++block) {
        std::array<std::uint64_t, 64> &tmp = laneKeyScratch_[block];
        const std::size_t base = block * 64;
        const std::size_t live =
            std::min<std::size_t>(64, syndromeBits_ - base);
        for (std::size_t r = 0; r < live; ++r)
            tmp[r] = synScratch_[base + r];
        for (std::size_t r = live; r < 64; ++r)
            tmp[r] = 0;
        gf2::transpose64x64(tmp.data());
    }

    while (pending != 0) {
        const auto lane =
            static_cast<std::size_t>(std::countr_zero(pending));
        pending &= pending - 1;
        MemoKey key;
        for (std::size_t block = 0; block < blocks; ++block)
            key.words[block] = laneKeyScratch_[block][lane];
        const MemoAction &action = lookupAction(key, received, lane);
        for (std::uint8_t f = 0; f < action.numFlips; ++f)
            data_out.lane(action.flips[f]) ^= std::uint64_t{1} << lane;
    }
}

} // namespace harp::ecc
