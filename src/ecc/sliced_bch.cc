#include "ecc/sliced_bch.hh"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "common/bits.hh"

namespace harp::ecc {

template <std::size_t W>
SlicedBchCodeW<W>::SlicedBchCodeW(const BchCode &code, std::size_t lanes,
                                  bool prewarm,
                                  std::shared_ptr<SlicedBchMemo> memo)
    : code_(code), lanes_(lanes),
      memo_(memo ? std::move(memo) : std::make_shared<SlicedBchMemo>())
{
    if (lanes == 0 || lanes > gf2::BitSliceW<W>::laneCount)
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

    synScratch_.assign(syndromeBits_, Lane{});
    wordScratch_ = gf2::BitVector(code_.n());

    if (prewarm && !memo_->prewarmed())
        prewarmMemo();
}

template <std::size_t W>
void
SlicedBchCodeW<W>::prewarmMemo()
{
    const std::size_t n = code_.n();
    const std::size_t t = code_.t();

    // Entry count sum_{w=1..t} C(n, w); bail out beyond the cap before
    // enumerating anything.
    std::size_t total = 0;
    for (std::size_t w = 1; w <= t; ++w) {
        std::size_t choose = 1;
        for (std::size_t i = 0; i < w; ++i)
            choose = choose * (n - i) / (i + 1);
        total += choose;
        if (total > prewarmEntryCap)
            return;
    }
    memo_->reserve(total);

    // Depth-first enumeration of error-position subsets of size 1..t.
    // Every weight <= t pattern is corrected exactly (minimum distance
    // >= 2t+1), so its memo action is its own data-bit flips and its
    // syndrome is the XOR of the per-position packed-syndrome columns
    // — identical to what a scalar-decode fallback would memoize.
    MemoKey key;
    MemoAction action;
    const auto toggle = [&](std::size_t pos) {
        for (std::uint32_t s = synOff_[pos]; s < synOff_[pos + 1]; ++s)
            key.words[synIdx_[s] >> 6] ^=
                std::uint64_t{1} << (synIdx_[s] & 63);
    };
    // Subset weight is tracked separately from the data-flip count:
    // parity-position errors contribute to the syndrome but no flips.
    const auto recurse = [&](std::size_t first, std::size_t weight,
                             const auto &self) -> void {
        if (weight == t)
            return;
        for (std::size_t pos = first; pos < n; ++pos) {
            toggle(pos);
            const std::uint8_t saved = action.numFlips;
            if (pos < code_.k())
                action.flips[action.numFlips++] =
                    static_cast<std::uint16_t>(pos);
            memo_->insertOrGet(key, action);
            self(pos + 1, weight + 1, self);
            action.numFlips = saved;
            toggle(pos);
        }
    };
    recurse(0, 0, recurse);
    memo_->markPrewarmed();
}

template <std::size_t W>
void
SlicedBchCodeW<W>::encode(const gf2::BitSliceW<W> &data,
                          gf2::BitSliceW<W> &codeword) const
{
    const std::size_t k = code_.k();
    const std::size_t p = code_.p();
    assert(data.positions() == k && codeword.positions() == n());
    for (std::size_t j = 0; j < p; ++j)
        codeword.lane(k + j) = Lane{};
    for (std::size_t i = 0; i < k; ++i) {
        const Lane d = data.lane(i);
        codeword.lane(i) = d;
        if (!gf2::laneAny(d))
            continue;
        for (std::uint32_t r = parityOff_[i]; r < parityOff_[i + 1]; ++r)
            codeword.lane(k + parityIdx_[r]) ^= d;
    }
}

template <std::size_t W>
void
SlicedBchCodeW<W>::syndromes(const gf2::BitSliceW<W> &received,
                             Lane *out) const
{
    assert(received.positions() >= n());
    for (std::size_t b = 0; b < syndromeBits_; ++b)
        out[b] = Lane{};
    for (std::size_t pos = 0; pos < n(); ++pos) {
        const Lane r = received.lane(pos);
        if (!gf2::laneAny(r))
            continue;
        for (std::uint32_t s = synOff_[pos]; s < synOff_[pos + 1]; ++s)
            out[synIdx_[s]] ^= r;
    }
}

template <std::size_t W>
const typename SlicedBchCodeW<W>::MemoAction &
SlicedBchCodeW<W>::lookupAction(const MemoKey &key,
                                const gf2::BitSliceW<W> &received,
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

template <std::size_t W>
void
SlicedBchCodeW<W>::decodeData(const gf2::BitSliceW<W> &received,
                              gf2::BitSliceW<W> &data_out) const
{
    const std::size_t k = code_.k();
    assert(received.positions() >= n());
    assert(data_out.positions() == k);

    syndromes(received, synScratch_.data());
    for (std::size_t i = 0; i < k; ++i)
        data_out.lane(i) = received.lane(i);

    // Lanes beyond lanes_ may hold unspecified bits (ragged tails);
    // never decode them.
    const Lane live_mask = gf2::laneMaskOf<Lane>(lanes_);
    Lane nonzero{};
    for (std::size_t b = 0; b < syndromeBits_; ++b)
        nonzero |= synScratch_[b];
    nonzero &= live_mask;
    if (!gf2::laneAny(nonzero))
        return; // every lane clean: zero syndrome decodes to no flips

    // Resolve erroneous lanes one 64-lane sub-word at a time: extract
    // each lane's packed syndrome key with one 64x64 transpose per 64
    // packed bits (t <= 4 with m <= 8 needs exactly one), then walk the
    // set bits of that sub-word's pending mask.
    const std::size_t blocks = (syndromeBits_ + 63) / 64;
    for (std::size_t sub = 0; sub < W; ++sub) {
        std::uint64_t pending = gf2::laneWord(nonzero, sub);
        if (pending == 0)
            continue;
        for (std::size_t block = 0; block < blocks; ++block) {
            std::array<std::uint64_t, 64> &tmp = laneKeyScratch_[block];
            const std::size_t base = block * 64;
            const std::size_t live =
                std::min<std::size_t>(64, syndromeBits_ - base);
            for (std::size_t r = 0; r < live; ++r)
                tmp[r] = gf2::laneWord(synScratch_[base + r], sub);
            for (std::size_t r = live; r < 64; ++r)
                tmp[r] = 0;
            gf2::transpose64x64(tmp.data());
        }

        const std::size_t laneBase = sub * 64;
        while (pending != 0) {
            const auto sublane = static_cast<std::size_t>(
                std::countr_zero(pending));
            pending &= pending - 1;
            MemoKey key;
            for (std::size_t block = 0; block < blocks; ++block)
                key.words[block] = laneKeyScratch_[block][sublane];
            const MemoAction &action =
                lookupAction(key, received, laneBase + sublane);
            const std::uint64_t bit = std::uint64_t{1} << sublane;
            for (std::uint8_t f = 0; f < action.numFlips; ++f)
                gf2::laneWordRef(data_out.lane(action.flips[f]), sub) ^= bit;
        }
    }
}

template class SlicedBchCodeW<1>;
template class SlicedBchCodeW<4>;

} // namespace harp::ecc
