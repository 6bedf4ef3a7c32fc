/**
 * @file
 * Bit-sliced evaluation of up to W*64 t-error-correcting BCH words at
 * once.
 *
 * BCH encoding and power-sum syndrome evaluation are GF(2)-linear, so
 * both become masked XOR-reductions over precomputed per-position
 * matrices in the transposed gf2::BitSliceW layout, exactly like the
 * sliced Hamming datapath. What is *not* linear is the correction step
 * (Berlekamp-Massey + Chien search), so the sliced decoder resolves it
 * through a syndrome -> decode-action memo table instead:
 *
 *  - per lane, the packed 2t*m-bit syndrome is extracted with a 64x64
 *    bit transpose (one per 64-lane sub-word) and looked up;
 *  - a hit applies the memoized data-bit flips with one XOR per flip;
 *  - a miss falls back to the scalar allocation-free
 *    BchCode::decodeInto and populates the table.
 *
 * The memoization is *exact*: BM + Chien are pure syndrome decoding,
 * so the decode action (which positions to flip, or "detected
 * uncorrectable") is a function of the syndrome alone. Under the
 * repository's fault models each word sees few distinct pre-correction
 * error patterns, so hit rates approach 1 after warm-up and steady
 * state costs ~one hash lookup per erroneous lane.
 *
 * All lanes must carry the *same* code function: a BCH code is fully
 * determined by (k, t) (there is no per-lane arrangement freedom as in
 * the random Hamming codes), which is also what makes the shared memo
 * table valid across lanes. Results are bit-identical to the scalar
 * BchCode::decode path per lane at every width.
 *
 * Thread safety: the memo table (ecc/sliced_bch_memo.hh) is internally
 * synchronized and *shared by copies* — copying a SlicedBchCodeW gives
 * the copy private decode scratch but the same memo, so the per-worker
 * datapath pattern for sharded jobs is simply one copy per worker. The
 * decode scratch itself is per-instance mutable state, so decodeData()
 * on one shared *instance* still needs external synchronization; never
 * share an instance across pool workers, share copies.
 */

#ifndef HARP_ECC_SLICED_BCH_HH
#define HARP_ECC_SLICED_BCH_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ecc/bch_general.hh"
#include "ecc/sliced_bch_memo.hh"
#include "ecc/sliced_code.hh"
#include "gf2/bit_slice.hh"
#include "gf2/bit_vector.hh"
#include "gf2/lane.hh"

namespace harp::ecc {

/**
 * Up to W*64 words of one t-error-correcting BCH code evaluated
 * lane-parallel, with memoized syndrome decoding.
 *
 * Copyable; copies share the syndrome memo (thread-safe) while owning
 * private decode scratch, which makes a copy the unit of per-worker
 * parallelism.
 */
template <std::size_t W>
class SlicedBchCodeW final : public SlicedCodeW<W>
{
  public:
    using Lane = gf2::LaneOf<W>;

    /**
     * The same code in @p lanes lanes (1..W*64). The code is only read
     * during construction; the fallback decoder is a private copy, so
     * no reference is retained.
     *
     * @param prewarm Pre-populate the syndrome->action memo with every
     *        error pattern of weight <= t at construction (see
     *        memoPrewarmed()). On by default; automatically skipped
     *        when the enumeration would exceed prewarmEntryCap.
     * @param memo  Share an existing memo (e.g. across independently
     *        constructed per-shard datapaths of the same code); null
     *        allocates a fresh one. A shared memo that is already
     *        prewarmed skips re-enumeration.
     */
    SlicedBchCodeW(const BchCode &code, std::size_t lanes,
                   bool prewarm = true,
                   std::shared_ptr<SlicedBchMemo> memo = nullptr);

    /**
     * Largest sum_{w=1..t} C(n, w) the construction pre-warm will
     * enumerate; beyond it the memo starts cold (memoPrewarmed() ==
     * false) and fills through scalar-decode fallbacks as before. The
     * cap bounds both construction time and table memory (~100 bytes
     * per entry).
     */
    static constexpr std::size_t prewarmEntryCap = 1u << 17;

    std::size_t k() const override { return code_.k(); }
    std::size_t n() const override { return code_.n(); }
    std::size_t lanes() const override { return lanes_; }

    void encode(const gf2::BitSliceW<W> &data,
                gf2::BitSliceW<W> &codeword) const override;

    /**
     * Per-lane packed power-sum syndromes of a received codeword
     * slice: @p out[b] gets the lane mask of syndrome bit b, where bit
     * b = j*m + u is bit u of S_{j+1} over GF(2^m) (b < 2t*m).
     */
    void syndromes(const gf2::BitSliceW<W> &received, Lane *out) const;

    void decodeData(const gf2::BitSliceW<W> &received,
                    gf2::BitSliceW<W> &data_out) const override;

    /** The shared syndrome memo (never null). */
    const std::shared_ptr<SlicedBchMemo> &memo() const { return memo_; }

    /** Memo lookups that hit since memo construction. */
    std::uint64_t memoHits() const { return memo_->hits(); }
    /** Memo lookups that missed (scalar-decode fallbacks). */
    std::uint64_t memoMisses() const { return memo_->misses(); }
    /** Distinct nonzero syndromes memoized so far. */
    std::size_t memoEntries() const { return memo_->entries(); }
    /**
     * True iff construction pre-warmed the memo with every weight <= t
     * error syndrome. Pre-warming needs no decoder runs — a weight <=
     * t pattern is corrected exactly (minimum distance >= 2t+1), so
     * its action is its own data-bit positions and its syndrome is the
     * XOR of the per-position columns — and eliminates the cold-start
     * share of the miss rate: the only remaining fallbacks are
     * uncorrectable (weight > t) patterns.
     */
    bool memoPrewarmed() const { return memo_->prewarmed(); }

  private:
    using MemoKey = SlicedBchMemo::Key;
    using MemoAction = SlicedBchMemo::Action;

    void prewarmMemo();
    const MemoAction &lookupAction(const MemoKey &key,
                                   const gf2::BitSliceW<W> &received,
                                   std::size_t lane) const;

    BchCode code_;
    std::size_t lanes_ = 0;
    /** Packed syndrome width 2t*m in bits. */
    std::size_t syndromeBits_ = 0;
    /** CSR of parity-bit indices per data position: encoding XORs data
     *  lane i into parity lanes parityIdx_[parityOff_[i]..[i+1]). */
    std::vector<std::uint32_t> parityOff_;
    std::vector<std::uint32_t> parityIdx_;
    /** CSR of packed-syndrome bit indices per codeword position. */
    std::vector<std::uint32_t> synOff_;
    std::vector<std::uint32_t> synIdx_;

    // Private decode scratch (per instance; see thread-safety note) and
    // the shared, internally synchronized memo.
    mutable std::vector<Lane> synScratch_;
    mutable std::array<std::array<std::uint64_t, 64>, 4> laneKeyScratch_;
    mutable gf2::BitVector wordScratch_;
    mutable BchGeneralDecodeResult decodeScratch_;
    std::shared_ptr<SlicedBchMemo> memo_;
};

/** The historical 64-lane name. */
using SlicedBchCode = SlicedBchCodeW<1>;
/** The wide 256-lane variant. */
using SlicedBchCode256 = SlicedBchCodeW<4>;

extern template class SlicedBchCodeW<1>;
extern template class SlicedBchCodeW<4>;

} // namespace harp::ecc

#endif // HARP_ECC_SLICED_BCH_HH
