/**
 * @file
 * Thread-safe syndrome -> decode-action memo shared by the copies of a
 * sliced BCH datapath.
 *
 * The memo maps a packed power-sum syndrome (a pure function of the
 * pre-correction error pattern) to the data-bit flips the scalar
 * Berlekamp-Massey + Chien decoder would apply. It is the only state a
 * sliced BCH datapath ever *shares*: when one (point, repeat) job is
 * sharded across the ThreadPool, every worker carries its own
 * ecc::SlicedBchCode copy (private scratch, private CSR views) but all
 * copies point at one SlicedBchMemo, so a syndrome any worker has
 * resolved is a hash hit for all of them.
 *
 * The table starts empty and grows only through insertOrGet() after a
 * miss, so it holds exactly the distinct syndromes a run has decoded.
 *
 * Concurrency contract:
 *  - find() takes a shared lock; insertOrGet() takes a unique lock.
 *  - Returned Action pointers/references stay valid for the memo's
 *    lifetime: std::unordered_map never invalidates element references
 *    on insert or rehash, and nothing here erases.
 *  - Hit/miss tallies are relaxed atomics — they order nothing, they
 *    only report.
 *
 * The memoization itself is exact (see ecc/sliced_bch.hh): BM + Chien
 * are pure syndrome decoding, so whichever worker resolves a syndrome
 * first memoizes the same action every other worker would.
 */

#ifndef HARP_ECC_SLICED_BCH_MEMO_HH
#define HARP_ECC_SLICED_BCH_MEMO_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace harp::ecc {

/**
 * Shared syndrome -> decode-action table with reader/writer locking.
 */
class SlicedBchMemo
{
  public:
    /** Packed syndrome key (up to 256 bits; 2t*m <= 224 for t <= 8,
     *  m <= 14). Unused words are zero. */
    struct Key
    {
        std::array<std::uint64_t, 4> words{};
        bool operator==(const Key &o) const { return words == o.words; }
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &key) const
        {
            std::uint64_t h = 1469598103934665603ull;
            for (const std::uint64_t w : key.words) {
                h ^= w;
                h *= 1099511628211ull;
            }
            return static_cast<std::size_t>(h);
        }
    };
    /** Memoized outcome of one nonzero syndrome: the data-bit flips to
     *  apply. Parity-only corrections and detected-uncorrectable
     *  syndromes both memoize an empty flip list — either way the
     *  dataword is left untouched, exactly as the scalar decoder
     *  reports it. */
    struct Action
    {
        std::uint8_t numFlips = 0;
        std::array<std::uint16_t, 8> flips{};
    };

    /**
     * Look up @p key, tallying a hit or miss. A returned pointer stays
     * valid for the memo's lifetime (element references survive
     * inserts; nothing erases).
     */
    const Action *find(const Key &key) const
    {
        std::shared_lock lock(mutex_);
        const auto it = map_.find(key);
        if (it == map_.end()) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return nullptr;
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
        return &it->second;
    }

    /**
     * Memoize @p action for @p key; if another worker raced the insert,
     * keep and return the incumbent (identical by the exactness
     * argument above). No hit/miss tally — the preceding find() already
     * counted this lookup.
     */
    const Action &insertOrGet(const Key &key, const Action &action)
    {
        std::unique_lock lock(mutex_);
        return map_.emplace(key, action).first->second;
    }

    /** Lookups that hit since construction. */
    std::uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    /** Lookups that missed (scalar-decode fallbacks). */
    std::uint64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }
    /** Distinct nonzero syndromes memoized so far. */
    std::size_t entries() const
    {
        std::shared_lock lock(mutex_);
        return map_.size();
    }

  private:
    mutable std::shared_mutex mutex_;
    std::unordered_map<Key, Action, KeyHash> map_;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
};

} // namespace harp::ecc

#endif // HARP_ECC_SLICED_BCH_MEMO_HH
