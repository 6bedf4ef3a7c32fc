/**
 * @file
 * Ideal bit-granularity repair mechanism (HARP sections 2.2 and 7.4).
 *
 * Models the "ideal bit-repair mechanism that perfectly repairs all
 * identified at-risk bits": profiled bits are remapped into reliable spare
 * storage inside the memory controller. Writes capture the true values of
 * profiled bits; reads overlay those values on the (possibly erroneous)
 * data coming back from the chip.
 */

#ifndef HARP_MEMSYS_REPAIR_MECHANISM_HH
#define HARP_MEMSYS_REPAIR_MECHANISM_HH

#include <cstddef>
#include <limits>
#include <vector>

#include "common/recycled_vector.hh"
#include "gf2/bit_vector.hh"
#include "memsys/error_profile.hh"

namespace harp::mem {

/**
 * Bit-remapping repair backed by an ErrorProfile.
 *
 * The profile may grow at any time (reactive profiling); newly profiled
 * bits start being repaired at the next write that captures their value.
 *
 * Spare storage may be budgeted (setCapacity): once the budget is
 * exhausted, further profiled bits are simply not repaired. Allocation
 * is first-come-first-served in write order — within one write, spare
 * slots go to profiled bits in ascending bit order — so exhaustion
 * behaviour is deterministic and testable.
 */
class RepairMechanism
{
  public:
    /** Capacity value meaning "no spare-storage budget". */
    static constexpr std::size_t kUnlimited =
        std::numeric_limits<std::size_t>::max();

    /** @param num_words Number of ECC words covered. */
    explicit RepairMechanism(std::size_t num_words);

    /** Start over with @p num_words words, no spares and no budget,
     *  reusing the spare storage already held. */
    void reset(std::size_t num_words);

    /**
     * Budget the spare storage to @p max_spare_bits allocated bits
     * (kUnlimited by default). Shrinking below the bits already
     * allocated does not evict them — real spare rows cannot be
     * un-soldered — it only stops further allocation.
     */
    void setCapacity(std::size_t max_spare_bits) { capacity_ = max_spare_bits; }

    /** Current spare-storage budget (kUnlimited when unbudgeted). */
    std::size_t capacity() const { return capacity_; }

    /** True iff allocation has hit the budget: newly profiled bits can
     *  no longer be captured. */
    bool exhausted() const { return used_ >= capacity_; }

    /** Profiled bits that could not be allocated a spare slot because
     *  the budget was exhausted when their capturing write occurred. */
    std::size_t droppedAllocations() const { return dropped_; }

    /**
     * Observe a write: capture spare copies of all currently-profiled bits
     * of @p dataword (allocating new spare slots only while the budget
     * allows; already-allocated slots always refresh their value).
     */
    void onWrite(std::size_t word, const gf2::BitVector &dataword,
                 const ErrorProfile &profile);

    /**
     * Repair a read: overwrite profiled bits of @p dataword with their
     * spare copies (bits profiled after the last write have no spare copy
     * yet and are left untouched).
     *
     * @return Number of bits whose value was actually changed.
     */
    std::size_t repair(std::size_t word, gf2::BitVector &dataword) const;

    /** Number of spare bits currently allocated (repair capacity used). */
    std::size_t spareBitsUsed() const;

  private:
    std::size_t capacity_ = kUnlimited;
    /** Spare bits allocated so far (== spareBitsUsed(), maintained
     *  incrementally for the budget check). */
    std::size_t used_ = 0;
    std::size_t dropped_ = 0;
    /** One word's spare slots: which positions hold one, and the
     *  value each captured (zero outside `allocated`). Both are sized
     *  to the dataword by the word's first write. */
    struct Spares
    {
        gf2::BitVector allocated;
        gf2::BitVector value;
    };
    common::RecycledVector<Spares> spares_;
};

} // namespace harp::mem

#endif // HARP_MEMSYS_REPAIR_MECHANISM_HH
