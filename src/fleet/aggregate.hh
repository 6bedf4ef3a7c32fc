/**
 * @file
 * Streaming fleet aggregator: FIT rates and repair-capacity
 * percentiles without holding per-chip results.
 *
 * A fleet campaign simulates millions of chips per grid point; keeping
 * one record per chip would dwarf the simulation state. The aggregator
 * therefore folds every chip into integer counters plus fixed-size
 * integer histograms (common::Histogram), so memory is O(bins) —
 * independent of the fleet size — and percentiles (p50/p99/p999) come
 * from histogram mass. All state is integral and merging is
 * commutative/associative, so partial aggregates merged in any stratum
 * order produce byte-identical output at any thread count.
 */

#ifndef HARP_FLEET_AGGREGATE_HH
#define HARP_FLEET_AGGREGATE_HH

#include <cstddef>
#include <cstdint>

#include "common/stats.hh"

namespace harp::fleet {

/** Per-chip outcome of one policy simulation (policy.hh fills it). */
struct ChipOutcome
{
    std::size_t faultEvents = 0;
    std::size_t atRiskCells = 0;
    std::size_t profiledBits = 0;
    std::size_t repairSpareBits = 0;
    std::size_t repairedBitReads = 0;
    std::size_t uncorrectableEvents = 0;
    std::size_t silentCorruptions = 0;
    std::size_t scrubWritebacks = 0;

    /** A chip fails when any read returned corrupt data — detected
     *  (uncorrectable event) or silent (shadow mismatch). */
    bool failed() const
    {
        return uncorrectableEvents + silentCorruptions > 0;
    }
};

/**
 * Order-insensitive accumulator over chip outcomes.
 */
class FleetAggregator
{
  public:
    /**
     * @param repair_bins Bins of the repair-capacity histogram; spare
     *        counts at or above the last bin clamp into it.
     * @param event_bins  Bins of the per-chip uncorrectable-event
     *        histogram.
     */
    explicit FleetAggregator(std::size_t repair_bins = 257,
                             std::size_t event_bins = 65);

    /** Fold in a chip the sampler drew no fault events for (the
     *  overwhelmingly common case; clean chips cannot fail). */
    void addCleanChip();

    /** Fold in a simulated faulty chip. */
    void addChip(const ChipOutcome &outcome);

    /** Merge a partial aggregate (parallel reduction; commutative). */
    void merge(const FleetAggregator &other);

    /** @name Population counters */
    ///@{
    std::uint64_t chips() const { return chips_; }
    std::uint64_t faultyChips() const { return faultyChips_; }
    std::uint64_t faultEvents() const { return faultEvents_; }
    std::uint64_t atRiskCells() const { return atRiskCells_; }
    ///@}

    /** @name Outcome counters */
    ///@{
    std::uint64_t failedChips() const { return failedChips_; }
    std::uint64_t uncorrectableEvents() const { return uncorrectable_; }
    std::uint64_t silentCorruptions() const { return silent_; }
    std::uint64_t profiledBits() const { return profiledBits_; }
    std::uint64_t repairSpareBits() const { return repairSpareBits_; }
    std::uint64_t repairedBitReads() const { return repairedBitReads_; }
    std::uint64_t scrubWritebacks() const { return scrubWritebacks_; }
    ///@}

    /**
     * Fleet FIT rate: failed chips per billion device-hours of
     * exposure (chips() * @p device_hours total). 0 for an empty
     * fleet.
     */
    double fitRate(double device_hours) const;

    /** Half-width of the 95% Poisson (Wald) confidence interval on
     *  fitRate(). */
    double fitRateCi95(double device_hours) const;

    /**
     * Repair-capacity quantile over *faulty* chips: the smallest spare
     * bit count covering fraction @p q of them (clean chips consume no
     * spares and would pin every percentile to 0).
     */
    std::size_t repairBitsQuantile(double q) const;

    /** @name Raw histograms (golden pins hash every bin) */
    ///@{
    const common::Histogram &repairBitsHistogram() const
    {
        return repairBits_;
    }
    const common::Histogram &uncorrectableHistogram() const
    {
        return uncorrectablePerChip_;
    }
    ///@}

    /** Exact equality (every counter and histogram bin) — the
     *  cross-engine / cross-thread identity check of the test tier. */
    bool operator==(const FleetAggregator &other) const;

  private:
    std::uint64_t chips_ = 0;
    std::uint64_t faultyChips_ = 0;
    std::uint64_t faultEvents_ = 0;
    std::uint64_t atRiskCells_ = 0;
    std::uint64_t failedChips_ = 0;
    std::uint64_t uncorrectable_ = 0;
    std::uint64_t silent_ = 0;
    std::uint64_t profiledBits_ = 0;
    std::uint64_t repairSpareBits_ = 0;
    std::uint64_t repairedBitReads_ = 0;
    std::uint64_t scrubWritebacks_ = 0;
    common::Histogram repairBits_;
    common::Histogram uncorrectablePerChip_;
};

} // namespace harp::fleet

#endif // HARP_FLEET_AGGREGATE_HH
