#include "fleet/aggregate.hh"

#include <cmath>

namespace harp::fleet {

namespace {

bool
histogramsEqual(const common::Histogram &a, const common::Histogram &b)
{
    if (a.numBins() != b.numBins())
        return false;
    for (std::size_t i = 0; i < a.numBins(); ++i)
        if (a.bin(i) != b.bin(i))
            return false;
    return true;
}

} // namespace

FleetAggregator::FleetAggregator(std::size_t repair_bins,
                                 std::size_t event_bins)
    : repairBits_(repair_bins), uncorrectablePerChip_(event_bins)
{
}

void
FleetAggregator::addCleanChip()
{
    ++chips_;
}

void
FleetAggregator::addChip(const ChipOutcome &outcome)
{
    ++chips_;
    ++faultyChips_;
    faultEvents_ += outcome.faultEvents;
    atRiskCells_ += outcome.atRiskCells;
    if (outcome.failed())
        ++failedChips_;
    uncorrectable_ += outcome.uncorrectableEvents;
    silent_ += outcome.silentCorruptions;
    profiledBits_ += outcome.profiledBits;
    repairSpareBits_ += outcome.repairSpareBits;
    repairedBitReads_ += outcome.repairedBitReads;
    scrubWritebacks_ += outcome.scrubWritebacks;
    repairBits_.add(static_cast<std::int64_t>(outcome.repairSpareBits));
    uncorrectablePerChip_.add(
        static_cast<std::int64_t>(outcome.uncorrectableEvents +
                                  outcome.silentCorruptions));
}

void
FleetAggregator::merge(const FleetAggregator &other)
{
    chips_ += other.chips_;
    faultyChips_ += other.faultyChips_;
    faultEvents_ += other.faultEvents_;
    atRiskCells_ += other.atRiskCells_;
    failedChips_ += other.failedChips_;
    uncorrectable_ += other.uncorrectable_;
    silent_ += other.silent_;
    profiledBits_ += other.profiledBits_;
    repairSpareBits_ += other.repairSpareBits_;
    repairedBitReads_ += other.repairedBitReads_;
    scrubWritebacks_ += other.scrubWritebacks_;
    repairBits_.merge(other.repairBits_);
    uncorrectablePerChip_.merge(other.uncorrectablePerChip_);
}

double
FleetAggregator::fitRate(double device_hours) const
{
    const double exposure =
        static_cast<double>(chips_) * device_hours * 1e-9;
    if (!(exposure > 0.0))
        return 0.0;
    return static_cast<double>(failedChips_) / exposure;
}

double
FleetAggregator::fitRateCi95(double device_hours) const
{
    const double exposure =
        static_cast<double>(chips_) * device_hours * 1e-9;
    if (!(exposure > 0.0))
        return 0.0;
    return 1.96 * std::sqrt(static_cast<double>(failedChips_)) / exposure;
}

std::size_t
FleetAggregator::repairBitsQuantile(double q) const
{
    // An all-clean fleet has an empty histogram (quantileBin would
    // report the clamp bin); its spare consumption is simply 0.
    return repairBits_.total() == 0 ? 0 : repairBits_.quantileBin(q);
}

bool
FleetAggregator::operator==(const FleetAggregator &other) const
{
    return chips_ == other.chips_ && faultyChips_ == other.faultyChips_ &&
           faultEvents_ == other.faultEvents_ &&
           atRiskCells_ == other.atRiskCells_ &&
           failedChips_ == other.failedChips_ &&
           uncorrectable_ == other.uncorrectable_ &&
           silent_ == other.silent_ &&
           profiledBits_ == other.profiledBits_ &&
           repairSpareBits_ == other.repairSpareBits_ &&
           repairedBitReads_ == other.repairedBitReads_ &&
           scrubWritebacks_ == other.scrubWritebacks_ &&
           histogramsEqual(repairBits_, other.repairBits_) &&
           histogramsEqual(uncorrectablePerChip_,
                           other.uncorrectablePerChip_);
}

} // namespace harp::fleet
