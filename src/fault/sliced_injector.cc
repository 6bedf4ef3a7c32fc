#include "fault/sliced_injector.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace harp::fault {

SlicedCrnInjector::SlicedCrnInjector(
    const std::vector<const WordFaultModel *> &models)
{
    if (models.empty() || models.size() > gf2::BitSlice::laneCount)
        throw std::invalid_argument(
            "SlicedCrnInjector: lane count out of range");
    wordBits_ = models[0]->wordBits();
    lanes_ = models.size();
    for (std::size_t w = 0; w < lanes_; ++w) {
        const WordFaultModel &model = *models[w];
        if (model.wordBits() != wordBits_)
            throw std::invalid_argument(
                "SlicedCrnInjector: lanes must share word length");
        if (model.technology() == CellTechnology::AntiCell)
            antiMask_ |= std::uint64_t{1} << w;
        for (const CellFault &fault : model.faults()) {
            entries_.push_back({static_cast<std::uint32_t>(w),
                                static_cast<std::uint32_t>(fault.position),
                                common::bernoulliThreshold(
                                    fault.probability)});
            touchedPositions_.push_back(
                static_cast<std::uint32_t>(fault.position));
        }
    }
    std::sort(touchedPositions_.begin(), touchedPositions_.end());
    touchedPositions_.erase(
        std::unique(touchedPositions_.begin(), touchedPositions_.end()),
        touchedPositions_.end());
    trial_.assign(wordBits_, 0);
}

void
SlicedCrnInjector::drawRound(std::vector<common::Xoshiro256> &rngs)
{
    assert(rngs.size() >= lanes_);
    for (const std::uint32_t pos : touchedPositions_)
        trial_[pos] = 0;
    // entries_ is lane-major with each lane's cells in ascending
    // position order (WordFaultModel sorts its faults), so lane w's
    // stream consumption matches the scalar uniforms loop exactly.
    // Each lane's generator is copied into a local (registers) for its
    // run of entries — the trial_ stores would otherwise force the
    // state to be reloaded from memory on every draw — and written
    // back once per lane.
    const Entry *entry = entries_.data();
    const Entry *const end = entry + entries_.size();
    while (entry != end) {
        const std::uint32_t lane = entry->lane;
        common::Xoshiro256 rng = rngs[lane];
        const std::uint64_t bit = std::uint64_t{1} << lane;
        do {
            const std::uint64_t hit = (rng() >> 11) < entry->threshold;
            trial_[entry->position] |= bit & -hit;
            ++entry;
        } while (entry != end && entry->lane == lane);
        rngs[lane] = rng;
    }
}

void
SlicedCrnInjector::apply(const gf2::BitSlice &stored,
                         gf2::BitSlice &received) const
{
    assert(stored.positions() == wordBits_);
    assert(received.positions() == wordBits_);
    for (const std::uint32_t pos : touchedPositions_) {
        const std::uint64_t charged = stored.lane(pos) ^ antiMask_;
        received.lane(pos) ^= trial_[pos] & charged;
    }
}

} // namespace harp::fault
