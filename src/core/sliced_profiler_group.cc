#include "core/sliced_profiler_group.hh"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "common/bits.hh"

namespace harp::core {

std::unique_ptr<SlicedProfilerGroup>
SlicedProfilerGroup::tryMake(const std::vector<Profiler *> &lane_profilers,
                             std::size_t k)
{
    if (lane_profilers.empty() ||
        lane_profilers.size() > gf2::BitSlice::laneCount)
        return nullptr;
    const LaneObserveKind kind = lane_profilers[0]->laneObserveKind();
    if (kind == LaneObserveKind::None)
        return nullptr;
    for (const Profiler *p : lane_profilers)
        if (p->laneObserveKind() != kind || p->k() != k)
            return nullptr;
    return std::unique_ptr<SlicedProfilerGroup>(
        new SlicedProfilerGroup(lane_profilers, kind, k));
}

SlicedProfilerGroup::SlicedProfilerGroup(
    const std::vector<Profiler *> &lane_profilers, LaneObserveKind kind,
    std::size_t k)
    : kind_(kind),
      k_(k),
      profilers_(lane_profilers),
      atRisk_(k),
      direct_(kind == LaneObserveKind::BypassAware ? k : 0),
      laneScratch_(k)
{
    for (const Profiler *p : profilers_)
        if (p->laneGroup_ != nullptr)
            throw std::invalid_argument(
                "SlicedProfilerGroup: profiler already bound to a live "
                "engine");
    const std::size_t lanes = profilers_.size();
    liveMask_ = common::laneMask(lanes);
    flushScratch_.assign(lanes, gf2::BitVector(k));

    // Seed the lane state from the profilers' current profiles, so a
    // group formed over non-fresh profilers extends them rather than
    // restarting from zero. identified()/identifiedDirect() still read
    // the raw members here: attachment happens below.
    std::vector<gf2::BitVector> seed;
    seed.reserve(lanes);
    for (const Profiler *p : profilers_)
        seed.push_back(p->identified());
    atRisk_.gather(seed);
    if (kind_ == LaneObserveKind::BypassAware) {
        seed.clear();
        for (const Profiler *p : profilers_) {
            const gf2::BitVector *d = p->laneDirectState();
            assert(d != nullptr);
            seed.push_back(*d);
        }
        direct_.gather(seed);
    }

    for (Profiler *p : profilers_)
        p->laneGroup_ = this;
}

SlicedProfilerGroup::~SlicedProfilerGroup()
{
    flushIfDirty();
    for (Profiler *p : profilers_)
        p->laneGroup_ = nullptr;
}

void
SlicedProfilerGroup::extractLane(const gf2::BitSlice &slice,
                                 std::size_t lane)
{
    for (std::size_t pos = 0; pos < k_; ++pos)
        laneScratch_.set(pos, slice.get(pos, lane));
}

void
SlicedProfilerGroup::observeLanes(const RoundLaneObservation &obs)
{
    assert(obs.written.positions() == k_ && obs.post.positions() == k_ &&
           obs.received.positions() >= k_);
    // dirty_ is raised only when a live lane's profile grew: a clean
    // round, or a mismatch at a cell already identified, must not
    // force a flush transpose on the next profile read (per-round
    // readers would otherwise pay the very per-round cost this class
    // elides).
    switch (kind_) {
    case LaneObserveKind::PostCorrection:
        // identified |= written ^ post, 64 lanes per position.
        if ((atRisk_.orXorPrefix(obs.written, obs.post, k_) &
             liveMask_) != 0)
            dirty_ = true;
        return;
    case LaneObserveKind::Bypass:
        // identified = direct |= written ^ raw (bypass prefix).
        if ((atRisk_.orXorPrefix(obs.written, obs.received, k_) &
             liveMask_) != 0)
            dirty_ = true;
        return;
    case LaneObserveKind::BypassAware:
        break;
    case LaneObserveKind::None:
        assert(false && "group formed over kind None");
        return;
    }

    // HARP-A: accumulate direct mismatches and find the lanes whose
    // direct set grew — only those recompute indirect predictions,
    // exactly when the scalar profiler's popcount check would fire.
    // A lane's identified set grows only with its direct set: a new
    // mismatch bit is new to direct_ (a subset of atRisk_), and new
    // predictions come only from lanes whose direct set grew. So the
    // lanes in `changed` are exactly the ones to flush, and a direct
    // bit an earlier prediction already identified still flushes, so
    // identifiedDirect() never goes stale.
    std::uint64_t changed = 0;
    for (std::size_t pos = 0; pos < k_; ++pos) {
        const std::uint64_t mismatch =
            obs.written.lane(pos) ^ obs.received.lane(pos);
        changed |= mismatch & ~direct_.lane(pos);
        direct_.lane(pos) |= mismatch;
        atRisk_.lane(pos) |= mismatch;
    }
    changed &= liveMask_;
    if (changed != 0)
        dirty_ = true;
    while (changed != 0) {
        const auto lane =
            static_cast<std::size_t>(std::countr_zero(changed));
        changed &= changed - 1;
        extractLane(direct_, lane);
        if (const gf2::BitVector *predicted =
                profilers_[lane]->laneDirectGrew(laneScratch_)) {
            // Fold the refreshed predictions into the lane's identified
            // state; the flush unions them with everything else, which
            // matches the scalar profiler's identified_ |= predicted.
            predicted->forEachSetBit([&](std::size_t pos) {
                atRisk_.lane(pos) |= std::uint64_t{1} << lane;
            });
        }
    }
}

void
SlicedProfilerGroup::flushIfDirty()
{
    if (!dirty_)
        return;
    dirty_ = false;
    atRisk_.scatterPrefix(k_, flushScratch_);
    for (std::size_t w = 0; w < profilers_.size(); ++w)
        profilers_[w]->absorbLaneIdentified(flushScratch_[w]);
    if (kind_ == LaneObserveKind::PostCorrection)
        return;
    // Bypass: the direct set coincides with the identified set, so the
    // same scatter feeds both members. BypassAware keeps its own
    // direct_ slice (identified is a strict superset there).
    if (kind_ == LaneObserveKind::BypassAware)
        direct_.scatterPrefix(k_, flushScratch_);
    for (std::size_t w = 0; w < profilers_.size(); ++w)
        profilers_[w]->absorbLaneDirect(flushScratch_[w]);
}

} // namespace harp::core
