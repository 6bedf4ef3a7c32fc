#include "core/profiler.hh"

#include <cassert>

#include "core/sliced_profiler_group.hh"

namespace harp::core {

Profiler::Profiler(std::size_t k)
    : k_(k), identified_(k)
{
}

Profiler::~Profiler()
{
    assert(laneGroup_ == nullptr && "profiler outlived by its engine");
}

void
Profiler::syncLaneState() const
{
    laneGroup_->flushIfDirty();
}

} // namespace harp::core
