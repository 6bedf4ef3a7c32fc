#include "harpd/lifecycle.hh"

#include <algorithm>

namespace harp::harpd {

namespace {

StopReason
reasonOf(Event event)
{
    switch (event) {
    case Event::Cancel:
        return StopReason::Cancel;
    case Event::Deadline:
        return StopReason::Deadline;
    case Event::Shutdown:
        return StopReason::Shutdown;
    case Event::IoFailure:
        return StopReason::IoFailure;
    default:
        return StopReason::None;
    }
}

/** Where a run that stopped without publishing lands. */
State
stoppedState(StopReason reason)
{
    static constexpr State byReason[] = {
        State::Cancelled, State::Cancelled, State::DeadlineExceeded,
        State::Drained, State::Degraded};
    return byReason[static_cast<int>(reason)];
}

} // namespace

std::optional<Step>
apply(const Lifecycle &life, Event event)
{
    Step step{life, {}};
    Effects &fx = step.effects;
    const auto to = [&step](State state) {
        step.next.state_ = state;
        return std::optional<Step>(step);
    };
    const StopReason reason = reasonOf(event);
    switch (life.state_) {
    case State::New:
        fx.charge = event == Event::Admit;
        fx.park = event == Event::Park;
        if (!fx.charge && !fx.park)
            return std::nullopt;
        return to(fx.charge ? State::Running : State::Queued);
    case State::Queued:
        if (event == Event::Promote) {
            fx.unpark = fx.charge = true;
            return to(State::Running);
        }
        if (reason == StopReason::None || reason == StopReason::IoFailure)
            return std::nullopt;
        // Nothing was charged and nothing ran: unpark and say why.
        step.next.stop_ = reason;
        fx.unpark = fx.emitTerminal = fx.close = true;
        return to(reason == StopReason::Deadline ? State::DeadlineExceeded
                                                 : State::Cancelled);
    case State::Running: {
        // A reason to stop only lands if it outranks the one recorded;
        // the session sees it at its next wave boundary.
        if (reason != StopReason::None) {
            if (reason <= life.stop_)
                return std::nullopt;
            step.next.stop_ = reason;
            fx.abort = true;
            return to(State::Running);
        }
        State next;
        if (event == Event::Published)
            next = State::Done;
        else if (event == Event::ComputeFailure)
            next = State::Failed;
        else if (event == Event::Stopped)
            next = stoppedState(life.stop_);
        else
            return std::nullopt;
        fx.release = fx.dropStaging = fx.close = true;
        fx.dropCheckpoint = next == State::Done || next == State::Failed ||
                            next == State::Cancelled;
        fx.emitTerminal = next != State::Drained;
        return to(next);
    }
    case State::Degraded:
    case State::DeadlineExceeded:
        // Resumable: cancel discards the checkpoint, so no later start
        // or resume brings the campaign back.
        if (event == Event::Cancel) {
            fx.dropCheckpoint = fx.dropStaging = true;
            return to(State::Cancelled);
        }
        if (event == Event::ResumeBegin)
            return to(State::Resuming);
        return std::nullopt;
    case State::Resuming:
        if (event == Event::ResumeAbort)
            return to(stoppedState(life.stop_));
        // A previous run published and died before dropping the
        // checkpoint: the results are complete, finish the bookkeeping.
        if (event == Event::Published) {
            fx.dropCheckpoint = fx.dropStaging = true;
            return to(State::Done);
        }
        return std::nullopt;
    default: // Drained waits for the next start; the rest are over.
        return std::nullopt;
    }
}

State
Lifecycle::shown() const
{
    if (state_ == State::Drained)
        return State::Running;
    if (state_ == State::Resuming)
        return stoppedState(stop_);
    return state_ == State::New ? State::Queued : state_;
}

const char *
Lifecycle::wireName() const
{
    return stateName(shown());
}

const char *
stateName(State state)
{
    static constexpr const char *names[] = {
        "new",       "queued",   "running",           "drained",
        "done",      "failed",   "cancelled",         "degraded",
        "deadline_exceeded",     "resuming"};
    return names[static_cast<int>(state)];
}

bool
Admission::fits(const Usage &usage, std::size_t jobs) const
{
    return (limits_.campaigns == 0 || usage.campaigns < limits_.campaigns) &&
           (limits_.jobs == 0 || usage.jobs + jobs <= limits_.jobs);
}

Admission::Verdict
Admission::judge(const std::string &tenant, std::size_t jobs) const
{
    if (fits(tenant, jobs))
        return Verdict::Admit;
    if (parked_.size() < limits_.queue && fits(Usage{}, jobs))
        return Verdict::Park;
    return Verdict::Shed;
}

Admission::Usage
Admission::usage(const std::string &tenant) const
{
    const auto it = tenants_.find(tenant);
    return it != tenants_.end() ? it->second : Usage{};
}

void
Admission::charge(const std::string &tenant, std::size_t jobs)
{
    Usage &usage = tenants_[tenant];
    usage.campaigns += 1;
    usage.jobs += jobs;
}

void
Admission::release(const std::string &tenant, std::size_t jobs)
{
    const auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        return;
    it->second.campaigns -= std::min<std::size_t>(1, it->second.campaigns);
    it->second.jobs -= std::min(jobs, it->second.jobs);
    if (it->second.campaigns == 0 && it->second.jobs == 0)
        tenants_.erase(it);
}

void
Admission::unpark(const std::string &id)
{
    parked_.erase(std::remove(parked_.begin(), parked_.end(), id),
                  parked_.end());
}

std::size_t
Admission::position(const std::string &id) const
{
    return static_cast<std::size_t>(
        std::find(parked_.begin(), parked_.end(), id) - parked_.begin());
}

} // namespace harp::harpd
