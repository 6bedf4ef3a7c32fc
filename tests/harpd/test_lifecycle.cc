/**
 * @file
 * The harpd campaign lifecycle table, without a server: every (state,
 * event) cell against an independent expectation, quota charges
 * balanced by releases over every event sequence up to length 6, and
 * the stop-reason precedence over every arrival order. Also the
 * admission ledger and parked FIFO the quota effects act on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harpd/lifecycle.hh"

namespace harp::harpd {
namespace {

constexpr Event allEvents[] = {
    Event::Admit,          Event::Park,      Event::Promote,
    Event::Cancel,         Event::Deadline,  Event::Shutdown,
    Event::IoFailure,      Event::ComputeFailure, Event::Stopped,
    Event::Published,      Event::ResumeBegin, Event::ResumeAbort,
};

const char *
eventName(Event event)
{
    static const char *const names[] = {
        "Admit",     "Park",           "Promote",   "Cancel",
        "Deadline",  "Shutdown",       "IoFailure", "ComputeFailure",
        "Stopped",   "Published",      "ResumeBegin", "ResumeAbort"};
    return names[static_cast<int>(event)];
}

/** Effects as a word list, in the commit order. */
std::string
describe(const Effects &fx)
{
    const std::pair<bool, const char *> flags[] = {
        {fx.park, "park"},
        {fx.unpark, "unpark"},
        {fx.charge, "charge"},
        {fx.release, "release"},
        {fx.abort, "abort"},
        {fx.dropCheckpoint, "dropCheckpoint"},
        {fx.dropStaging, "dropStaging"},
        {fx.emitTerminal, "emit"},
        {fx.close, "close"},
    };
    std::string out;
    for (const auto &[set, name] : flags)
        if (set)
            out += (out.empty() ? "" : " ") + std::string(name);
    return out;
}

/** The lifecycle after @p events, each of which must be accepted. */
Lifecycle
after(std::initializer_list<Event> events)
{
    Lifecycle life;
    for (const Event event : events) {
        const std::optional<Step> step = apply(life, event);
        EXPECT_TRUE(step.has_value())
            << eventName(event) << " refused in " << stateName(life.state());
        if (step.has_value())
            life = step->next;
    }
    return life;
}

/** One way into every state (Running with no stop reason yet). */
const std::map<State, Lifecycle> &
everyState()
{
    static const std::map<State, Lifecycle> states = {
        {State::New, after({})},
        {State::Queued, after({Event::Park})},
        {State::Running, after({Event::Admit})},
        {State::Drained, after({Event::Admit, Event::Shutdown, Event::Stopped})},
        {State::Done, after({Event::Admit, Event::Published})},
        {State::Failed, after({Event::Admit, Event::ComputeFailure})},
        {State::Cancelled, after({Event::Admit, Event::Cancel, Event::Stopped})},
        {State::Degraded, after({Event::Admit, Event::IoFailure, Event::Stopped})},
        {State::DeadlineExceeded,
         after({Event::Admit, Event::Deadline, Event::Stopped})},
        {State::Resuming, after({Event::Admit, Event::IoFailure, Event::Stopped,
                                 Event::ResumeBegin})},
    };
    return states;
}

struct Cell
{
    State next;
    const char *effects;
};

/** The legal cells; every other (state, event) pair is refused. */
const std::map<std::pair<State, Event>, Cell> &
legalCells()
{
    const char *ending = "release dropCheckpoint dropStaging emit close";
    const char *discard = "dropCheckpoint dropStaging";
    static const std::map<std::pair<State, Event>, Cell> cells = {
        {{State::New, Event::Admit}, {State::Running, "charge"}},
        {{State::New, Event::Park}, {State::Queued, "park"}},

        {{State::Queued, Event::Promote}, {State::Running, "unpark charge"}},
        {{State::Queued, Event::Cancel}, {State::Cancelled, "unpark emit close"}},
        {{State::Queued, Event::Shutdown},
         {State::Cancelled, "unpark emit close"}},
        {{State::Queued, Event::Deadline},
         {State::DeadlineExceeded, "unpark emit close"}},

        {{State::Running, Event::Cancel}, {State::Running, "abort"}},
        {{State::Running, Event::Deadline}, {State::Running, "abort"}},
        {{State::Running, Event::Shutdown}, {State::Running, "abort"}},
        {{State::Running, Event::IoFailure}, {State::Running, "abort"}},
        {{State::Running, Event::Stopped}, {State::Cancelled, ending}},
        {{State::Running, Event::Published}, {State::Done, ending}},
        {{State::Running, Event::ComputeFailure}, {State::Failed, ending}},

        {{State::Degraded, Event::Cancel}, {State::Cancelled, discard}},
        {{State::Degraded, Event::ResumeBegin}, {State::Resuming, ""}},
        {{State::DeadlineExceeded, Event::Cancel}, {State::Cancelled, discard}},
        {{State::DeadlineExceeded, Event::ResumeBegin}, {State::Resuming, ""}},

        {{State::Resuming, Event::ResumeAbort}, {State::Degraded, ""}},
        {{State::Resuming, Event::Published}, {State::Done, discard}},
    };
    return cells;
}

TEST(Lifecycle, EveryCellMatchesTheTable)
{
    std::size_t legal = 0;
    for (const auto &[state, life] : everyState()) {
        ASSERT_EQ(life.state(), state);
        for (const Event event : allEvents) {
            const std::optional<Step> step = apply(life, event);
            const auto cell = legalCells().find({state, event});
            SCOPED_TRACE(std::string(stateName(state)) + " x " +
                         eventName(event));
            if (cell == legalCells().end()) {
                EXPECT_FALSE(step.has_value()) << "must be refused";
                continue;
            }
            ++legal;
            ASSERT_TRUE(step.has_value()) << "must be accepted";
            EXPECT_EQ(step->next.state(), cell->second.next);
            EXPECT_EQ(describe(step->effects), cell->second.effects);
        }
    }
    EXPECT_EQ(legal, legalCells().size());
}

TEST(Lifecycle, RefusesTheGuardedCells)
{
    // `resume` on a running campaign, a second resume while one is in
    // flight, and a cancel during an in-flight resume are all refused;
    // cancel on a campaign that ended for good, or that a shutdown
    // drained for the next start, is a no-op.
    EXPECT_FALSE(apply(after({Event::Admit}), Event::ResumeBegin));
    const Lifecycle resuming = everyState().at(State::Resuming);
    EXPECT_FALSE(apply(resuming, Event::ResumeBegin));
    EXPECT_FALSE(apply(resuming, Event::Cancel));
    for (const State ended :
         {State::Done, State::Failed, State::Cancelled, State::Drained})
        EXPECT_FALSE(apply(everyState().at(ended), Event::Cancel))
            << stateName(ended);
    // A repeated or outranked reason to stop is refused too: the
    // watchdog's repeat deadlines and late cancels change nothing.
    const Lifecycle expiring = after({Event::Admit, Event::Deadline});
    EXPECT_FALSE(apply(expiring, Event::Deadline));
    EXPECT_FALSE(apply(expiring, Event::Cancel));
}

TEST(Lifecycle, StoppedRunsKeepTheCheckpointOnlyWhenResumable)
{
    const std::pair<Event, std::pair<State, const char *>> cases[] = {
        {Event::IoFailure,
         {State::Degraded, "release dropStaging emit close"}},
        {Event::Shutdown, {State::Drained, "release dropStaging close"}},
        {Event::Deadline,
         {State::DeadlineExceeded, "release dropStaging emit close"}},
        {Event::Cancel,
         {State::Cancelled,
          "release dropCheckpoint dropStaging emit close"}},
    };
    for (const auto &[reason, expected] : cases) {
        const std::optional<Step> step =
            apply(after({Event::Admit, reason}), Event::Stopped);
        ASSERT_TRUE(step.has_value()) << eventName(reason);
        EXPECT_EQ(step->next.state(), expected.first) << eventName(reason);
        EXPECT_EQ(describe(step->effects), expected.second)
            << eventName(reason);
    }
}

TEST(Lifecycle, ShownStateAndStreamEnd)
{
    const std::map<State, std::pair<const char *, bool>> expected = {
        {State::Queued, {"queued", false}},
        {State::Running, {"running", false}},
        {State::Drained, {"running", true}},
        {State::Done, {"done", true}},
        {State::Failed, {"failed", true}},
        {State::Cancelled, {"cancelled", true}},
        {State::Degraded, {"degraded", true}},
        {State::DeadlineExceeded, {"deadline_exceeded", true}},
        {State::Resuming, {"degraded", true}},
    };
    for (const auto &[state, wire] : expected) {
        const Lifecycle &life = everyState().at(state);
        EXPECT_STREQ(life.wireName(), wire.first) << stateName(state);
        EXPECT_EQ(life.ended(), wire.second) << stateName(state);
    }
    // A resume that aborts goes back to where it came from.
    const Lifecycle expired = after(
        {Event::Park, Event::Deadline, Event::ResumeBegin});
    EXPECT_STREQ(expired.wireName(), "deadline_exceeded");
    const std::optional<Step> back = apply(expired, Event::ResumeAbort);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->next.state(), State::DeadlineExceeded);
}

TEST(Lifecycle, ChargesEqualReleasesOverEverySequence)
{
    // Depth-first over all 12^6 continuations of a parked and of an
    // admitted campaign. Invariants at every step: the campaign holds
    // one charge exactly while Running and sits in the admission queue
    // exactly while Queued, so every ended state has charges ==
    // releases and nothing is left parked.
    std::size_t visited = 0;
    std::size_t ended = 0;
    std::function<void(const Lifecycle &, int, int, int)> walk =
        [&](const Lifecycle &life, int charged, int parked, int depth) {
            ++visited;
            ASSERT_EQ(charged, life.state() == State::Running ? 1 : 0)
                << stateName(life.state());
            ASSERT_EQ(parked, life.state() == State::Queued ? 1 : 0)
                << stateName(life.state());
            if (life.ended())
                ++ended;
            if (depth == 6)
                return;
            for (const Event event : allEvents) {
                const std::optional<Step> step = apply(life, event);
                if (!step.has_value()) {
                    walk(life, charged, parked, depth + 1);
                    continue;
                }
                const Effects &fx = step->effects;
                ASSERT_FALSE(fx.charge && fx.release);
                walk(step->next, charged + fx.charge - fx.release,
                     parked + fx.park - fx.unpark, depth + 1);
            }
        };
    for (const Event start : {Event::Park, Event::Admit}) {
        const std::optional<Step> first = apply(Lifecycle{}, start);
        ASSERT_TRUE(first.has_value());
        const Effects &fx = first->effects;
        walk(first->next, fx.charge, fx.park, 0);
    }
    EXPECT_GT(visited, 2u * 2985984u); // 12^6 leaves per start
    EXPECT_GT(ended, 0u);
}

TEST(Lifecycle, StopPrecedenceIgnoresArrivalOrder)
{
    // I/O failure > shutdown drain > deadline > user cancel, whatever
    // order they arrive in before the wave boundary.
    const std::pair<Event, State> byRank[] = {
        {Event::Cancel, State::Cancelled},
        {Event::Deadline, State::DeadlineExceeded},
        {Event::Shutdown, State::Drained},
        {Event::IoFailure, State::Degraded},
    };
    std::size_t orders = 0;
    for (unsigned subset = 1; subset < 16; ++subset) {
        std::vector<int> ranks;
        for (int rank = 0; rank < 4; ++rank)
            if ((subset >> rank) & 1u)
                ranks.push_back(rank);
        do {
            Lifecycle life = after({Event::Admit});
            std::string order;
            for (const int rank : ranks) {
                order += std::string(eventName(byRank[rank].first)) + " ";
                if (const std::optional<Step> step =
                        apply(life, byRank[rank].first))
                    life = step->next;
            }
            const std::optional<Step> stopped = apply(life, Event::Stopped);
            ASSERT_TRUE(stopped.has_value()) << order;
            const int winner = *std::max_element(ranks.begin(), ranks.end());
            EXPECT_EQ(stopped->next.state(), byRank[winner].second)
                << order;
            ++orders;
        } while (std::next_permutation(ranks.begin(), ranks.end()));
    }
    EXPECT_EQ(orders, 64u);
}

TEST(Admission, AdmitsParksAndSheds)
{
    Admission admission({/*campaigns=*/1, /*jobs=*/10, /*queue=*/1});
    EXPECT_EQ(admission.judge("a", 4), Admission::Verdict::Admit);
    admission.charge("a", 4);
    EXPECT_TRUE(admission.atCampaignLimit("a"));
    EXPECT_FALSE(admission.atCampaignLimit("b"));
    EXPECT_EQ(admission.judge("b", 4), Admission::Verdict::Admit);
    // Over a's campaign cap but would fit an empty ledger: park.
    EXPECT_EQ(admission.judge("a", 4), Admission::Verdict::Park);
    // Could never fit the job cap: shed, even with queue room.
    EXPECT_EQ(admission.judge("a", 11), Admission::Verdict::Shed);
    admission.park("p");
    // Queue full: shed.
    EXPECT_EQ(admission.judge("a", 4), Admission::Verdict::Shed);
    admission.release("a", 4);
    EXPECT_TRUE(admission.tenants().empty());
    EXPECT_TRUE(admission.fits("a", 10));
    EXPECT_FALSE(admission.fits("a", 11));
}

TEST(Admission, ParkedQueueKeepsArrivalOrder)
{
    Admission admission({});
    for (const char *id : {"q0", "q1", "q2"})
        admission.park(id);
    EXPECT_EQ(admission.position("q2"), 2u);
    admission.unpark("q0");
    EXPECT_EQ(admission.position("q1"), 0u);
    EXPECT_EQ(admission.position("q2"), 1u);
    EXPECT_EQ(admission.parked().size(), 2u);
    // Unlimited limits admit anything; a zero queue bound never parks.
    EXPECT_EQ(admission.judge("t", 1000000), Admission::Verdict::Admit);
}

} // namespace
} // namespace harp::harpd
