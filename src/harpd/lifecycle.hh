/**
 * @file
 * A harpd campaign's lifecycle as one pure transition function, plus
 * the admission ledger and parked queue its quota effects act on.
 *
 * apply(life, event) returns the next lifecycle and the effects the
 * server must run, or nullopt when the event is refused in that state.
 * The server runs every step through one commit function in a fixed
 * order (docs/ARCHITECTURE.md), so each charge has exactly one release,
 * the abort flag has one writer, and the stop reason is recorded as it
 * arrives instead of being rebuilt from flags at the end.
 */

#ifndef HARP_HARPD_LIFECYCLE_HH
#define HARP_HARPD_LIFECYCLE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>

namespace harp::harpd {

/** The live states come first; ended() relies on the order. */
enum class State : std::uint8_t
{
    New,     ///< built, neither admitted nor parked yet
    Queued,  ///< parked for quota: not charged, nothing ran
    Running, ///< charged; the only state with a worker computing
    Drained, ///< shutdown stopped it; resumes next start; shows `running`
    Done,
    Failed,
    Cancelled,
    Degraded,         ///< I/O failure; checkpoint kept, resumable
    DeadlineExceeded, ///< deadline_ms expired; checkpoint kept, resumable
    Resuming,         ///< `resume` in flight; shows the state it resumes
};

enum class Event : std::uint8_t
{
    Admit,
    Park,
    Promote,
    Cancel,
    Deadline,
    Shutdown,
    IoFailure,
    ComputeFailure,
    Stopped, ///< the worker stopped at a wave boundary, unpublished
    Published,
    ResumeBegin,
    ResumeAbort,
};

/** Why a running campaign stops; a later enumerator outranks an
 *  earlier one. */
enum class StopReason : std::uint8_t
{
    None,
    Cancel,
    Deadline,
    Shutdown,
    IoFailure,
};

/** What the server does for one step, in this order. */
struct Effects
{
    bool park = false;   ///< append to the admission queue
    bool unpark = false; ///< leave the admission queue
    bool charge = false; ///< charge the tenant's quota
    bool release = false; ///< return it, then promote parked work
    bool abort = false;   ///< set the cooperative abort flag
    bool dropCheckpoint = false;
    bool dropStaging = false;
    bool emitTerminal = false; ///< tell the stream how it ended
    bool close = false;        ///< close the client stream
};

class Lifecycle;
struct Step;

/** The transition table; nullopt = @p event is refused in @p life. */
std::optional<Step> apply(const Lifecycle &life, Event event);

class Lifecycle
{
  public:
    State state() const { return state_; }
    /** The state `status` and `list` report. */
    State shown() const;
    const char *wireName() const;
    /** The stream is over: nothing more is appended to the log. */
    bool ended() const { return state_ > State::Running; }

  private:
    friend std::optional<Step> apply(const Lifecycle &, Event);

    State state_ = State::New;
    StopReason stop_ = StopReason::None;
};

struct Step
{
    Lifecycle next;
    Effects effects;
};

const char *stateName(State state);

/** Per-tenant quota ledger and the parked FIFO of campaign ids. Not
 *  synchronised: the server holds its mutex around every call. */
class Admission
{
  public:
    struct Limits
    {
        std::size_t campaigns = 0; ///< per tenant; 0 = unlimited
        std::size_t jobs = 0;      ///< in flight per tenant; 0 = unlimited
        std::size_t queue = 0;     ///< parked bound; 0 = never park
    };
    struct Usage
    {
        std::size_t campaigns = 0;
        std::size_t jobs = 0;
    };
    enum class Verdict
    {
        Admit,
        Park,
        Shed,
    };

    explicit Admission(Limits limits) : limits_(limits) {}

    /** Whether @p jobs more fit @p tenant's quota now. */
    bool fits(const std::string &tenant, std::size_t jobs) const
    {
        return fits(usage(tenant), jobs);
    }
    /** Whether the campaign cap, not the job cap, is what is full. */
    bool atCampaignLimit(const std::string &tenant) const
    {
        return limits_.campaigns > 0 &&
               usage(tenant).campaigns >= limits_.campaigns;
    }
    /** Admit if it fits; park if the queue has room and it would fit
     *  an empty ledger (anything else would park forever); else shed. */
    Verdict judge(const std::string &tenant, std::size_t jobs) const;
    Usage usage(const std::string &tenant) const;
    void charge(const std::string &tenant, std::size_t jobs);
    void release(const std::string &tenant, std::size_t jobs);
    void park(const std::string &id) { parked_.push_back(id); }
    void unpark(const std::string &id);
    /** Arrival-order index of parked @p id. */
    std::size_t position(const std::string &id) const;
    const std::deque<std::string> &parked() const { return parked_; }
    const std::map<std::string, Usage> &tenants() const { return tenants_; }

  private:
    bool fits(const Usage &usage, std::size_t jobs) const;

    Limits limits_;
    std::map<std::string, Usage> tenants_;
    std::deque<std::string> parked_;
};

} // namespace harp::harpd

#endif // HARP_HARPD_LIFECYCLE_HH
