/**
 * @file
 * The resident profiling service: one warm process multiplexing many
 * tenants' campaign submissions onto a shared thread pool.
 *
 * Layering (see docs/ARCHITECTURE.md):
 *
 *   accept loop ── per-connection reader thread ── verb dispatch
 *        │                                             │ submit
 *        │                              campaign worker thread
 *        │                        CampaignSession (runner/session.hh)
 *        │     sink: checkpoint + results + event log (durability.hh)
 *        └── client stream:  BoundedQueue -> socket (backpressure)
 *
 * Contracts:
 *  - A served campaign's JSONL and summary.json are byte-identical to
 *    a batch `harp_run --no-timings` of the same specs/seed/repeat at
 *    any thread count.
 *  - Completed jobs are checkpointed — written *and fsynced* through
 *    the common::io seam — before any client sees them; a killed
 *    daemon resumes them on restart without recomputation, detached
 *    from any client.
 *  - Degrade, never corrupt: every durable-path I/O failure (ENOSPC,
 *    EIO, a failed fsync or publish rename) moves the campaign to
 *    `degraded` with a structured status (errno name + retriable
 *    flag), keeps its checkpoint, and stays resumable via the `resume`
 *    verb once the fault clears. Only genuine computation failures
 *    reach `failed`.
 *  - Every deterministic streamed event carries a `seq` stable across
 *    kill/resume; `subscribe from=<seq>` replays the in-memory event
 *    log so a re-attaching client loses and duplicates nothing.
 *  - Per-tenant admission control bounds concurrent campaigns and
 *    in-flight jobs; oversubscribed submits are shed with a
 *    structured `quota_exceeded` + `retry_after_ms` reply instead of
 *    queueing unboundedly. A watchdog marks campaigns that stop
 *    making progress as `stalled` in status rather than letting
 *    clients hang on a wedged daemon.
 *  - Overload brownout instead of a cliff: admitted campaigns share
 *    the pool through a weighted fair governor (per-tenant weights x
 *    priority classes, stride-selected at wave granularity, no
 *    starvation; background-class campaigns are narrowed first). With
 *    an admission queue configured, over-quota submits park with a
 *    `queued` event (position + retry_after_ms estimate) and admit in
 *    arrival order as quota frees; only a full queue sheds. A
 *    campaign's `deadline_ms` expires it cooperatively at the next
 *    wave boundary into the resumable `deadline_exceeded` state —
 *    checkpoint kept, no torn output.
 *  - A disconnected client never aborts its campaign: the output
 *    queue closes, producers drop their events, and the campaign runs
 *    to completion on disk (exactly like a resume).
 *  - Graceful shutdown drains in-flight jobs: sessions stop at the
 *    next wave boundary, running jobs finish and reach the
 *    checkpoint, then the process exits; unfinished campaigns resume
 *    on the next start.
 *
 * Every campaign state change goes through one transition table
 * (harpd/lifecycle.hh) and one commit function, in a fixed order.
 */

#ifndef HARP_HARPD_SERVER_HH
#define HARP_HARPD_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.hh"
#include "common/fair_scheduler.hh"
#include "common/io.hh"
#include "common/thread_pool.hh"
#include "harpd/checkpoint.hh"
#include "harpd/lifecycle.hh"
#include "harpd/net.hh"
#include "harpd/protocol.hh"
#include "runner/registry.hh"

namespace harp::harpd {

struct ServerConfig
{
    /** AF_UNIX socket path the daemon listens on. */
    std::string socketPath;
    /** Root for checkpoints/ and results/<campaign>/. */
    std::string dataDir;
    /** Shared pool width; 0 = hardware concurrency. */
    std::size_t threads = 0;
    /** Per-client output queue capacity (events) before producers
     *  block — the backpressure bound for slow consumers. */
    std::size_t clientQueueCapacity = 256;
    /** Experiment catalogue; nullptr = builtinRegistry(). */
    const runner::Registry *registry = nullptr;
    /** Fault schedule applied to every durable write (the chaos
     *  tier); nullptr = no injection. Not owned. */
    common::io::FaultPlan *ioFaultPlan = nullptr;
    /** Admission control: per-tenant concurrent-campaign cap
     *  (0 = unlimited). */
    std::size_t maxCampaignsPerTenant = 0;
    /** Admission control: per-tenant in-flight job cap
     *  (0 = unlimited). */
    std::size_t maxInflightJobsPerTenant = 0;
    /** Hint in `quota_exceeded` shed replies; also the per-position
     *  unit of the `queued` event's retry_after_ms estimate. */
    std::size_t shedRetryAfterMs = 1000;
    /** Admission queue bound: over-quota submits park (state `queued`)
     *  until quota frees instead of shedding, up to this many; a full
     *  queue sheds. 0 disables queueing (shed immediately — the
     *  pre-brownout behavior). */
    std::size_t admissionQueueLimit = 0;
    /** Fair-scheduler weight per tenant; unlisted tenants get
     *  defaultTenantWeight. Weights are throughput shares: a weight-3
     *  tenant gets 3x the pool slots of a weight-1 tenant while both
     *  are backlogged. */
    std::map<std::string, std::size_t> tenantWeights;
    std::size_t defaultTenantWeight = 1;
    /** Watchdog: a running campaign with no completed job or streamed
     *  event for this long is flagged `stalled` (0 = disabled). */
    std::size_t stallTimeoutMs = 0;
    /** Watchdog poll cadence. */
    std::size_t watchdogPollMs = 200;
};

class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket, sweep stale staging dirs, then resume every
     * campaign with a surviving checkpoint (each on its own detached
     * worker). A hostile checkpoints/ or results/ entry is set aside
     * or skipped — never thrown out of the server.
     * @throws std::runtime_error when binding or data-dir creation
     *         fails.
     */
    void start();

    /** Accept/serve until requestStop(); joins all workers before
     *  returning. */
    void serve();

    /** Ask serve() to stop. Async-signal-safe (writes one byte to a
     *  self-pipe); callable from any thread or a signal handler. */
    void requestStop();

    /** Ask serve() to write a checkpoint/status snapshot
     *  (<dataDir>/status.json) without stopping — the SIGHUP verb.
     *  Async-signal-safe, same self-pipe discipline as requestStop().
     *  Completed-job records are already fsynced per record, so the
     *  snapshot is the only state not yet on disk. */
    void requestStatusSnapshot();

    /** Campaigns resumed by start() (for logs/tests). */
    std::size_t resumedCampaigns() const { return resumed_; }

    /** The slot governor every campaign's waves go through (valid
     *  after start()); its grant log witnesses tenant shares. */
    const common::FairScheduler &fairScheduler() const { return *fair_; }

    /** Currently open client connections (leak witness for tests). */
    std::size_t activeConnections() const
    {
        return connectionCount_.load();
    }

  private:
    /** Event queue feeding one submit stream. */
    using EventQueue = common::BoundedQueue<std::string>;

    struct Campaign
    {
        CheckpointHeader header;
        std::vector<const runner::ExperimentSpec *> specs;
        std::vector<CheckpointRecord> restored;
        /** (point, repeat) jobs: the quota charge. Set before the
         *  campaign is shared, never written after. */
        std::size_t totalJobs = 0;
        /** Written only by commitLocked, under mutex_ and mutex. */
        Lifecycle life;
        /** Why it failed, degraded or expired (shown in those states);
         *  degraded adds the symbolic errno and whether waiting-and-
         *  resuming can clear it (ENOSPC yes, EIO no). */
        std::string error;
        std::string errnoName;
        bool retriable = false;
        std::atomic<std::size_t> completedJobs{0};
        /** Cooperative abort read by the session, the fair scheduler
         *  and the wave loop; stored only by commitLocked. */
        std::atomic<bool> abort{false};
        /** Deadline as a steady-clock deadline in ms; 0 = none. Not
         *  persisted: deadlines belong to callers, not computations. */
        std::atomic<std::uint64_t> deadlineAtMs{0};
        /** Fair-scheduler waves granted so far (progress events). */
        std::atomic<std::size_t> waveIndex{0};
        /** Replayable event log: entry i is the wire line whose
         *  `seq` is i. Rebuilt identically on resume (restored lines
         *  re-enter the sink in job order), so `subscribe from=` is
         *  stable across kill/resume and degraded→resume. */
        std::vector<std::string> log;
        /** Signalled on every log append and lifecycle step. */
        std::condition_variable cv;
        /** Watchdog: last progress tick (steady-clock ms). */
        std::atomic<std::uint64_t> lastProgressMs{0};
        std::atomic<bool> stalled{false};
        /** Null for resumed (detached) campaigns; closed when the
         *  stream ends or the client goes away. */
        std::shared_ptr<EventQueue> clientQueue;
        std::thread worker;
        std::mutex mutex; ///< guards life/error/log
    };

    /** What a committed step still owes the client stream once the
     *  locks are dropped (a push can block on a slow client). */
    struct Delivery
    {
        std::string terminal;
        bool close = false;
    };

    void connectionLoop(Fd fd);
    /** The campaign @p id, or nullptr after replying unknown_campaign. */
    std::shared_ptr<Campaign> findCampaign(int fd, const std::string &id);
    bool handleRequest(int fd, const std::string &line);
    void handleSubmit(int fd, const Request &request);
    bool handleSubscribe(int fd, const Request &request);
    void handleResume(int fd, const Request &request);
    void runCampaign(const std::shared_ptr<Campaign> &campaign);
    /** Run every job and publish; false when the run stopped early.
     *  @throws CheckpointIoError, std::exception */
    bool runJobs(const std::shared_ptr<Campaign> &campaign);
    /** Apply @p event to @p campaign and run its effects; false when
     *  the table refuses it. @p why and @p ec detail a failure. */
    bool commit(const std::shared_ptr<Campaign> &campaign, Event event,
                const std::string &why = {}, std::error_code ec = {});
    /** commit() minus the stream delivery. Caller holds mutex_. */
    std::optional<Delivery> commitLocked(
        const std::shared_ptr<Campaign> &campaign, Event event,
        const std::string &why = {}, std::error_code ec = {});
    void deliver(const Campaign &campaign, const Delivery &delivery);
    /** The line telling the stream how the campaign ended. Caller
     *  holds campaign.mutex. */
    std::string terminalLineLocked(Campaign &campaign);
    /** Promote parked campaigns that now fit, in arrival order
     *  (skipping ones that still don't). Caller holds mutex_. */
    void promoteLocked();
    /** Shutdown every campaign, close connections, join all threads. */
    void drain();
    /** Write <dataDir>/status.json atomically (SIGHUP). */
    void writeStatusSnapshot();
    /** Stamp @p event with the next seq, append it to the replayable
     *  log, and forward it to the submit stream (if any). */
    void publishEvent(Campaign &campaign, runner::JsonValue event);
    void watchdogLoop();
    /** Caller holds mutex_. */
    runner::JsonValue statusLocked(const std::string &id,
                                   Campaign &campaign) const;
    std::string checkpointPath(const std::string &id) const;
    std::string resultsDir(const std::string &id) const;
    std::string stagingDir(const std::string &id) const;

    ServerConfig config_;
    const runner::Registry *registry_;
    std::unique_ptr<common::ThreadPool> pool_;
    std::unique_ptr<common::FairScheduler> fair_;
    std::size_t poolThreads_ = 1;
    Fd listenFd_;
    SelfPipe stopPipe_;
    SelfPipe snapshotPipe_;
    std::atomic<bool> stopping_{false};
    std::size_t resumed_ = 0;
    std::thread watchdog_;

    mutable std::mutex mutex_; ///< guards campaigns_/admission_/connections
    std::map<std::string, std::shared_ptr<Campaign>> campaigns_;
    Admission admission_;
    std::vector<std::thread> connections_;
    std::vector<int> connectionFds_;
    std::atomic<std::size_t> connectionCount_{0};
};

} // namespace harp::harpd

#endif // HARP_HARPD_SERVER_HH
