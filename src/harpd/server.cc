#include "harpd/server.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "harpd/durability.hh"
#include "runner/campaign.hh"
#include "runner/session.hh"

namespace harp::harpd {

namespace fs = std::filesystem;
namespace io = common::io;
using runner::JsonValue;

namespace {

std::uint64_t
steadyMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

runner::SessionOptions
sessionOptions(const CheckpointHeader &header)
{
    runner::SessionOptions options;
    options.seed = header.seed;
    options.repeat = header.repeat;
    options.overrides = header.overrides;
    return options;
}

/** Total (point, repeat) jobs of a submission — also validates the
 *  override *values* (building each session parses them).
 *  @throws std::exception on invalid values. */
std::size_t
countJobs(const std::vector<const runner::ExperimentSpec *> &specs,
          const CheckpointHeader &header)
{
    std::size_t total = 0;
    for (const runner::ExperimentSpec *spec : specs)
        total += runner::CampaignSession(*spec, sessionOptions(header))
                     .totalJobs();
    return total;
}

/**
 * Enrolls one campaign with the shared FairScheduler for its compute
 * phase (leaving on destruction) and bridges its wave loop to it: each
 * wave blocks for a stride-selected grant (width + intra-job
 * allowance), each finished job hands its slot straight back so other
 * tenants start without waiting for the whole wave. Aborts (cancel,
 * deadline, shutdown) surface as a width-0 wave.
 */
class FairWaveScheduler : public runner::WaveScheduler
{
  public:
    FairWaveScheduler(common::FairScheduler &fair,
                      const CheckpointHeader &header, std::size_t weight,
                      std::atomic<std::size_t> &wave_index,
                      const std::atomic<bool> &abort)
        : fair_(fair),
          entity_(fair.enroll(header.tenant, weight, header.priority)),
          waveIndex_(wave_index), abort_(abort)
    {
    }

    FairWaveScheduler(const FairWaveScheduler &) = delete;
    FairWaveScheduler &operator=(const FairWaveScheduler &) = delete;
    ~FairWaveScheduler() override { fair_.leave(entity_); }

    Wave next(std::size_t remaining) override
    {
        const common::FairScheduler::Grant grant =
            fair_.acquire(entity_, remaining, &abort_);
        if (grant.width == 0)
            return Wave{0, 1};
        waveIndex_.fetch_add(1, std::memory_order_relaxed);
        return Wave{grant.width, grant.innerThreads};
    }

    void jobDone() override { fair_.releaseOne(entity_); }

  private:
    common::FairScheduler &fair_;
    std::uint64_t entity_;
    std::atomic<std::size_t> &waveIndex_;
    const std::atomic<bool> &abort_;
};

} // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      registry_(config_.registry != nullptr ? config_.registry
                                            : &runner::builtinRegistry()),
      admission_(Admission::Limits{config_.maxCampaignsPerTenant,
                                   config_.maxInflightJobsPerTenant,
                                   config_.admissionQueueLimit})
{
    poolThreads_ = config_.threads != 0
                       ? config_.threads
                       : std::max<std::size_t>(
                             1, std::thread::hardware_concurrency());
}

Server::~Server()
{
    // serve() drains on its way out; if it never ran (start() threw or
    // the caller stopped early), reap what exists.
    requestStop();
    drain();
}

std::string
Server::checkpointPath(const std::string &id) const
{
    return (fs::path(config_.dataDir) / "checkpoints" / (id + ".ckpt"))
        .string();
}

std::string
Server::resultsDir(const std::string &id) const
{
    return (fs::path(config_.dataDir) / "results" / id).string();
}

std::string
Server::stagingDir(const std::string &id) const
{
    return (fs::path(config_.dataDir) / "results" / (".tmp-" + id))
        .string();
}

void
Server::start()
{
    fs::create_directories(fs::path(config_.dataDir) / "checkpoints");
    fs::create_directories(fs::path(config_.dataDir) / "results");

    // requestStop() and requestStatusSnapshot() run in signal handlers.
    stopPipe_.open();
    snapshotPipe_.open();

    listenFd_ = listenUnix(config_.socketPath);
    pool_ = std::make_unique<common::ThreadPool>(poolThreads_);
    common::FairScheduler::Config fair_config;
    fair_config.slots = poolThreads_;
    fair_ = std::make_unique<common::FairScheduler>(fair_config);

    // Sweep staging dirs left by a killed or degraded run: results
    // only ever appear atomically under their final name, so any
    // .tmp-* entry is garbage — including a hostile non-directory
    // plant. Errors skip the entry; they never escape the server.
    {
        std::error_code ec;
        const fs::path results = fs::path(config_.dataDir) / "results";
        for (fs::directory_iterator it(results, ec), end;
             !ec && it != end; it.increment(ec)) {
            const fs::path path = it->path();
            if (path.filename().string().rfind(".tmp-", 0) != 0)
                continue;
            std::error_code cleanup;
            fs::remove_all(path, cleanup);
        }
    }

    // Resume every campaign with a surviving checkpoint, detached from
    // any client. Unreadable checkpoints are set aside as .bad — a
    // corrupted *tail* is not unreadable (loadCheckpoint already
    // truncate-recovered it); only a destroyed header lands here. All
    // filesystem faults here are contained: a hostile checkpoints/
    // entry is skipped, never thrown out of the server.
    std::error_code iter_ec;
    const fs::path ckpt_dir = fs::path(config_.dataDir) / "checkpoints";
    for (fs::directory_iterator it(ckpt_dir, iter_ec), end;
         !iter_ec && it != end; it.increment(iter_ec)) {
        const fs::path entry = it->path();
        if (entry.extension() != ".ckpt")
            continue;
        const std::string id = entry.stem().string();
        std::optional<LoadedCheckpoint> loaded =
            loadCheckpoint(entry.string());
        std::shared_ptr<Campaign> campaign;
        if (loaded.has_value() && loaded->header.campaign == id) {
            campaign = std::make_shared<Campaign>();
            campaign->header = std::move(loaded->header);
            campaign->restored = std::move(loaded->records);
            try {
                campaign->specs =
                    registry_->select(campaign->header.experiments);
                campaign->totalJobs =
                    countJobs(campaign->specs, campaign->header);
            } catch (const std::exception &) {
                campaign.reset();
            }
        }
        if (campaign == nullptr) {
            // If even setting it aside fails (read-only dir?), skip it;
            // the next start will try again.
            std::error_code rename_ec;
            fs::rename(entry, fs::path(entry.string() + ".bad"),
                       rename_ec);
            continue;
        }
        campaign->lastProgressMs.store(steadyMs());
        {
            // Restarts are never shed: the work was already admitted
            // once; just account it against the tenant again.
            std::lock_guard<std::mutex> lock(mutex_);
            campaigns_[id] = campaign;
            (void)commitLocked(campaign, Event::Admit);
        }
        campaign->worker =
            std::thread([this, campaign] { runCampaign(campaign); });
        ++resumed_;
    }

    // The watchdog doubles as the deadline enforcer, so it runs even
    // when stall detection is off.
    watchdog_ = std::thread([this] { watchdogLoop(); });
}

void
Server::requestStop()
{
    stopping_.store(true);
    stopPipe_.poke();
}

void
Server::requestStatusSnapshot()
{
    snapshotPipe_.poke();
}

void
Server::serve()
{
    while (!stopping_.load()) {
        pollfd fds[3] = {{listenFd_.get(), POLLIN, 0},
                         {stopPipe_.readFd(), POLLIN, 0},
                         {snapshotPipe_.readFd(), POLLIN, 0}};
        const int ready = ::poll(fds, 3, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if ((fds[1].revents & POLLIN) != 0 || stopping_.load())
            break;
        if ((fds[2].revents & POLLIN) != 0) {
            // One read coalesces a burst of SIGHUPs; leftover bytes
            // just trigger another (idempotent) snapshot.
            snapshotPipe_.drain();
            writeStatusSnapshot();
        }
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        Fd client(::accept(listenFd_.get(), nullptr, nullptr));
        if (!client.valid())
            continue;
        std::lock_guard<std::mutex> lock(mutex_);
        connectionFds_.push_back(client.get());
        connectionCount_.fetch_add(1);
        const int raw = client.release();
        connections_.emplace_back(
            [this, raw] { connectionLoop(Fd(raw)); });
    }

    // Drain: stop accepting, wind down clients, let in-flight jobs
    // finish at the next wave boundary (their results are already
    // checkpointed), leave unfinished campaigns for the next start.
    listenFd_.reset();
    ::unlink(config_.socketPath.c_str());
    drain();
}

void
Server::drain()
{
    // One critical section shuts every campaign down, so a drained
    // campaign's quota release cannot promote a parked one that is
    // about to be shut down.
    std::vector<std::shared_ptr<Campaign>> campaigns;
    std::vector<std::pair<std::shared_ptr<Campaign>, Delivery>> ended;
    std::vector<std::thread> connections;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[id, campaign] : campaigns_) {
            (void)id;
            campaigns.push_back(campaign);
            if (std::optional<Delivery> delivery =
                    commitLocked(campaign, Event::Shutdown))
                ended.emplace_back(campaign, std::move(*delivery));
        }
        connections.swap(connections_);
        for (const int fd : connectionFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (const auto &[campaign, delivery] : ended)
        deliver(*campaign, delivery);
    for (std::thread &connection : connections)
        if (connection.joinable())
            connection.join();
    for (const auto &campaign : campaigns)
        if (campaign->worker.joinable())
            campaign->worker.join();
    if (watchdog_.joinable())
        watchdog_.join();
}

void
Server::watchdogLoop()
{
    const auto cadence = std::chrono::milliseconds(
        std::max<std::size_t>(1, config_.watchdogPollMs));
    while (!stopping_.load()) {
        std::vector<std::shared_ptr<Campaign>> campaigns;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            campaigns.reserve(campaigns_.size());
            for (const auto &[id, campaign] : campaigns_) {
                (void)id;
                campaigns.push_back(campaign);
            }
        }
        const std::uint64_t now = steadyMs();
        for (const auto &campaign : campaigns) {
            Lifecycle life;
            {
                std::lock_guard<std::mutex> lock(campaign->mutex);
                life = campaign->life;
            }
            if (config_.stallTimeoutMs > 0) {
                const std::uint64_t last =
                    campaign->lastProgressMs.load();
                campaign->stalled.store(
                    life.state() == State::Running && last != 0 &&
                    now > last &&
                    now - last >= config_.stallTimeoutMs);
            }
            // Deadline enforcement: a queued campaign expires at once,
            // a running one at its next wave boundary; the table
            // refuses the repeats.
            const std::uint64_t deadline = campaign->deadlineAtMs.load();
            if (!life.ended() && deadline != 0 && now >= deadline)
                (void)commit(campaign, Event::Deadline);
        }
        std::this_thread::sleep_for(cadence);
    }
}

void
Server::connectionLoop(Fd fd)
{
    LineReader reader(fd.get());
    std::string line;
    bool keep_open = true;
    while (keep_open) {
        const LineReader::Result result =
            reader.readLine(line, maxLineBytes);
        if (result == LineReader::Result::Line) {
            keep_open = handleRequest(fd.get(), line);
            continue;
        }
        if (result == LineReader::Result::Oversized) {
            sendAll(fd.get(),
                    wireLine(errorReply(
                        errc::oversizedLine,
                        "request line exceeds " +
                            std::to_string(maxLineBytes) + " bytes")));
        } else if (result == LineReader::Result::EofPartial) {
            // Half-closed mid-line: best-effort structured reply (the
            // write side may still be open on the peer).
            sendAll(fd.get(),
                    wireLine(errorReply(errc::badRequest,
                                        "connection half-closed mid-"
                                        "line")));
        }
        keep_open = false;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        connectionFds_.erase(std::remove(connectionFds_.begin(),
                                         connectionFds_.end(), fd.get()),
                             connectionFds_.end());
    }
    fd.reset();
    connectionCount_.fetch_sub(1);
}

JsonValue
Server::statusLocked(const std::string &id, Campaign &campaign) const
{
    std::lock_guard<std::mutex> lock(campaign.mutex);
    const State shown = campaign.life.shown();
    JsonValue status = JsonValue::object();
    status.set("id", JsonValue(id));
    status.set("state", JsonValue(stateName(shown)));
    status.set("completed_jobs", JsonValue(campaign.completedJobs.load()));
    status.set("total_jobs", JsonValue(campaign.totalJobs));
    status.set("tenant", JsonValue(campaign.header.tenant));
    status.set("priority", JsonValue(common::priorityClassName(
                               campaign.header.priority)));
    // Re-attach cursor: `subscribe from=next_seq` continues the stream.
    status.set("next_seq", JsonValue(campaign.log.size()));
    if (shown == State::Queued)
        status.set("queue_position", JsonValue(admission_.position(id)));
    if (const std::uint64_t deadline = campaign.deadlineAtMs.load();
        deadline != 0) {
        const std::uint64_t now = steadyMs();
        status.set("deadline_ms_left",
                   JsonValue(deadline > now ? deadline - now : 0));
    }
    if (shown == State::Failed || shown == State::Degraded ||
        shown == State::DeadlineExceeded)
        status.set("error", JsonValue(campaign.error));
    if (shown == State::Degraded) {
        status.set("errno_name", JsonValue(campaign.errnoName));
        status.set("retriable", JsonValue(campaign.retriable));
    }
    if (campaign.stalled.load()) {
        status.set("stalled", JsonValue(true));
        const std::uint64_t last = campaign.lastProgressMs.load();
        const std::uint64_t now = steadyMs();
        status.set("stalled_ms",
                   JsonValue(now > last ? now - last : 0));
    }
    return status;
}

bool
Server::handleRequest(int fd, const std::string &line)
{
    JsonValue error;
    const std::optional<Request> request = parseRequest(line, error);
    if (!request.has_value())
        return sendAll(fd, wireLine(error));

    switch (request->verb) {
    case Verb::Ping: {
        JsonValue reply = JsonValue::object();
        reply.set("type", JsonValue("pong"));
        return sendAll(fd, wireLine(reply));
    }
    case Verb::List: {
        JsonValue reply = JsonValue::object();
        reply.set("type", JsonValue("list"));
        reply.set("registry", runner::registryToJson(*registry_));
        JsonValue list = JsonValue::array();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const auto &[id, campaign] : campaigns_)
                list.push(statusLocked(id, *campaign));
        }
        reply.set("campaigns", list);
        reply.set("connections", JsonValue(connectionCount_.load()));
        reply.set("pool_backlog",
                  JsonValue(pool_ != nullptr ? pool_->backlog() : 0));
        return sendAll(fd, wireLine(reply));
    }
    case Verb::Status: {
        const std::shared_ptr<Campaign> campaign =
            findCampaign(fd, request->campaign);
        if (campaign == nullptr)
            return true;
        JsonValue reply;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            reply = statusLocked(request->campaign, *campaign);
        }
        reply.set("type", JsonValue("status"));
        return sendAll(fd, wireLine(reply));
    }
    case Verb::Cancel: {
        const std::shared_ptr<Campaign> campaign =
            findCampaign(fd, request->campaign);
        if (campaign == nullptr)
            return true;
        // Refused (and still answered the same) once the campaign has
        // ended for good or while a resume is in flight.
        (void)commit(campaign, Event::Cancel);
        JsonValue reply = JsonValue::object();
        reply.set("type", JsonValue("ok"));
        reply.set("campaign", JsonValue(request->campaign));
        reply.set("cancelling", JsonValue(true));
        return sendAll(fd, wireLine(reply));
    }
    case Verb::Submit:
        handleSubmit(fd, *request);
        return true;
    case Verb::Subscribe:
        return handleSubscribe(fd, *request);
    case Verb::Resume:
        handleResume(fd, *request);
        return true;
    case Verb::Shutdown: {
        JsonValue reply = JsonValue::object();
        reply.set("type", JsonValue("ok"));
        reply.set("shutting_down", JsonValue(true));
        sendAll(fd, wireLine(reply));
        requestStop();
        return false;
    }
    }
    return false;
}

void
Server::handleSubmit(int fd, const Request &request)
{
    std::vector<const runner::ExperimentSpec *> specs;
    try {
        specs = registry_->select(request.experiments);
    } catch (const std::exception &e) {
        sendAll(fd,
                wireLine(errorReply(errc::unknownExperiment, e.what())));
        return;
    }
    // Batch-CLI parity: every override must be an axis or tunable of
    // at least one selected experiment.
    for (const auto &[name, text] : request.overrides) {
        (void)text;
        if (!runner::acceptsOverride(specs, name)) {
            sendAll(fd, wireLine(errorReply(
                            errc::badRequest,
                            "unknown override '" + name +
                                "' (not an axis or tunable of the "
                                "selected experiments)")));
            return;
        }
    }

    auto campaign = std::make_shared<Campaign>();
    campaign->header.campaign = request.campaign;
    campaign->header.experiments = request.experiments;
    campaign->header.seed = request.seed;
    campaign->header.repeat = request.repeat;
    campaign->header.overrides = request.overrides;
    campaign->header.tenant = request.tenant;
    campaign->header.priority = request.priority;
    if (request.deadlineMs > 0)
        campaign->deadlineAtMs.store(steadyMs() + request.deadlineMs);
    campaign->specs = std::move(specs);

    // Expand the grids up front: rejects bad override values at submit
    // time and prices the submission for admission control.
    try {
        campaign->totalJobs = countJobs(campaign->specs, campaign->header);
    } catch (const std::exception &e) {
        sendAll(fd, wireLine(errorReply(errc::badRequest, e.what())));
        return;
    }
    const std::size_t total = campaign->totalJobs;

    const std::shared_ptr<EventQueue> queue =
        std::make_shared<EventQueue>(config_.clientQueueCapacity);
    campaign->clientQueue = queue;
    campaign->lastProgressMs.store(steadyMs());
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_.load()) {
            sendAll(fd, wireLine(errorReply(errc::shuttingDown,
                                            "harpd is shutting down")));
            return;
        }
        // Double-submit protection spans restarts: a live table entry
        // (running or terminal) or completed results on disk both
        // make the id taken.
        if (campaigns_.count(request.campaign) > 0 ||
            fs::exists(resultsDir(request.campaign))) {
            sendAll(fd, wireLine(errorReply(
                            errc::duplicateCampaign,
                            "campaign '" + request.campaign +
                                "' already exists")));
            return;
        }
        // Brownout: over-quota work parks in a bounded FIFO instead of
        // shedding; only a full queue (or work that could never fit)
        // sheds, with a structured retry hint.
        const Admission::Verdict verdict =
            admission_.judge(request.tenant, total);
        if (verdict == Admission::Verdict::Shed) {
            JsonValue reply = errorReply(
                errc::quotaExceeded,
                admission_.atCampaignLimit(request.tenant)
                    ? "tenant '" + request.tenant + "' is at its " +
                          std::to_string(config_.maxCampaignsPerTenant) +
                          "-campaign limit"
                    : "tenant '" + request.tenant +
                          "' would exceed its in-flight job limit (" +
                          std::to_string(
                              admission_.usage(request.tenant).jobs) +
                          "+" + std::to_string(total) + " > " +
                          std::to_string(config_.maxInflightJobsPerTenant) +
                          ")");
            reply.set("retriable", JsonValue(true));
            reply.set("retry_after_ms", JsonValue(config_.shedRetryAfterMs));
            sendAll(fd, wireLine(reply));
            return;
        }
        campaigns_[request.campaign] = campaign;
        const bool park = verdict == Admission::Verdict::Park;
        (void)commitLocked(campaign, park ? Event::Park : Event::Admit);
        // Parked campaigns announce their place in line before anything
        // else can end them; the estimate is one shed-retry unit per
        // campaign ahead. The queue is fresh, so the push never blocks.
        if (park) {
            const std::size_t position =
                admission_.position(request.campaign);
            JsonValue event = JsonValue::object();
            event.set("type", JsonValue("queued"));
            event.set("campaign", JsonValue(request.campaign));
            event.set("position", JsonValue(position));
            event.set("retry_after_ms",
                      JsonValue(config_.shedRetryAfterMs * (position + 1)));
            queue->push(wireLine(event));
        }
    }
    campaign->worker =
        std::thread([this, campaign] { runCampaign(campaign); });

    // Stream events until the campaign closes the queue. A failed
    // write means the client vanished: close the queue so producers
    // stop paying for it, then keep draining so nothing blocks; the
    // campaign itself continues to completion on disk.
    bool client_alive = true;
    for (;;) {
        std::optional<std::string> event = queue->pop();
        if (!event.has_value())
            break;
        if (client_alive && !sendAll(fd, *event)) {
            client_alive = false;
            queue->close();
        }
    }
}

std::shared_ptr<Server::Campaign>
Server::findCampaign(int fd, const std::string &id)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = campaigns_.find(id);
        if (it != campaigns_.end())
            return it->second;
    }
    sendAll(fd, wireLine(errorReply(errc::unknownCampaign,
                                    "no campaign '" + id + "'")));
    return nullptr;
}

bool
Server::handleSubscribe(int fd, const Request &request)
{
    const std::shared_ptr<Campaign> campaign =
        findCampaign(fd, request.campaign);
    if (campaign == nullptr)
        return true;
    JsonValue ack = JsonValue::object();
    ack.set("type", JsonValue("subscribed"));
    ack.set("campaign", JsonValue(request.campaign));
    ack.set("from", JsonValue(request.from));
    if (!sendAll(fd, wireLine(ack)))
        return false;

    // Replay from the cursor, then follow live appends. Batches are
    // copied out under the lock and sent outside it so a slow
    // subscriber never blocks the producing campaign.
    std::size_t next = static_cast<std::size_t>(request.from);
    for (;;) {
        std::vector<std::string> batch;
        bool complete = false;
        {
            std::unique_lock<std::mutex> lock(campaign->mutex);
            campaign->cv.wait_for(
                lock, std::chrono::milliseconds(100), [&] {
                    return campaign->log.size() > next ||
                           campaign->life.ended();
                });
            while (next < campaign->log.size())
                batch.push_back(campaign->log[next++]);
            complete = campaign->life.ended();
        }
        for (const std::string &event : batch)
            if (!sendAll(fd, event))
                return false;
        if (complete && batch.empty())
            break;
        if (stopping_.load())
            break;
    }
    // Terminal snapshot: how the stream ended (done / degraded /
    // cancelled / failed) plus the re-attach cursor.
    JsonValue status;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        status = statusLocked(request.campaign, *campaign);
    }
    status.set("type", JsonValue("status"));
    return sendAll(fd, wireLine(status));
}

void
Server::handleResume(int fd, const Request &request)
{
    const std::string &id = request.campaign;
    const std::shared_ptr<Campaign> old = findCampaign(fd, id);
    if (old == nullptr)
        return;
    if (!commit(old, Event::ResumeBegin)) {
        std::string state;
        {
            std::lock_guard<std::mutex> lock(old->mutex);
            state = old->life.wireName();
            if (old->life.state() == State::Resuming)
                state += " with a resume in flight";
        }
        sendAll(fd, wireLine(errorReply(
                        errc::notDegraded,
                        "campaign '" + id + "' is " + state +
                            "; only degraded or deadline_exceeded "
                            "campaigns can be resumed")));
        return;
    }
    // The worker committed the stopped state on its way out, so the
    // join returns promptly.
    if (old->worker.joinable())
        old->worker.join();

    // Crash window: publish rename landed but the checkpoint removal
    // didn't. The results are complete — finish the bookkeeping.
    if (fs::exists(resultsDir(id))) {
        (void)commit(old, Event::Published);
        JsonValue reply = JsonValue::object();
        reply.set("type", JsonValue("ok"));
        reply.set("campaign", JsonValue(id));
        reply.set("resuming", JsonValue(false));
        reply.set("state", JsonValue("done"));
        sendAll(fd, wireLine(reply));
        return;
    }

    // Same submission, restarted from its durable record. A failure
    // that tore the checkpoint header left nothing durable: restart
    // from scratch.
    auto campaign = std::make_shared<Campaign>();
    campaign->header = old->header;
    campaign->specs = old->specs;
    campaign->totalJobs = old->totalJobs;
    if (std::optional<LoadedCheckpoint> loaded =
            loadCheckpoint(checkpointPath(id));
        loaded.has_value() && loaded->header.campaign == id)
        campaign->restored = std::move(loaded->records);
    // A resumed campaign starts with a clean deadline slate: the old
    // deadline already fired (or belongs to a disconnected caller);
    // the resume request may set a fresh one.
    if (request.deadlineMs > 0)
        campaign->deadlineAtMs.store(steadyMs() + request.deadlineMs);
    campaign->lastProgressMs.store(steadyMs());
    std::optional<JsonValue> refusal;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_.load()) {
            refusal = errorReply(errc::shuttingDown,
                                 "harpd is shutting down");
        } else if (!admission_.fits(campaign->header.tenant,
                                    campaign->totalJobs)) {
            refusal = errorReply(errc::quotaExceeded,
                                 "tenant '" + campaign->header.tenant +
                                     "' has no headroom to resume '" +
                                     id + "'");
            refusal->set("retriable", JsonValue(true));
            refusal->set("retry_after_ms",
                         JsonValue(config_.shedRetryAfterMs));
        }
        if (refusal.has_value()) {
            (void)commitLocked(old, Event::ResumeAbort);
        } else {
            campaigns_[id] = campaign; // replaces the resumable entry
            (void)commitLocked(campaign, Event::Admit);
        }
    }
    if (refusal.has_value()) {
        sendAll(fd, wireLine(*refusal));
        return;
    }
    campaign->worker =
        std::thread([this, campaign] { runCampaign(campaign); });

    JsonValue reply = JsonValue::object();
    reply.set("type", JsonValue("ok"));
    reply.set("campaign", JsonValue(id));
    reply.set("resuming", JsonValue(true));
    sendAll(fd, wireLine(reply));
}

void
Server::publishEvent(Campaign &campaign, JsonValue event)
{
    std::string line;
    {
        std::lock_guard<std::mutex> lock(campaign.mutex);
        event.set("seq", JsonValue(campaign.log.size()));
        line = wireLine(event);
        campaign.log.push_back(line);
    }
    campaign.cv.notify_all();
    campaign.lastProgressMs.store(steadyMs());
    if (campaign.clientQueue != nullptr)
        campaign.clientQueue->push(line);
}

bool
Server::commit(const std::shared_ptr<Campaign> &campaign, Event event,
               const std::string &why, std::error_code ec)
{
    std::optional<Delivery> delivery;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        delivery = commitLocked(campaign, event, why, ec);
    }
    if (delivery.has_value())
        deliver(*campaign, *delivery);
    return delivery.has_value();
}

std::optional<Server::Delivery>
Server::commitLocked(const std::shared_ptr<Campaign> &campaign, Event event,
                     const std::string &why, std::error_code ec)
{
    // The commit order: files, queue and ledger, abort, reason, then
    // the state. status/list read the state under mutex_, so a client
    // that sees `done` never finds the checkpoint, or its own quota,
    // still held.
    Campaign &c = *campaign;
    const std::string &id = c.header.campaign;
    Effects fx;
    Delivery delivery;
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        const std::optional<Step> step = apply(c.life, event);
        if (!step.has_value())
            return std::nullopt;
        fx = step->effects;
        std::error_code ignored;
        if (fx.dropStaging)
            fs::remove_all(stagingDir(id), ignored);
        if (fx.dropCheckpoint)
            fs::remove(checkpointPath(id), ignored);
        if (fx.park)
            admission_.park(id);
        if (fx.unpark)
            admission_.unpark(id);
        if (fx.charge)
            admission_.charge(c.header.tenant, c.totalJobs);
        if (fx.release)
            admission_.release(c.header.tenant, c.totalJobs);
        if (fx.abort)
            c.abort.store(true);
        if (event == Event::IoFailure || event == Event::ComputeFailure) {
            c.error = why;
            c.errnoName = io::errnoName(ec.value());
            c.retriable = io::isRetriable(ec);
        } else if (event == Event::Deadline) {
            c.error = c.life.state() == State::Queued
                          ? "deadline expired while queued"
                          : "deadline_ms expired at a wave boundary";
        }
        c.life = step->next;
        if (fx.emitTerminal)
            delivery.terminal = terminalLineLocked(c);
        delivery.close = fx.close;
    }
    if (fx.release)
        promoteLocked();
    c.cv.notify_all();
    return delivery;
}

void
Server::deliver(const Campaign &campaign, const Delivery &delivery)
{
    if (campaign.clientQueue == nullptr)
        return;
    if (!delivery.terminal.empty())
        campaign.clientQueue->push(delivery.terminal);
    if (delivery.close)
        campaign.clientQueue->close();
}

std::string
Server::terminalLineLocked(Campaign &campaign)
{
    // `done` is a log member (it carries a seq); the others are out of
    // band: nothing follows them on the stream.
    JsonValue event = JsonValue::object();
    const State state = campaign.life.state();
    if (state == State::Failed)
        return wireLine(errorReply(errc::campaignFailed, campaign.error));
    event.set("type", JsonValue(stateName(state)));
    event.set("campaign", JsonValue(campaign.header.campaign));
    if (state == State::Done) {
        event.set("seq", JsonValue(campaign.log.size()));
        campaign.log.push_back(wireLine(event));
        return campaign.log.back();
    }
    if (state == State::Degraded) {
        event.set("errno_name", JsonValue(campaign.errnoName));
        event.set("retriable", JsonValue(campaign.retriable));
        event.set("message", JsonValue(campaign.error));
    } else if (state == State::DeadlineExceeded) {
        event.set("completed_jobs",
                  JsonValue(campaign.completedJobs.load()));
        event.set("total_jobs", JsonValue(campaign.totalJobs));
        event.set("resumable", JsonValue(true));
    }
    return wireLine(event);
}

void
Server::promoteLocked()
{
    // Arrival order, skipping over entries that still don't fit — a
    // big parked submission must not head-of-line-block a small one
    // from another tenant.
    const std::deque<std::string> parked = admission_.parked();
    for (const std::string &id : parked) {
        const std::shared_ptr<Campaign> &campaign = campaigns_.at(id);
        if (admission_.fits(campaign->header.tenant, campaign->totalJobs))
            (void)commitLocked(campaign, Event::Promote);
    }
}

void
Server::writeStatusSnapshot()
{
    JsonValue doc = JsonValue::object();
    doc.set("time_ms", JsonValue(steadyMs()));
    doc.set("pool_backlog",
            JsonValue(pool_ != nullptr ? pool_->backlog() : 0));
    JsonValue list = JsonValue::array();
    JsonValue usage = JsonValue::object();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[id, campaign] : campaigns_)
            list.push(statusLocked(id, *campaign));
        for (const auto &[tenant, used] : admission_.tenants()) {
            JsonValue entry = JsonValue::object();
            entry.set("campaigns", JsonValue(used.campaigns));
            entry.set("jobs", JsonValue(used.jobs));
            usage.set(tenant, entry);
        }
        doc.set("queued", JsonValue(admission_.parked().size()));
    }
    doc.set("campaigns", list);
    doc.set("tenants", usage);
    writeSnapshot((fs::path(config_.dataDir) / "status.json").string(),
                  doc.dump(2) + "\n");
}

void
Server::runCampaign(const std::shared_ptr<Campaign> &campaign)
{
    {
        // Parked submissions wait here for promotion; a cancel,
        // deadline or shutdown while parked ends them in the commit
        // that unparks them.
        std::unique_lock<std::mutex> lock(campaign->mutex);
        campaign->cv.wait(lock, [&campaign] {
            return campaign->life.state() != State::Queued;
        });
        if (campaign->life.state() != State::Running)
            return;
    }
    Event end = Event::Stopped;
    std::string why;
    try {
        if (runJobs(campaign))
            end = Event::Published;
    } catch (const CheckpointIoError &e) {
        (void)commit(campaign, Event::IoFailure,
                     std::string(e.what()) + ": " + e.code.message(),
                     e.code);
    } catch (const std::exception &e) {
        // A genuine computation failure (job error, bad spec): not
        // resumable, so the checkpoint goes too.
        end = Event::ComputeFailure;
        why = e.what();
    }
    (void)commit(campaign, end, why);
}

bool
Server::runJobs(const std::shared_ptr<Campaign> &campaign)
{
    const std::string &id = campaign->header.campaign;
    const std::string ckpt_path = checkpointPath(id);
    const fs::path staging = stagingDir(id);
    io::FaultPlan *plan = config_.ioFaultPlan;
    // Progress heartbeats are deterministic stream members: they fire
    // after every stride-th delivered result (counting restored +
    // fresh, in job order), so their seq positions are identical on
    // every incarnation of the campaign — only their *content*
    // (wave, jobs_per_sec) reflects this run. That keeps `subscribe
    // from=` cursors stable across kill/resume with heartbeats in the
    // log.
    const std::size_t total = campaign->totalJobs;
    const std::size_t progress_stride = std::max<std::size_t>(1, total / 64);
    std::size_t progress_results = 0;
    const std::uint64_t run_start_ms = steadyMs();
    const auto emitResult = [&, this](JsonValue event) {
        publishEvent(*campaign, std::move(event));
        ++progress_results;
        if (progress_results % progress_stride == 0 ||
            progress_results == total) {
            JsonValue tick = JsonValue::object();
            tick.set("type", JsonValue("progress"));
            tick.set("campaign", JsonValue(id));
            tick.set("wave", JsonValue(campaign->waveIndex.load()));
            tick.set("jobs_done", JsonValue(progress_results));
            tick.set("jobs_total", JsonValue(total));
            const std::uint64_t elapsed =
                std::max<std::uint64_t>(1, steadyMs() - run_start_ms);
            tick.set("jobs_per_sec",
                     JsonValue(static_cast<double>(progress_results) *
                               1000.0 / static_cast<double>(elapsed)));
            publishEvent(*campaign, std::move(tick));
        }
    };
    // The sink's first I/O failure stops the run at the next wave
    // boundary, as a degrade.
    const auto ioFailure = [this, &campaign](std::error_code ec,
                                             const std::string &where) {
        (void)commit(campaign, Event::IoFailure, where + ": " + ec.message(),
                     ec);
    };

    const bool resuming =
        !campaign->restored.empty() || fs::exists(ckpt_path);
    prepareStaging(staging.string());

    // Sessions first: checkpoint-restore before any job runs.
    const runner::SessionOptions session_options =
        sessionOptions(campaign->header);
    std::vector<std::unique_ptr<runner::CampaignSession>> sessions;
    sessions.reserve(campaign->specs.size());
    for (const runner::ExperimentSpec *spec : campaign->specs)
        sessions.push_back(std::make_unique<runner::CampaignSession>(
            *spec, session_options));
    std::size_t restored = 0;
    for (const CheckpointRecord &record : campaign->restored) {
        if (record.experiment < sessions.size() &&
            sessions[record.experiment]->restore(record.job, record.line))
            ++restored;
    }
    campaign->restored.clear();
    campaign->completedJobs.store(restored);
    campaign->lastProgressMs.store(steadyMs());

    if (campaign->clientQueue != nullptr) {
        JsonValue accepted = JsonValue::object();
        accepted.set("type", JsonValue("accepted"));
        accepted.set("campaign", JsonValue(id));
        accepted.set("total_jobs", JsonValue(total));
        accepted.set("restored_jobs", JsonValue(restored));
        campaign->clientQueue->push(wireLine(accepted));
    }

    CheckpointWriter checkpoint =
        resuming ? CheckpointWriter(ckpt_path, plan)
                 : CheckpointWriter(ckpt_path, campaign->header, plan);

    runner::CampaignSummary summary;
    summary.seed = campaign->header.seed;
    summary.threads = poolThreads_;
    summary.repeat = campaign->header.repeat;
    std::size_t completed_base = 0;

    const auto weight = config_.tenantWeights.find(campaign->header.tenant);
    FairWaveScheduler fair_waves(
        *fair_, campaign->header,
        std::max<std::size_t>(1, weight != config_.tenantWeights.end()
                                     ? weight->second
                                     : config_.defaultTenantWeight),
        campaign->waveIndex, campaign->abort);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        runner::CampaignSession &session = *sessions[i];
        const std::string &name = session.spec().name;
        const std::string jsonl_path = (staging / (name + ".jsonl")).string();
        io::File file;
        orDegrade(file.open(jsonl_path, /*truncate=*/true, plan),
                  "cannot open " + jsonl_path);
        ServedSink sink(file, &checkpoint, i, name, id, emitResult,
                        ioFailure);
        const std::size_t base = completed_base;
        const runner::CampaignSession::Outcome outcome = session.run(
            pool_.get(), poolThreads_, sink, &campaign->abort,
            [campaign, base](std::size_t done) {
                campaign->completedJobs.store(base + done);
                campaign->lastProgressMs.store(steadyMs());
            },
            &fair_waves);
        if (sink.failed())
            return false;
        // Staged results durable before the experiment is declared
        // finished (and before the next one starts).
        orDegrade(file.sync(), "cannot fsync " + jsonl_path);
        orDegrade(file.close(), "cannot close " + jsonl_path);
        if (outcome.cancelled)
            return false;
        completed_base += session.totalJobs();
        campaign->completedJobs.store(completed_base);

        runner::ExperimentRunSummary exp;
        exp.name = name;
        exp.points = session.points().size();
        exp.repeats = session.repeats();
        exp.jsonlPath =
            (fs::path(resultsDir(id)) / (name + ".jsonl")).string();
        exp.resultHash = outcome.resultHash;
        summary.experiments.push_back(exp);

        JsonValue event = JsonValue::object();
        event.set("type", JsonValue("experiment_done"));
        event.set("experiment", JsonValue(name));
        event.set("points", JsonValue(exp.points));
        event.set("repeats", JsonValue(exp.repeats));
        event.set("result_hash",
                  JsonValue(runner::formatResultHash(exp.resultHash)));
        publishEvent(*campaign, std::move(event));
    }

    // Deterministic summary (no timings), published atomically; any
    // failure along the way degrades with the checkpoint intact.
    const JsonValue summary_json = summary.toJson(/*include_timings=*/false);
    publishResults(staging.string(), resultsDir(id),
                   summary_json.dump(2) + "\n", plan);
    JsonValue event = JsonValue::object();
    event.set("type", JsonValue("summary"));
    event.set("summary", summary_json);
    publishEvent(*campaign, std::move(event));
    return true;
}

} // namespace harp::harpd
