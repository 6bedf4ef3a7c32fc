#include "harpd/server.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

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

/** Batch-CLI parity: every override must be an axis or tunable of at
 *  least one selected experiment. Returns an error message or "". */
std::string
validateOverrides(const std::vector<const runner::ExperimentSpec *> &specs,
                  const std::map<std::string, std::string> &overrides)
{
    for (const auto &[name, text] : overrides) {
        (void)text;
        const bool known = std::any_of(
            specs.begin(), specs.end(),
            [&name](const runner::ExperimentSpec *spec) {
                return spec->grid.findAxis(name) != nullptr ||
                       std::any_of(spec->tunables.begin(),
                                   spec->tunables.end(),
                                   [&name](const runner::TunableSpec &t) {
                                       return t.name == name;
                                   });
            });
        if (!known)
            return "unknown override '" + name +
                   "' (not an axis or tunable of the selected "
                   "experiments)";
    }
    return "";
}

/** First durable-path failure of a campaign: the errno and which
 *  writer hit it. */
struct SinkFailure
{
    std::error_code ec;
    std::string where;
};

/**
 * Per-experiment sink of one served campaign: every line goes to the
 * staged results file; fresh lines additionally reach the checkpoint —
 * written and fsynced *before* any client sees them (the durable
 * record leads the volatile stream) — and only then the event emitter.
 * The first I/O failure latches: the campaign is cancelled at the next
 * wave boundary and every later line is dropped, so no un-recorded
 * result ever reaches a client — degrade, never corrupt.
 */
class ServedSink : public runner::ResultSink
{
  public:
    ServedSink(io::File &file, CheckpointWriter *checkpoint,
               std::size_t experiment_index,
               const std::string &experiment_name,
               const std::string &campaign_id,
               std::function<void(JsonValue)> emit,
               std::atomic<bool> *cancel)
        : file_(file), checkpoint_(checkpoint),
          experimentIndex_(experiment_index),
          experimentName_(experiment_name), campaignId_(campaign_id),
          emit_(std::move(emit)), cancel_(cancel)
    {
    }

    void onResult(std::size_t job, const std::string &line,
                  bool fresh) override
    {
        if (failure_.has_value())
            return;
        if (std::error_code ec = file_.writeAll(line + "\n")) {
            fail(ec, "results file " + file_.path());
            return;
        }
        // Empty lines mark errored jobs (reported after the stream);
        // they must never be persisted as completed work.
        if (fresh && !line.empty() && checkpoint_ != nullptr) {
            if (std::error_code ec =
                    checkpoint_->add({experimentIndex_, job, line})) {
                fail(ec, "checkpoint " + checkpoint_->path());
                return;
            }
        }
        if (emit_) {
            JsonValue event = JsonValue::object();
            event.set("type", JsonValue("result"));
            event.set("campaign", JsonValue(campaignId_));
            event.set("experiment", JsonValue(experimentName_));
            event.set("job", JsonValue(job));
            event.set("line", JsonValue(line));
            emit_(std::move(event));
        }
    }

    const std::optional<SinkFailure> &failure() const { return failure_; }

  private:
    void fail(std::error_code ec, const std::string &where)
    {
        failure_ = SinkFailure{ec, where};
        if (cancel_ != nullptr)
            cancel_->store(true);
    }

    io::File &file_;
    CheckpointWriter *checkpoint_;
    std::size_t experimentIndex_;
    const std::string &experimentName_;
    const std::string &campaignId_;
    std::function<void(JsonValue)> emit_;
    std::atomic<bool> *cancel_;
    std::optional<SinkFailure> failure_;
};

/** A durable-path failure degrades the campaign with its errno. */
void
orDegrade(std::error_code ec, const std::string &what)
{
    if (ec)
        throw CheckpointIoError(what + ": " + ec.message(), ec);
}

/** Write @p text to @p path through the io seam: open, write, fsync,
 *  close. */
void
writeDurably(const std::string &path, const std::string &text,
             io::FaultPlan *plan)
{
    io::File out;
    orDegrade(out.open(path, /*truncate=*/true, plan),
              "cannot open " + path);
    orDegrade(out.writeAll(text), "cannot write " + path);
    orDegrade(out.sync(), "cannot fsync " + path);
    orDegrade(out.close(), "cannot close " + path);
}

/** Total (point, repeat) jobs of a submission — also validates the
 *  override *values* (grid expansion parses them).
 *  @throws std::exception on invalid values. */
std::size_t
countJobs(const std::vector<const runner::ExperimentSpec *> &specs,
          const CheckpointHeader &header)
{
    runner::SessionOptions options;
    options.seed = header.seed;
    options.repeat = header.repeat;
    options.overrides = header.overrides;
    std::size_t total = 0;
    for (const runner::ExperimentSpec *spec : specs)
        total += runner::CampaignSession(*spec, options).totalJobs();
    return total;
}

/**
 * Bridges one campaign's wave loop to the shared FairScheduler: each
 * wave blocks for a stride-selected grant (width + intra-job
 * allowance), each finished job hands its slot straight back so other
 * tenants start without waiting for the whole wave. Aborts (cancel,
 * deadline, shutdown) surface as a width-0 wave.
 */
class FairWaveScheduler : public runner::WaveScheduler
{
  public:
    FairWaveScheduler(common::FairScheduler &fair, std::uint64_t entity,
                      std::atomic<std::size_t> &wave_index,
                      const std::atomic<bool> &abort)
        : fair_(fair), entity_(entity), waveIndex_(wave_index),
          abort_(abort)
    {
    }

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
                                            : &runner::builtinRegistry())
{
    poolThreads_ = config_.threads != 0
                       ? config_.threads
                       : std::max<std::size_t>(
                             1, std::thread::hardware_concurrency());
}

Server::~Server()
{
    requestStop();
    // serve() joins everything; if serve() never ran (start() threw or
    // the caller stopped early), reap what exists.
    std::vector<std::thread> connections;
    std::vector<std::shared_ptr<Campaign>> campaigns;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        connections.swap(connections_);
        for (auto &[id, campaign] : campaigns_) {
            campaign->cancel.store(true);
            campaigns.push_back(campaign);
        }
        for (const int fd : connectionFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread &thread : connections)
        if (thread.joinable())
            thread.join();
    for (const auto &campaign : campaigns)
        if (campaign->worker.joinable())
            campaign->worker.join();
    if (watchdog_.joinable())
        watchdog_.join();
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

const char *
Server::stateName(CampaignState state)
{
    switch (state) {
    case CampaignState::Queued:
        return "queued";
    case CampaignState::Running:
        return "running";
    case CampaignState::Done:
        return "done";
    case CampaignState::Failed:
        return "failed";
    case CampaignState::Cancelled:
        return "cancelled";
    case CampaignState::Degraded:
        return "degraded";
    case CampaignState::DeadlineExceeded:
        return "deadline_exceeded";
    }
    return "unknown";
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
        std::size_t jobs = 0;
        if (loaded.has_value() && loaded->header.campaign == id) {
            campaign = std::make_shared<Campaign>();
            campaign->header = std::move(loaded->header);
            campaign->restored = std::move(loaded->records);
            try {
                campaign->specs =
                    registry_->select(campaign->header.experiments);
                jobs = countJobs(campaign->specs, campaign->header);
            } catch (const std::exception &) {
                campaign.reset();
            }
        }
        if (campaign == nullptr) {
            std::error_code rename_ec;
            fs::rename(entry, fs::path(entry.string() + ".bad"),
                       rename_ec);
            if (rename_ec) {
                // Can't even set it aside (read-only dir?): skip it;
                // the next start will try again.
                continue;
            }
            continue;
        }
        campaign->admittedJobs = jobs;
        campaign->chargedAdmission.store(true);
        campaign->lastProgressMs.store(steadyMs());
        {
            std::lock_guard<std::mutex> lock(mutex_);
            campaigns_[id] = campaign;
            // Restarts are never shed: the work was already admitted
            // once; just account it against the tenant again.
            TenantUsage &usage = tenants_[campaign->header.tenant];
            usage.campaigns += 1;
            usage.jobs += jobs;
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

    std::vector<std::shared_ptr<Campaign>> campaigns;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &[id, campaign] : campaigns_) {
            (void)id;
            campaign->cancel.store(true);
            campaigns.push_back(campaign);
        }
        for (const int fd : connectionFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (;;) {
        std::thread connection;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (connections_.empty())
                break;
            connection = std::move(connections_.back());
            connections_.pop_back();
        }
        if (connection.joinable())
            connection.join();
    }
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
            bool running;
            bool live;
            {
                std::lock_guard<std::mutex> lock(campaign->mutex);
                running = campaign->state == CampaignState::Running;
                live = running ||
                       campaign->state == CampaignState::Queued;
            }
            if (config_.stallTimeoutMs > 0) {
                const std::uint64_t last =
                    campaign->lastProgressMs.load();
                const bool stalled = running && last != 0 &&
                                     now > last &&
                                     now - last >= config_.stallTimeoutMs;
                campaign->stalled.store(stalled);
            }
            // Deadline enforcement: flip the cooperative cancel once;
            // the worker turns it into `deadline_exceeded` at the next
            // wave boundary (or straight away while queued).
            const std::uint64_t deadline = campaign->deadlineAtMs.load();
            if (live && deadline != 0 && now >= deadline &&
                !campaign->deadlineExpired.exchange(true)) {
                campaign->cancel.store(true);
                campaign->logCv.notify_all();
            }
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

std::string
Server::campaignStatusLine(const std::string &id, const Campaign &campaign)
{
    JsonValue status = JsonValue::object();
    status.set("id", JsonValue(id));
    status.set("state", JsonValue(stateName(campaign.state)));
    status.set("completed_jobs", JsonValue(campaign.completedJobs.load()));
    status.set("total_jobs", JsonValue(campaign.totalJobs));
    status.set("tenant", JsonValue(campaign.header.tenant));
    status.set("priority", JsonValue(common::priorityClassName(
                               campaign.header.priority)));
    // Re-attach cursor: `subscribe from=next_seq` continues the stream.
    status.set("next_seq", JsonValue(campaign.log.size()));
    if (campaign.state == CampaignState::Queued)
        status.set("queue_position",
                   JsonValue(campaign.queuePosition.load()));
    if (const std::uint64_t deadline = campaign.deadlineAtMs.load();
        deadline != 0) {
        const std::uint64_t now = steadyMs();
        status.set("deadline_ms_left",
                   JsonValue(deadline > now ? deadline - now : 0));
    }
    if (!campaign.error.empty())
        status.set("error", JsonValue(campaign.error));
    if (campaign.state == CampaignState::Degraded) {
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
    return status.dump();
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
            for (const auto &[id, campaign] : campaigns_) {
                std::lock_guard<std::mutex> state_lock(campaign->mutex);
                list.push(JsonValue::parse(
                    campaignStatusLine(id, *campaign)));
            }
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
            std::lock_guard<std::mutex> state_lock(campaign->mutex);
            reply = JsonValue::parse(
                campaignStatusLine(request->campaign, *campaign));
        }
        reply.set("type", JsonValue("status"));
        return sendAll(fd, wireLine(reply));
    }
    case Verb::Cancel: {
        const std::shared_ptr<Campaign> campaign =
            findCampaign(fd, request->campaign);
        if (campaign == nullptr)
            return true;
        campaign->cancel.store(true);
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
    if (const std::string bad = validateOverrides(specs,
                                                  request.overrides);
        !bad.empty()) {
        sendAll(fd, wireLine(errorReply(errc::badRequest, bad)));
        return;
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
    std::size_t total = 0;
    try {
        total = countJobs(campaign->specs, campaign->header);
    } catch (const std::exception &e) {
        sendAll(fd, wireLine(errorReply(errc::badRequest, e.what())));
        return;
    }

    campaign->clientQueue = std::make_shared<EventQueue>(
        config_.clientQueueCapacity);
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
        // Admission control: shed with a structured retry hint rather
        // than queue unboundedly on the shared pool.
        const TenantUsage usage = usageLocked(request.tenant);
        const QuotaCheck quota = checkQuota(usage, total);
        if (!quota.fits()) {
            // Brownout rung 2: park over-quota submits in a bounded
            // FIFO instead of shedding — but only work that *could*
            // ever fit an empty ledger; an impossible submission would
            // park forever. Rung 3, the shed, is reserved for a full
            // queue (or queueing disabled).
            const bool could_ever_fit =
                checkQuota(TenantUsage{}, total).fits();
            if (config_.admissionQueueLimit > 0 && could_ever_fit &&
                admissionQueue_.size() < config_.admissionQueueLimit) {
                campaign->state = CampaignState::Queued;
                campaign->admittedJobs = total;
                campaign->totalJobs = total;
                campaign->queuePosition.store(admissionQueue_.size());
                admissionQueue_.push_back(campaign);
                campaigns_[request.campaign] = campaign;
            } else {
                JsonValue reply = errorReply(
                    errc::quotaExceeded,
                    quota.overCampaigns
                        ? "tenant '" + request.tenant + "' is at its " +
                              std::to_string(
                                  config_.maxCampaignsPerTenant) +
                              "-campaign limit"
                        : "tenant '" + request.tenant +
                              "' would exceed its in-flight job limit "
                              "(" +
                              std::to_string(usage.jobs) + "+" +
                              std::to_string(total) + " > " +
                              std::to_string(
                                  config_.maxInflightJobsPerTenant) +
                              ")");
                reply.set("retriable", JsonValue(true));
                reply.set("retry_after_ms",
                          JsonValue(config_.shedRetryAfterMs));
                sendAll(fd, wireLine(reply));
                return;
            }
        } else {
            TenantUsage &admitted = tenants_[request.tenant];
            admitted.campaigns += 1;
            admitted.jobs += total;
            campaign->admittedJobs = total;
            campaign->totalJobs = total;
            campaign->chargedAdmission.store(true);
            campaigns_[request.campaign] = campaign;
        }
    }
    const std::shared_ptr<EventQueue> queue = campaign->clientQueue;
    // Parked campaigns announce their place in line before anything
    // else; the estimate is one shed-retry unit per campaign ahead.
    {
        std::lock_guard<std::mutex> state_lock(campaign->mutex);
        if (campaign->state == CampaignState::Queued && queue != nullptr) {
            const std::size_t position = campaign->queuePosition.load();
            JsonValue event = JsonValue::object();
            event.set("type", JsonValue("queued"));
            event.set("campaign", JsonValue(request.campaign));
            event.set("position", JsonValue(position));
            event.set("retry_after_ms",
                      JsonValue(config_.shedRetryAfterMs *
                                (position + 1)));
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
            campaign->logCv.wait_for(
                lock, std::chrono::milliseconds(100), [&] {
                    return campaign->log.size() > next ||
                           campaign->logComplete;
                });
            while (next < campaign->log.size())
                batch.push_back(campaign->log[next++]);
            complete = campaign->logComplete;
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
        std::lock_guard<std::mutex> lock(campaign->mutex);
        status = JsonValue::parse(
            campaignStatusLine(request.campaign, *campaign));
    }
    status.set("type", JsonValue("status"));
    return sendAll(fd, wireLine(status));
}

void
Server::handleResume(int fd, const Request &request)
{
    const std::shared_ptr<Campaign> old = findCampaign(fd, request.campaign);
    if (old == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lock(old->mutex);
        const bool resumable =
            old->state == CampaignState::Degraded ||
            old->state == CampaignState::DeadlineExceeded;
        if (!resumable || old->resumeInFlight) {
            sendAll(fd,
                    wireLine(errorReply(
                        errc::notDegraded,
                        "campaign '" + request.campaign + "' is " +
                            stateName(old->state) +
                            (old->resumeInFlight
                                 ? " with a resume in flight"
                                 : "") +
                            "; only degraded or deadline_exceeded "
                            "campaigns can be resumed")));
            return;
        }
        old->resumeInFlight = true;
    }
    // Degraded/deadline_exceeded are terminal for the worker — the
    // join returns promptly.
    if (old->worker.joinable())
        old->worker.join();

    const std::string &id = request.campaign;

    // Crash window: publish rename landed but the checkpoint removal
    // didn't. The results are complete — finish the bookkeeping.
    if (fs::exists(resultsDir(id))) {
        std::error_code cleanup;
        fs::remove(checkpointPath(id), cleanup);
        {
            std::lock_guard<std::mutex> lock(old->mutex);
            old->state = CampaignState::Done;
            old->error.clear();
            old->errnoName.clear();
            old->retriable = false;
            old->resumeInFlight = false;
        }
        JsonValue reply = JsonValue::object();
        reply.set("type", JsonValue("ok"));
        reply.set("campaign", JsonValue(id));
        reply.set("resuming", JsonValue(false));
        reply.set("state", JsonValue("done"));
        sendAll(fd, wireLine(reply));
        return;
    }

    auto campaign = std::make_shared<Campaign>();
    std::optional<LoadedCheckpoint> loaded =
        loadCheckpoint(checkpointPath(id));
    if (loaded.has_value() && loaded->header.campaign == id) {
        campaign->header = std::move(loaded->header);
        campaign->restored = std::move(loaded->records);
    } else {
        // The failure tore the header itself: nothing durable survived
        // but the submit parameters are still in memory — restart from
        // scratch.
        campaign->header = old->header;
    }
    try {
        campaign->specs =
            registry_->select(campaign->header.experiments);
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(old->mutex);
        old->resumeInFlight = false;
        sendAll(fd,
                wireLine(errorReply(errc::campaignFailed, e.what())));
        return;
    }
    const std::size_t jobs = old->totalJobs;
    // A resumed campaign starts with a clean deadline slate: the old
    // deadline already fired (or belongs to a disconnected caller);
    // the resume request may set a fresh one.
    if (request.deadlineMs > 0)
        campaign->deadlineAtMs.store(steadyMs() + request.deadlineMs);
    campaign->lastProgressMs.store(steadyMs());
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_.load()) {
            std::lock_guard<std::mutex> old_lock(old->mutex);
            old->resumeInFlight = false;
            sendAll(fd, wireLine(errorReply(errc::shuttingDown,
                                            "harpd is shutting down")));
            return;
        }
        if (!checkQuota(usageLocked(campaign->header.tenant), jobs)
                 .fits()) {
            std::lock_guard<std::mutex> old_lock(old->mutex);
            old->resumeInFlight = false;
            JsonValue reply = errorReply(
                errc::quotaExceeded,
                "tenant '" + campaign->header.tenant +
                    "' has no headroom to resume '" + id + "'");
            reply.set("retriable", JsonValue(true));
            reply.set("retry_after_ms",
                      JsonValue(config_.shedRetryAfterMs));
            sendAll(fd, wireLine(reply));
            return;
        }
        TenantUsage &admitted = tenants_[campaign->header.tenant];
        admitted.campaigns += 1;
        admitted.jobs += jobs;
        campaign->admittedJobs = jobs;
        campaign->chargedAdmission.store(true);
        campaigns_[id] = campaign; // replaces the resumable entry
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
Server::publishEvent(const std::shared_ptr<Campaign> &campaign,
                     JsonValue event,
                     const std::shared_ptr<EventQueue> &queue)
{
    std::string line;
    {
        std::lock_guard<std::mutex> lock(campaign->mutex);
        event.set("seq", JsonValue(campaign->log.size()));
        line = wireLine(event);
        campaign->log.push_back(line);
    }
    campaign->logCv.notify_all();
    campaign->lastProgressMs.store(steadyMs());
    if (queue != nullptr)
        queue->push(line);
}

void
Server::releaseAdmission(const Campaign &campaign)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tenants_.find(campaign.header.tenant);
    if (it != tenants_.end()) {
        TenantUsage &usage = it->second;
        usage.campaigns -= std::min<std::size_t>(1, usage.campaigns);
        usage.jobs -= std::min(campaign.admittedJobs, usage.jobs);
        if (usage.campaigns == 0 && usage.jobs == 0)
            tenants_.erase(it);
    }
    // Freed quota is the only thing parked campaigns wait on.
    promoteQueuedLocked();
}

std::size_t
Server::tenantWeight(const std::string &tenant) const
{
    const auto it = config_.tenantWeights.find(tenant);
    const std::size_t weight = it != config_.tenantWeights.end()
                                   ? it->second
                                   : config_.defaultTenantWeight;
    return std::max<std::size_t>(1, weight);
}

void
Server::promoteQueuedLocked()
{
    // Arrival order, skipping over entries that still don't fit — a
    // big parked submission must not head-of-line-block a small one
    // from another tenant.
    for (auto it = admissionQueue_.begin();
         it != admissionQueue_.end();) {
        const std::shared_ptr<Campaign> &campaign = *it;
        if (campaign->cancel.load()) {
            // Its worker is winding the campaign down; just unpark.
            it = admissionQueue_.erase(it);
            continue;
        }
        if (!checkQuota(usageLocked(campaign->header.tenant),
                        campaign->admittedJobs)
                 .fits()) {
            ++it;
            continue;
        }
        TenantUsage &admitted = tenants_[campaign->header.tenant];
        admitted.campaigns += 1;
        admitted.jobs += campaign->admittedJobs;
        campaign->chargedAdmission.store(true);
        {
            std::lock_guard<std::mutex> state_lock(campaign->mutex);
            if (campaign->state == CampaignState::Queued)
                campaign->state = CampaignState::Running;
        }
        campaign->logCv.notify_all();
        it = admissionQueue_.erase(it);
    }
    refreshQueuePositionsLocked();
}

Server::TenantUsage
Server::usageLocked(const std::string &tenant) const
{
    const auto it = tenants_.find(tenant);
    return it != tenants_.end() ? it->second : TenantUsage{};
}

Server::QuotaCheck
Server::checkQuota(const TenantUsage &usage, std::size_t jobs) const
{
    QuotaCheck check;
    check.overCampaigns = config_.maxCampaignsPerTenant > 0 &&
                          usage.campaigns >= config_.maxCampaignsPerTenant;
    check.overJobs = config_.maxInflightJobsPerTenant > 0 &&
                     usage.jobs + jobs > config_.maxInflightJobsPerTenant;
    return check;
}

void
Server::refreshQueuePositionsLocked()
{
    std::size_t position = 0;
    for (const auto &parked : admissionQueue_)
        parked->queuePosition.store(position++);
}

bool
Server::awaitAdmission(const std::shared_ptr<Campaign> &campaign)
{
    // Poll-wait on the campaign cv: promotion notifies, and cancel /
    // deadline / shutdown flags flip without one, so the wait is timed.
    {
        std::unique_lock<std::mutex> lock(campaign->mutex);
        while (campaign->state == CampaignState::Queued &&
               !campaign->cancel.load() && !stopping_.load()) {
            campaign->logCv.wait_for(lock,
                                     std::chrono::milliseconds(50));
        }
        if (campaign->state != CampaignState::Queued)
            return true; // promoted (possibly cancelled later — the
                         // normal run path handles that)
    }
    // Terminal while parked: unpark, publish why, close the stream.
    // Nothing was charged and nothing ran, so there is no checkpoint;
    // a deadline_exceeded here stays resumable from the in-memory
    // header (the resume verb re-prices and re-admits it).
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = admissionQueue_.begin();
             it != admissionQueue_.end(); ++it) {
            if (it->get() == campaign.get()) {
                admissionQueue_.erase(it);
                break;
            }
        }
        refreshQueuePositionsLocked();
    }
    const bool deadline = campaign->deadlineExpired.load();
    {
        std::lock_guard<std::mutex> lock(campaign->mutex);
        campaign->state = deadline ? CampaignState::DeadlineExceeded
                                   : CampaignState::Cancelled;
        if (deadline)
            campaign->error = "deadline expired while queued";
    }
    const std::shared_ptr<EventQueue> queue = campaign->clientQueue;
    if (queue != nullptr) {
        JsonValue event = JsonValue::object();
        event.set("type", JsonValue(deadline ? "deadline_exceeded"
                                             : "cancelled"));
        event.set("campaign", JsonValue(campaign->header.campaign));
        if (deadline) {
            event.set("completed_jobs", JsonValue(std::size_t{0}));
            event.set("total_jobs", JsonValue(campaign->totalJobs));
            event.set("resumable", JsonValue(true));
        }
        queue->push(wireLine(event));
    }
    return false;
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
        for (const auto &[id, campaign] : campaigns_) {
            std::lock_guard<std::mutex> state_lock(campaign->mutex);
            list.push(JsonValue::parse(campaignStatusLine(id, *campaign)));
        }
        for (const auto &[tenant, used] : tenants_) {
            JsonValue entry = JsonValue::object();
            entry.set("campaigns", JsonValue(used.campaigns));
            entry.set("jobs", JsonValue(used.jobs));
            usage.set(tenant, entry);
        }
        doc.set("queued", JsonValue(admissionQueue_.size()));
    }
    doc.set("campaigns", list);
    doc.set("tenants", usage);

    // tmp + rename so readers never see a torn snapshot; best-effort —
    // a failed snapshot must never hurt the serving path.
    const std::string path =
        (fs::path(config_.dataDir) / "status.json").string();
    try {
        writeDurably(path + ".tmp", doc.dump(2) + "\n", nullptr);
    } catch (const CheckpointIoError &) {
        return;
    }
    (void)!io::renamePath(path + ".tmp", path, nullptr);
}

void
Server::runCampaign(const std::shared_ptr<Campaign> &campaign)
{
    const std::string &id = campaign->header.campaign;
    const std::shared_ptr<EventQueue> queue = campaign->clientQueue;

    // Parked submissions wait here for quota; a cancel / deadline /
    // shutdown while parked ends the campaign without running a job.
    bool parked;
    {
        std::lock_guard<std::mutex> lock(campaign->mutex);
        parked = campaign->state == CampaignState::Queued;
    }
    if (parked && !awaitAdmission(campaign)) {
        {
            std::lock_guard<std::mutex> lock(campaign->mutex);
            campaign->logComplete = true;
        }
        campaign->logCv.notify_all();
        if (queue != nullptr)
            queue->close();
        return;
    }

    const std::string ckpt_path = checkpointPath(id);
    const fs::path staging =
        fs::path(config_.dataDir) / "results" / (".tmp-" + id);
    io::FaultPlan *plan = config_.ioFaultPlan;
    const auto finish = [&](CampaignState state,
                            const std::string &error) {
        {
            std::lock_guard<std::mutex> lock(campaign->mutex);
            campaign->state = state;
            campaign->error = error;
        }
        // Quota must be free before any terminal state or event is
        // observable: a client that reacts to `done` by submitting (or
        // resuming) must never be shed by its *own* finished campaign.
        // Running is the shutdown-drain park, not a terminal state —
        // it keeps its charge.
        if (state != CampaignState::Running &&
            campaign->chargedAdmission.exchange(false))
            releaseAdmission(*campaign);
    };
    // Degrade, never corrupt: the checkpoint stays, the status carries
    // the errno and whether a resume can clear it, and the out-of-band
    // (seq-less) degraded event tells the live stream why it ended.
    const auto finishDegraded = [&](std::error_code ec,
                                    const std::string &where) {
        const std::string errno_name = io::errnoName(ec.value());
        const bool retriable = io::isRetriable(ec);
        {
            std::lock_guard<std::mutex> lock(campaign->mutex);
            campaign->state = CampaignState::Degraded;
            campaign->error = where + ": " + ec.message();
            campaign->errnoName = errno_name;
            campaign->retriable = retriable;
        }
        if (campaign->chargedAdmission.exchange(false))
            releaseAdmission(*campaign);
        if (queue != nullptr) {
            JsonValue event = JsonValue::object();
            event.set("type", JsonValue("degraded"));
            event.set("campaign", JsonValue(id));
            event.set("errno_name", JsonValue(errno_name));
            event.set("retriable", JsonValue(retriable));
            event.set("message", JsonValue(where + ": " + ec.message()));
            queue->push(wireLine(event));
        }
    };
    const auto emit = [this, campaign, queue](JsonValue event) {
        publishEvent(campaign, std::move(event), queue);
    };
    // Progress heartbeats are deterministic stream members: they fire
    // after every stride-th delivered result (counting restored +
    // fresh, in job order), so their seq positions are identical on
    // every incarnation of the campaign — only their *content*
    // (wave, jobs_per_sec) reflects this run. That keeps `subscribe
    // from=` cursors stable across kill/resume with heartbeats in the
    // log.
    std::size_t progress_results = 0;
    std::size_t progress_stride = 0;
    std::size_t progress_total = 0;
    const std::uint64_t run_start_ms = steadyMs();
    const auto emitResult = [&, this](JsonValue event) {
        publishEvent(campaign, std::move(event), queue);
        ++progress_results;
        if (progress_stride != 0 &&
            (progress_results % progress_stride == 0 ||
             progress_results == progress_total)) {
            JsonValue tick = JsonValue::object();
            tick.set("type", JsonValue("progress"));
            tick.set("campaign", JsonValue(id));
            tick.set("wave", JsonValue(campaign->waveIndex.load()));
            tick.set("jobs_done", JsonValue(progress_results));
            tick.set("jobs_total", JsonValue(progress_total));
            const std::uint64_t elapsed =
                std::max<std::uint64_t>(1, steadyMs() - run_start_ms);
            tick.set("jobs_per_sec",
                     JsonValue(static_cast<double>(progress_results) *
                               1000.0 / static_cast<double>(elapsed)));
            publishEvent(campaign, std::move(tick), queue);
        }
    };

    try {
        const bool resuming = !campaign->restored.empty() ||
                              fs::exists(ckpt_path);
        std::error_code stage_ec;
        fs::remove_all(staging, stage_ec);
        fs::create_directories(staging, stage_ec);
        orDegrade(stage_ec, "cannot create staging dir " + staging.string());

        // Sessions first: totals (for `accepted` and status) and
        // checkpoint-restore before any job runs.
        runner::SessionOptions session_options;
        session_options.seed = campaign->header.seed;
        session_options.repeat = campaign->header.repeat;
        session_options.overrides = campaign->header.overrides;
        std::vector<std::unique_ptr<runner::CampaignSession>> sessions;
        sessions.reserve(campaign->specs.size());
        for (const runner::ExperimentSpec *spec : campaign->specs)
            sessions.push_back(std::make_unique<runner::CampaignSession>(
                *spec, session_options));
        std::size_t total = 0;
        std::size_t restored = 0;
        for (const CheckpointRecord &record : campaign->restored) {
            if (record.experiment < sessions.size() &&
                sessions[record.experiment]->restore(record.job,
                                                     record.line))
                ++restored;
        }
        campaign->restored.clear();
        for (const auto &session : sessions)
            total += session->totalJobs();
        campaign->totalJobs = total;
        campaign->completedJobs.store(restored);
        campaign->lastProgressMs.store(steadyMs());
        progress_total = total;
        progress_stride = std::max<std::size_t>(1, total / 64);

        if (queue != nullptr) {
            JsonValue accepted = JsonValue::object();
            accepted.set("type", JsonValue("accepted"));
            accepted.set("campaign", JsonValue(id));
            accepted.set("total_jobs", JsonValue(total));
            accepted.set("restored_jobs", JsonValue(restored));
            queue->push(wireLine(accepted));
        }

        CheckpointWriter checkpoint =
            resuming ? CheckpointWriter(ckpt_path, plan)
                     : CheckpointWriter(ckpt_path, campaign->header, plan);

        runner::CampaignSummary summary;
        summary.seed = campaign->header.seed;
        summary.threads = poolThreads_;
        summary.repeat = campaign->header.repeat;
        bool cancelled = false;
        std::optional<SinkFailure> io_failure;
        std::size_t completed_base = 0;

        // Enroll with the fair governor for the compute phase: waves
        // are granted stride-fairly across tenants, slots hand back
        // per finished job. Scope-bound so every exit path leaves.
        struct FairEnrollment
        {
            common::FairScheduler *fair = nullptr;
            std::uint64_t entity = 0;
            ~FairEnrollment()
            {
                if (fair != nullptr)
                    fair->leave(entity);
            }
        } enrollment;
        std::optional<FairWaveScheduler> fair_waves;
        if (fair_ != nullptr) {
            enrollment.fair = fair_.get();
            enrollment.entity = fair_->enroll(
                campaign->header.tenant,
                tenantWeight(campaign->header.tenant),
                campaign->header.priority);
            fair_waves.emplace(*fair_, enrollment.entity,
                               campaign->waveIndex, campaign->cancel);
        }

        for (std::size_t i = 0; i < sessions.size(); ++i) {
            runner::CampaignSession &session = *sessions[i];
            const std::string &name = session.spec().name;
            const std::string jsonl_path =
                (staging / (name + ".jsonl")).string();
            io::File file;
            orDegrade(file.open(jsonl_path, /*truncate=*/true, plan),
                      "cannot open " + jsonl_path);
            ServedSink sink(file, &checkpoint, i, name, id, emitResult,
                            &campaign->cancel);
            const std::size_t base = completed_base;
            const runner::CampaignSession::Outcome outcome = session.run(
                pool_.get(), poolThreads_, sink, &campaign->cancel,
                [campaign, base](std::size_t done) {
                    campaign->completedJobs.store(base + done);
                    campaign->lastProgressMs.store(steadyMs());
                },
                fair_waves.has_value() ? &*fair_waves : nullptr);
            if (sink.failure().has_value()) {
                io_failure = sink.failure();
                break;
            }
            // Staged results durable before the experiment is declared
            // finished (and before the next one starts).
            orDegrade(file.sync(), "cannot fsync " + jsonl_path);
            orDegrade(file.close(), "cannot close " + jsonl_path);
            completed_base += session.totalJobs();
            if (!outcome.cancelled)
                campaign->completedJobs.store(completed_base);
            if (outcome.cancelled) {
                cancelled = true;
                break;
            }

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
            event.set("result_hash", JsonValue(runner::formatResultHash(
                                         exp.resultHash)));
            emit(std::move(event));
        }

        if (io_failure.has_value()) {
            finishDegraded(io_failure->ec, io_failure->where);
        } else if (cancelled) {
            if (stopping_.load()) {
                // Shutdown drain, not user intent: keep the checkpoint
                // so the next start resumes right here.
                finish(CampaignState::Running, "");
            } else if (campaign->deadlineExpired.load()) {
                // Deadline, not user intent either: every completed
                // job is already in the checkpoint, so the campaign
                // parks as resumable `deadline_exceeded` with no torn
                // output — `resume` picks up exactly here.
                finish(CampaignState::DeadlineExceeded,
                       "deadline_ms expired at a wave boundary");
                if (queue != nullptr) {
                    JsonValue event = JsonValue::object();
                    event.set("type", JsonValue("deadline_exceeded"));
                    event.set("campaign", JsonValue(id));
                    event.set("completed_jobs",
                              JsonValue(campaign->completedJobs.load()));
                    event.set("total_jobs",
                              JsonValue(campaign->totalJobs));
                    event.set("resumable", JsonValue(true));
                    queue->push(wireLine(event));
                }
            } else {
                std::error_code cleanup;
                fs::remove(ckpt_path, cleanup);
                finish(CampaignState::Cancelled, "");
                if (queue != nullptr) {
                    JsonValue event = JsonValue::object();
                    event.set("type", JsonValue("cancelled"));
                    event.set("campaign", JsonValue(id));
                    queue->push(wireLine(event));
                }
            }
            std::error_code cleanup;
            fs::remove_all(staging, cleanup);
        } else {
            // Deterministic summary (no timings), then an atomic
            // publish through the seam: write + fsync the summary,
            // rename the staging dir, fsync the parent so the rename
            // itself is durable. Results appear only as a complete
            // set; any failure along the way degrades with the
            // checkpoint intact.
            writeDurably((staging / "summary.json").string(),
                         summary.toJson(/*include_timings=*/false).dump(2) +
                             "\n",
                         plan);
            // A results dir that already exists means a previous run
            // published and died before removing the checkpoint: the
            // work is done, don't rename over it.
            if (!fs::exists(resultsDir(id)))
                orDegrade(io::renamePath(staging.string(), resultsDir(id),
                                         plan),
                          "cannot publish " + resultsDir(id));
            orDegrade(io::syncDir(
                          (fs::path(config_.dataDir) / "results").string(),
                          plan),
                      "cannot fsync results dir");
            std::error_code cleanup;
            fs::remove(ckpt_path, cleanup);
            finish(CampaignState::Done, "");
            JsonValue event = JsonValue::object();
            event.set("type", JsonValue("summary"));
            event.set("summary",
                      summary.toJson(/*include_timings=*/false));
            emit(std::move(event));
            JsonValue done = JsonValue::object();
            done.set("type", JsonValue("done"));
            done.set("campaign", JsonValue(id));
            emit(std::move(done));
        }
    } catch (const CheckpointIoError &e) {
        finishDegraded(e.code, e.what());
    } catch (const std::exception &e) {
        // A genuine computation failure (job error, bad spec): the
        // campaign is not resumable, so the checkpoint goes too.
        std::error_code cleanup;
        fs::remove_all(staging, cleanup);
        fs::remove(ckpt_path, cleanup);
        finish(CampaignState::Failed, e.what());
        if (queue != nullptr)
            queue->push(wireLine(errorReply(errc::campaignFailed,
                                            e.what())));
    }
    {
        std::lock_guard<std::mutex> lock(campaign->mutex);
        campaign->logComplete = true;
    }
    campaign->logCv.notify_all();
    if (queue != nullptr)
        queue->close();
    // Backstop: terminal paths released at the state transition (so
    // quota frees before terminal events are visible); this catches
    // only exits that never reached one.
    if (campaign->chargedAdmission.exchange(false))
        releaseAdmission(*campaign);
}

} // namespace harp::harpd
