#include "support/harpd_harness.hh"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "runner/campaign.hh"
#include "support/files.hh"

namespace harp::test {
namespace {

namespace fs = std::filesystem;
using harpd::Client;
using runner::JsonType;
using runner::JsonValue;

/** A fresh, empty directory, unique per process and call. */
fs::path
makeTempRoot(const std::string &tag)
{
    static std::atomic<int> counter{0};
    const fs::path root =
        fs::temp_directory_path() /
        (tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)));
    fs::remove_all(root);
    fs::create_directories(root);
    return root;
}

JsonValue
verbRequest(const std::string &verb, const std::string &campaign = "")
{
    JsonValue request = JsonValue::object();
    request.set("verb", JsonValue(verb));
    if (!campaign.empty())
        request.set("campaign", JsonValue(campaign));
    return request;
}

/** A sleeping experiment over @p points indices: the paced jobs that
 *  cancel, kill and deadline windows need. */
runner::ExperimentSpec
pacedSpec(const std::string &name, std::int64_t points)
{
    runner::ExperimentSpec spec;
    spec.name = name;
    spec.description = "paced toy metrics";
    spec.labels = {"toy"};
    runner::ParamAxis axis;
    axis.name = "i";
    for (std::int64_t i = 0; i < points; ++i)
        axis.values.push_back(runner::ParamValue(i));
    spec.grid = runner::ParamGrid({axis});
    spec.tunables = {{"delay_ms", 5, "per-job sleep"}};
    spec.schema = {{"i_out", JsonType::Int, "echoed index"}};
    spec.run = [](const runner::RunContext &ctx) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(ctx.getInt("delay_ms")));
        JsonValue metrics = JsonValue::object();
        metrics.set("i_out", JsonValue(ctx.getInt("i")));
        return metrics;
    };
    return spec;
}

/** Poll `status` on @p socket every 5 ms, up to @p polls times, until
 *  @p campaign is in one of @p states. Connection errors count as a
 *  missed poll (the daemon may be restarting). */
std::optional<JsonValue>
pollState(const std::string &socket, const std::string &campaign,
          const std::vector<std::string> &states, int polls)
{
    for (int i = 0; i < polls; ++i) {
        try {
            Client client(socket);
            const JsonValue reply =
                client.request(verbRequest("status", campaign));
            if (reply.find("type")->asString() == "status")
                for (const std::string &state : states)
                    if (reply.find("state")->asString() == state)
                        return reply;
        } catch (const std::exception &) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return std::nullopt;
}

/** Batch ground truth: @p selectors of @p registry, no timings, into
 *  @p out. */
void
runBatch(const runner::Registry &registry,
         const std::vector<std::string> &selectors, std::uint64_t seed,
         std::size_t repeat, std::size_t threads,
         const std::map<std::string, std::string> &overrides,
         const fs::path &out)
{
    runner::CampaignOptions options;
    options.seed = seed;
    options.threads = threads;
    options.repeat = repeat;
    options.noTimings = true;
    options.outDir = out.string();
    options.overrides = overrides;
    std::ostringstream log;
    runner::runCampaign(registry.select(selectors), options, log);
}

} // namespace

runner::Registry
makeTestRegistry()
{
    runner::Registry registry;
    {
        runner::ExperimentSpec spec;
        spec.name = "fast";
        spec.description = "deterministic toy metrics";
        spec.labels = {"toy"};
        runner::ParamAxis axis;
        axis.name = "x";
        axis.values = {runner::ParamValue(std::int64_t(1)),
                       runner::ParamValue(std::int64_t(2)),
                       runner::ParamValue(std::int64_t(3))};
        spec.grid = runner::ParamGrid({axis});
        spec.schema = {{"value", JsonType::Int, "seed-derived value"},
                       {"x2", JsonType::Int, "x squared"}};
        spec.run = [](const runner::RunContext &ctx) {
            const std::int64_t x = ctx.getInt("x");
            JsonValue metrics = JsonValue::object();
            metrics.set("value",
                        JsonValue(static_cast<std::int64_t>(
                            ctx.seed() % 1000003)));
            metrics.set("x2", JsonValue(x * x));
            return metrics;
        };
        registry.add(std::move(spec));
    }
    registry.add(pacedSpec("slow", 8));
    registry.add(pacedSpec("paced", 4));
    return registry;
}

JsonValue
submitRequest(const SubmitSpec &spec)
{
    JsonValue request = JsonValue::object();
    request.set("verb", JsonValue("submit"));
    request.set("campaign", JsonValue(spec.campaign));
    JsonValue list = JsonValue::array();
    for (const std::string &name : spec.experiments)
        list.push(JsonValue(name));
    request.set("experiments", list);
    request.set("seed", JsonValue(std::to_string(spec.seed)));
    request.set("repeat", JsonValue(spec.repeat));
    if (!spec.overrides.empty()) {
        JsonValue object = JsonValue::object();
        for (const auto &[key, value] : spec.overrides)
            object.set(key, JsonValue(value));
        request.set("overrides", object);
    }
    if (!spec.tenant.empty())
        request.set("tenant", JsonValue(spec.tenant));
    if (!spec.priority.empty())
        request.set("priority", JsonValue(spec.priority));
    if (spec.deadlineMs > 0)
        request.set("deadline_ms", JsonValue(spec.deadlineMs));
    return request;
}

StreamedCampaign
streamSubmit(Client &client, const JsonValue &request)
{
    StreamedCampaign streamed;
    EXPECT_TRUE(client.send(request));
    for (;;) {
        std::string raw;
        const std::optional<JsonValue> event = client.read(&raw);
        if (!event.has_value())
            break;
        if (event->find("seq") != nullptr)
            streamed.seqLines.push_back(raw + "\n");
        const std::string kind = event->find("type")->asString();
        if (kind == "accepted") {
            streamed.totalJobs = static_cast<std::size_t>(
                event->find("total_jobs")->asInt());
            streamed.restoredJobs = static_cast<std::size_t>(
                event->find("restored_jobs")->asInt());
        } else if (kind == "result") {
            ++streamed.results;
            streamed.jsonl[event->find("experiment")->asString()] +=
                event->find("line")->asString() + "\n";
        } else if (kind == "experiment_done") {
            streamed.resultHash[event->find("experiment")->asString()] =
                event->find("result_hash")->asString();
        } else if (kind == "summary") {
            streamed.summaryBytes = event->find("summary")->dump(2) + "\n";
        } else if (kind == "done" || kind == "cancelled" ||
                   kind == "error" || kind == "degraded" ||
                   kind == "deadline_exceeded") {
            // Terminal: nothing follows on this stream (the connection
            // stays open for further requests).
            streamed.terminal = kind;
            streamed.done = kind == "done";
            if (kind == "error") {
                streamed.errorCode = event->find("code")->asString();
            } else if (kind == "degraded") {
                streamed.degraded = true;
                streamed.degradedErrno =
                    event->find("errno_name")->asString();
                streamed.degradedRetriable =
                    event->find("retriable")->asBool();
            } else if (kind == "deadline_exceeded") {
                streamed.completedAtDeadline = static_cast<std::size_t>(
                    event->find("completed_jobs")->asInt());
                streamed.resumableAtDeadline =
                    event->find("resumable")->asBool();
            }
            break;
        }
    }
    return streamed;
}

int
runCommand(const std::string &command)
{
    const int status = std::system(command.c_str());
    if (status < 0 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

// --- ServerFixture -----------------------------------------------------

ServerFixture::ServerFixture()
    : registry_(makeTestRegistry()), root_(makeTempRoot("harpd_srv"))
{
    config_.socketPath = (root_ / "d.sock").string();
    config_.dataDir = (root_ / "data").string();
    config_.threads = 2;
    config_.registry = &registry_;
}

void
ServerFixture::TearDown()
{
    stopServer();
    fs::remove_all(root_);
}

void
ServerFixture::startServer()
{
    server_ = std::make_unique<harpd::Server>(config_);
    server_->start();
    serveThread_ = std::thread([this] { server_->serve(); });
}

void
ServerFixture::stopServer()
{
    if (server_ != nullptr)
        server_->requestStop();
    if (serveThread_.joinable())
        serveThread_.join();
    server_.reset();
}

JsonValue
ServerFixture::request(const std::string &verb, const std::string &campaign)
{
    Client client(config_.socketPath);
    return client.request(verbRequest(verb, campaign));
}

JsonValue
ServerFixture::awaitState(const std::string &campaign,
                          const std::string &state)
{
    if (std::optional<JsonValue> reply =
            pollState(config_.socketPath, campaign, {state}, awaitPolls_))
        return *reply;
    ADD_FAILURE() << "campaign " << campaign << " never reached " << state;
    return JsonValue::object();
}

std::string
ServerFixture::batchDir(const std::vector<std::string> &selectors,
                        std::uint64_t seed, std::size_t repeat,
                        std::size_t threads,
                        const std::map<std::string, std::string> &overrides)
{
    const fs::path out = root_ / ("batch_" + std::to_string(batches_++));
    runBatch(*config_.registry, selectors, seed, repeat, threads, overrides,
             out);
    return out.string();
}

fs::path
ServerFixture::checkpoint(const std::string &campaign) const
{
    return fs::path(config_.dataDir) / "checkpoints" / (campaign + ".ckpt");
}

// --- DaemonFixture -----------------------------------------------------

DaemonFixture::DaemonFixture(DaemonOptions options)
    : options_(std::move(options))
{
}

void
DaemonFixture::SetUp()
{
    root_ = makeTempRoot("harpd_proc");
    socket_ = (root_ / "d.sock").string();
    data_ = (root_ / "data").string();
    if (!options_.harpd.empty()) {
        const char *env = std::getenv("HARPD_BIN");
        daemonBin_ = env != nullptr ? env : options_.harpd;
        if (!fs::exists(daemonBin_))
            FAIL() << "harpd binary not found (" << daemonBin_ << ")";
    }
    clientBin_ = options_.client;
    if (!clientBin_.empty() && !fs::exists(clientBin_))
        FAIL() << "harpd_client binary not found (" << clientBin_ << ")";
}

void
DaemonFixture::TearDown()
{
    if (daemon_ > 0) {
        ::kill(daemon_, SIGKILL);
        ::waitpid(daemon_, nullptr, 0);
    }
    if (!root_.empty())
        fs::remove_all(root_);
}

void
DaemonFixture::startDaemon(const std::string &fault_plan)
{
    std::vector<std::string> args = {"harpd",   "--socket", socket_,
                                     "--data",  data_,      "--threads",
                                     std::to_string(options_.threads)};
    args.insert(args.end(), options_.args.begin(), options_.args.end());
    if (!fault_plan.empty()) {
        args.push_back("--fault-plan");
        args.push_back(fault_plan);
    }
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    const std::string log = (root_ / "harpd.log").string();

    daemon_ = ::fork();
    ASSERT_GE(daemon_, 0);
    if (daemon_ == 0) {
        const int null = ::open("/dev/null", O_RDWR);
        const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                               0644);
        ::dup2(null, 0);
        ::dup2(null, 1);
        ::dup2(err, 2);
        ::execv(daemonBin_.c_str(), argv.data());
        ::_exit(127);
    }
    // The socket is bound in start(), so once it answers, resumed
    // campaigns are already registered.
    for (int i = 0; i < 2000; ++i) {
        try {
            Client probe(socket_);
            if (probe.request(verbRequest("ping")).find("type")->asString() ==
                "pong")
                return;
        } catch (const std::exception &) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    FAIL() << "daemon never came up" << logTail();
}

void
DaemonFixture::killDaemon()
{
    ASSERT_GT(daemon_, 0);
    ::kill(daemon_, SIGKILL);
    ::waitpid(daemon_, nullptr, 0);
    daemon_ = -1;
}

void
DaemonFixture::shutdownDaemon()
{
    {
        Client client(socket_);
        client.request(verbRequest("shutdown"));
    }
    ::waitpid(daemon_, nullptr, 0);
    daemon_ = -1;
}

JsonValue
DaemonFixture::status(const std::string &campaign)
{
    Client client(socket_);
    return client.request(verbRequest("status", campaign));
}

JsonValue
DaemonFixture::awaitState(const std::string &campaign,
                          const std::string &state)
{
    if (std::optional<JsonValue> reply =
            pollState(socket_, campaign, {state}, 6000))
        return *reply;
    ADD_FAILURE() << campaign << " never reached " << state << logTail();
    return JsonValue::object();
}

JsonValue
DaemonFixture::awaitDone(const std::string &campaign)
{
    const std::optional<JsonValue> reply =
        pollState(socket_, campaign, {"done", "failed"}, 4000);
    if (!reply.has_value()) {
        ADD_FAILURE() << campaign << " never finished" << logTail();
        return JsonValue::object();
    }
    EXPECT_NE(reply->find("state")->asString(), "failed")
        << reply->find("error")->asString();
    return *reply;
}

fs::path
DaemonFixture::batchGroundTruth(
    std::uint64_t seed, std::size_t repeat,
    const std::map<std::string, std::string> &overrides)
{
    const fs::path out = root_ / "batch";
    if (!fs::exists(out))
        runBatch(runner::builtinRegistry(), {"quickstart"}, seed, repeat,
                 options_.threads, overrides, out);
    return out;
}

int
DaemonFixture::cli(const std::string &args)
{
    return runCommand(clientBin_ + " " + args + " > " +
                      (root_ / "out.txt").string() + " 2> " +
                      (root_ / "err.txt").string());
}

std::string
DaemonFixture::stdoutText() const
{
    return readFile(root_ / "out.txt");
}

std::string
DaemonFixture::stderrText() const
{
    return readFile(root_ / "err.txt");
}

std::string
DaemonFixture::logTail() const
{
    std::ifstream in(root_ / "harpd.log", std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string log = text.str();
    constexpr std::size_t kTail = 4096;
    return "\n--- harpd.log (tail) ---\n" +
           (log.size() > kTail ? log.substr(log.size() - kTail) : log);
}

// --- StubDaemon --------------------------------------------------------

StubDaemon::StubDaemon(const std::string &reply)
    : reply_(reply),
      path_((makeTempRoot("harpd_stub") / "s.sock").string())
{
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(listenFd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(
        ::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)),
        0);
    EXPECT_EQ(::listen(listenFd_, 8), 0);
    acceptor_ = std::thread([this] { run(); });
}

StubDaemon::~StubDaemon()
{
    stop_.store(true);
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    if (acceptor_.joinable())
        acceptor_.join();
    fs::remove_all(fs::path(path_).parent_path());
}

std::string
StubDaemon::firstRequest() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return firstRequest_;
}

void
StubDaemon::run()
{
    while (!stop_.load()) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return;
        char buffer[8192];
        const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
        if (got > 0) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (firstRequest_.empty())
                firstRequest_.assign(buffer, static_cast<std::size_t>(got));
        }
        if (!reply_.empty())
            (void)!::send(fd, reply_.data(), reply_.size(), MSG_NOSIGNAL);
        // Hold the connection open (silent) until torn down or the
        // client closes.
        while (!stop_.load()) {
            if (::recv(fd, buffer, sizeof(buffer), 0) <= 0)
                break;
        }
        ::close(fd);
    }
}

} // namespace harp::test
