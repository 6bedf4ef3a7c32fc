/**
 * @file
 * Black-box tests for the `harpd_client` CLI binary (path injected by
 * CTest): exit-code contract (0 done, 1 error, 2 usage, 3 cancelled,
 * 4 degraded), malformed-reply handling against a stub daemon, the
 * --timeout-ms/--retries resilience flags bounding a silent daemon,
 * and the degraded exit path against a real fault-injected harpd.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harpd/client.hh"
#include "runner/json.hh"

namespace harp::harpd {
namespace {

namespace fs = std::filesystem;
using runner::JsonValue;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Run a command line; its exit code (or -1 on signal/exec failure). */
int
runCommand(const std::string &command)
{
    const int status = std::system(command.c_str());
    if (status < 0 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** One-connection scripted daemon (same shape as test_client_retry's,
 *  but reused by a separate process — the CLI under test). */
class StubDaemon
{
  public:
    explicit StubDaemon(const std::string &reply)
        : reply_(reply),
          path_((fs::temp_directory_path() /
                 ("cli_stub_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter_.fetch_add(1)) + ".sock"))
                    .string())
    {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        EXPECT_GE(listenFd_, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path_.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(path_.c_str());
        EXPECT_EQ(::bind(listenFd_,
                         reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listenFd_, 8), 0);
        acceptor_ = std::thread([this] { run(); });
    }

    ~StubDaemon()
    {
        stop_.store(true);
        ::shutdown(listenFd_, SHUT_RDWR);
        ::close(listenFd_);
        if (acceptor_.joinable())
            acceptor_.join();
        ::unlink(path_.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    void run()
    {
        while (!stop_.load()) {
            const int fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd < 0)
                return;
            char buffer[4096];
            (void)!::recv(fd, buffer, sizeof(buffer), 0);
            if (!reply_.empty())
                (void)!::send(fd, reply_.data(), reply_.size(),
                              MSG_NOSIGNAL);
            while (!stop_.load()) {
                const ssize_t n =
                    ::recv(fd, buffer, sizeof(buffer), 0);
                if (n <= 0)
                    break;
            }
            ::close(fd);
        }
    }

    static std::atomic<int> counter_;
    std::string reply_;
    std::string path_;
    int listenFd_ = -1;
    std::atomic<bool> stop_{false};
    std::thread acceptor_;
};

std::atomic<int> StubDaemon::counter_{0};

class HarpdClientCliTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
#ifdef HARPD_CLIENT_BIN_PATH
        client_ = HARPD_CLIENT_BIN_PATH;
#endif
#ifdef HARPD_BIN_PATH
        daemonBin_ = HARPD_BIN_PATH;
#endif
        if (client_.empty() || !fs::exists(client_))
            GTEST_SKIP() << "harpd_client binary not found ("
                         << client_ << ")";
        static int counter = 0;
        root_ = fs::temp_directory_path() /
                ("harpd_cli_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++));
        fs::remove_all(root_);
        fs::create_directories(root_);
    }

    void TearDown() override
    {
        if (daemon_ > 0) {
            ::kill(daemon_, SIGKILL);
            ::waitpid(daemon_, nullptr, 0);
        }
        fs::remove_all(root_);
    }

    /** Start the real harpd (requires HARPD_BIN_PATH). */
    void startDaemon(const std::string &fault_plan = "")
    {
        ASSERT_FALSE(daemonBin_.empty());
        ASSERT_TRUE(fs::exists(daemonBin_)) << daemonBin_;
        socket_ = (root_ / "d.sock").string();
        data_ = (root_ / "data").string();
        daemon_ = ::fork();
        ASSERT_GE(daemon_, 0);
        if (daemon_ == 0) {
            const int null = ::open("/dev/null", O_RDWR);
            ::dup2(null, 0);
            ::dup2(null, 1);
            ::dup2(null, 2);
            if (fault_plan.empty())
                ::execl(daemonBin_.c_str(), "harpd", "--socket",
                        socket_.c_str(), "--data", data_.c_str(),
                        "--threads", "2", nullptr);
            else
                ::execl(daemonBin_.c_str(), "harpd", "--socket",
                        socket_.c_str(), "--data", data_.c_str(),
                        "--threads", "2", "--fault-plan",
                        fault_plan.c_str(), nullptr);
            ::_exit(127);
        }
        for (int i = 0; i < 2000; ++i) {
            try {
                Client probe(socket_);
                JsonValue ping = JsonValue::object();
                ping.set("verb", JsonValue("ping"));
                if (probe.request(ping).find("type")->asString() ==
                    "pong")
                    return;
            } catch (const std::exception &) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        FAIL() << "daemon never came up";
    }

    /** The CLI under test, output captured to files under root_. */
    int cli(const std::string &args)
    {
        return runCommand(client_ + " " + args + " > " +
                          (root_ / "out.txt").string() + " 2> " +
                          (root_ / "err.txt").string());
    }

    std::string stdoutText() { return readFile(root_ / "out.txt"); }
    std::string stderrText() { return readFile(root_ / "err.txt"); }

    std::string client_;
    std::string daemonBin_;
    fs::path root_;
    std::string socket_;
    std::string data_;
    pid_t daemon_ = -1;
};

TEST_F(HarpdClientCliTest, UsageErrorsExitTwo)
{
    EXPECT_EQ(cli(""), 2) << "no arguments";
    EXPECT_EQ(cli("ping"), 2) << "no --socket";
    EXPECT_EQ(cli("--socket /tmp/x.sock"), 2) << "no verb";
    EXPECT_EQ(cli("--socket /tmp/x.sock frobnicate"), 2)
        << "unknown verb";
    EXPECT_EQ(cli("--socket /tmp/x.sock --bogus-flag ping"), 2)
        << "unknown flag";
    EXPECT_EQ(cli("--socket /tmp/x.sock status"), 2)
        << "status without campaign";
    EXPECT_EQ(cli("--socket /tmp/x.sock submit lone"), 2)
        << "submit without experiments";
    EXPECT_EQ(cli("--socket /tmp/x.sock subscribe"), 2)
        << "subscribe without campaign";
    EXPECT_EQ(cli("--help"), 0) << "--help is not an error";
}

TEST_F(HarpdClientCliTest, MalformedIntegerFlagsExitTwo)
{
    // A non-numeric value once escaped std::stoll as an uncaught
    // exception (abort, exit 134); an overflowing one was narrowed to
    // int without a word. Both are usage errors, reported before any
    // connection is tried.
    const std::string sock = "--socket " + (root_ / "absent.sock").string();
    EXPECT_EQ(cli(sock + " --deadline-ms abc ping"), 2);
    EXPECT_NE(stderrText().find("--deadline-ms"), std::string::npos)
        << stderrText();
    EXPECT_EQ(cli(sock + " --timeout-ms 99999999999999 ping"), 2);
    EXPECT_EQ(cli(sock + " --retries 3x ping"), 2);
    EXPECT_EQ(cli(sock + " --from -1 subscribe c"), 2);
    EXPECT_EQ(cli(sock + " --repeat 0 submit c quickstart"), 2);
    EXPECT_EQ(cli(sock + " --seed abc submit c quickstart"), 2);
    EXPECT_EQ(cli(sock + " --seed 18446744073709551616 submit c quickstart"),
              2);
}

TEST_F(HarpdClientCliTest, DaemonRejectsMalformedIntegerFlags)
{
    if (daemonBin_.empty() || !fs::exists(daemonBin_))
        GTEST_SKIP() << "harpd binary not available";
    // `--max-campaigns abc` once parsed as 0, which means "unlimited":
    // the quota was silently off. The socket's directory does not
    // exist, so a daemon that accepted the flags fails to bind (exit
    // 1) instead of serving.
    const std::string base = daemonBin_ + " --socket " +
                             (root_ / "no_dir" / "d.sock").string() +
                             " --data " + (root_ / "data").string();
    const auto daemon = [&](const std::string &flags) {
        return runCommand(base + " " + flags + " > /dev/null 2> " +
                          (root_ / "err.txt").string());
    };
    EXPECT_EQ(daemon("--max-campaigns abc"), 2);
    EXPECT_NE(stderrText().find("--max-campaigns"), std::string::npos)
        << stderrText();
    EXPECT_EQ(daemon("--threads 99999999999999999999"), 2);
    EXPECT_EQ(daemon("--stall-ms 5s"), 2);
    EXPECT_EQ(daemon("--tenant-weight gold=x"), 2);
    EXPECT_EQ(daemon("--max-campaigns 2"), 1) << "valid flags reach bind";
}

TEST_F(HarpdClientCliTest, MissingDaemonExitsOneQuickly)
{
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(cli("--socket " + (root_ / "absent.sock").string() +
                  " ping"),
              1);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_LT(elapsed.count(), 5000) << "no retry loop by default";
    EXPECT_NE(stderrText().find("harpd_client:"), std::string::npos);
}

TEST_F(HarpdClientCliTest, MalformedReplyExitsOneWithDiagnostic)
{
    StubDaemon stub("this is not json\n");
    EXPECT_EQ(cli("--socket " + stub.path() + " ping"), 1);
    EXPECT_NE(stderrText().find("invalid JSON"), std::string::npos)
        << stderrText();
}

TEST_F(HarpdClientCliTest, SilentDaemonIsBoundedByTimeoutAndRetries)
{
    StubDaemon stub(""); // accepts, never replies
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(cli("--socket " + stub.path() +
                  " --timeout-ms 200 --retries 2 --backoff-ms 10 "
                  "ping"),
              1);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    // 3 attempts x 200ms deadline + two small backoffs: bounded, not
    // hung. (The generous ceiling keeps sanitizer runs honest.)
    EXPECT_GE(elapsed.count(), 400);
    EXPECT_LT(elapsed.count(), 10000);
    EXPECT_NE(stderrText().find("retrying"), std::string::npos)
        << stderrText();
}

TEST_F(HarpdClientCliTest, ErrorReplyExitsOne)
{
    StubDaemon stub("{\"type\":\"error\",\"code\":\"unknown_verb\","
                    "\"message\":\"nope\"}\n");
    EXPECT_EQ(cli("--socket " + stub.path() + " ping"), 1);
    EXPECT_NE(stderrText().find("unknown_verb"), std::string::npos);
}

TEST_F(HarpdClientCliTest, HappyPathAgainstARealDaemon)
{
    if (daemonBin_.empty() || !fs::exists(daemonBin_))
        GTEST_SKIP() << "harpd binary not available";
    startDaemon();

    EXPECT_EQ(cli("--socket " + socket_ + " ping"), 0);
    EXPECT_NE(stdoutText().find("pong"), std::string::npos);
    EXPECT_EQ(cli("--socket " + socket_ + " list"), 0);

    // Unknown campaign: structured error, exit 1.
    EXPECT_EQ(cli("--socket " + socket_ + " status ghost"), 1);
    EXPECT_NE(stderrText().find("unknown_campaign"),
              std::string::npos);

    // A small real submit, mirrored to --out.
    const std::string out = (root_ / "mirror").string();
    EXPECT_EQ(cli("--socket " + socket_ +
                  " --out " + out +
                  " --seed 5 --repeat 2 --set rounds 1024 "
                  "submit job1 quickstart"),
              0);
    EXPECT_TRUE(fs::exists(fs::path(out) / "quickstart.jsonl"));
    EXPECT_TRUE(fs::exists(fs::path(out) / "summary.json"));
    // The mirror matches what the daemon published.
    const fs::path published = fs::path(data_) / "results" / "job1";
    EXPECT_EQ(readFile(fs::path(out) / "quickstart.jsonl"),
              readFile(published / "quickstart.jsonl"));
    EXPECT_EQ(readFile(fs::path(out) / "summary.json"),
              readFile(published / "summary.json"));

    // Post-hoc subscribe replays the same stream into a fresh mirror.
    const std::string replay = (root_ / "replay").string();
    EXPECT_EQ(cli("--socket " + socket_ + " --out " + replay +
                  " subscribe job1"),
              0);
    EXPECT_EQ(readFile(fs::path(replay) / "quickstart.jsonl"),
              readFile(published / "quickstart.jsonl"));
    EXPECT_EQ(readFile(fs::path(replay) / "summary.json"),
              readFile(published / "summary.json"));

    // Duplicate submit downgrades to a subscribe of the finished
    // campaign (idempotent resubmit) — same bytes again, exit 0.
    const std::string again = (root_ / "again").string();
    EXPECT_EQ(cli("--socket " + socket_ + " --out " + again +
                  " --seed 5 --repeat 2 --set rounds 1024 "
                  "--retries 1 submit job1 quickstart"),
              0);
    EXPECT_EQ(readFile(fs::path(again) / "quickstart.jsonl"),
              readFile(published / "quickstart.jsonl"));

    EXPECT_EQ(cli("--socket " + socket_ + " shutdown"), 0);
    ::waitpid(daemon_, nullptr, 0);
    daemon_ = -1;
}

TEST_F(HarpdClientCliTest, DegradedCampaignExitsFourThenResumes)
{
    if (daemonBin_.empty() || !fs::exists(daemonBin_))
        GTEST_SKIP() << "harpd binary not available";
    // Sticky ENOSPC a few durable writes in: the submit degrades.
    startDaemon("write#6+=ENOSPC");

    EXPECT_EQ(cli("--socket " + socket_ +
                  " --seed 5 --repeat 8 --set rounds 1024 "
                  "submit dcamp quickstart"),
              4)
        << stderrText();
    EXPECT_NE(stderrText().find("degraded"), std::string::npos);

    // Resuming while the fault persists degrades again (exit 1 from
    // the error-free resume verb is 0 — the *resume* is accepted —
    // so check status instead). Restart without the fault: the
    // checkpoint finishes the campaign.
    ::kill(daemon_, SIGKILL);
    ::waitpid(daemon_, nullptr, 0);
    daemon_ = -1;
    startDaemon();
    for (int i = 0; i < 2000; ++i) {
        if (cli("--socket " + socket_ + " status dcamp") == 0 &&
            stdoutText().find("\"done\"") != std::string::npos)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_NE(stdoutText().find("\"done\""), std::string::npos)
        << stdoutText();
    EXPECT_EQ(cli("--socket " + socket_ + " shutdown"), 0);
    ::waitpid(daemon_, nullptr, 0);
    daemon_ = -1;
}

} // namespace
} // namespace harp::harpd
