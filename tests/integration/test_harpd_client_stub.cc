/**
 * @file
 * Forward-compatibility contract of the `harpd_client` binary against
 * a scripted stub daemon: event kinds this build does not know are
 * skipped silently (a newer daemon never breaks a deployed client),
 * `progress`/`queued` render only under --verbose, `deadline_exceeded`
 * — as a stream event or a terminal subscribe status — exits 5, and
 * submit forwards --priority/--deadline-ms onto the wire.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

namespace harp::harpd {
namespace {

namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

int
runCommand(const std::string &command)
{
    const int status = std::system(command.c_str());
    if (status < 0 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** One-connection scripted daemon: replies with a fixed event script
 *  and records the first request line for wire-format assertions. */
class StubDaemon
{
  public:
    explicit StubDaemon(const std::string &reply)
        : reply_(reply),
          path_((fs::temp_directory_path() /
                 ("ovl_stub_" + std::to_string(::getpid()) + "_" +
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

    std::string firstRequest() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return firstRequest_;
    }

  private:
    void run()
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
                    firstRequest_.assign(buffer,
                                         static_cast<std::size_t>(got));
            }
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
    mutable std::mutex mutex_;
    std::string firstRequest_;
};

std::atomic<int> StubDaemon::counter_{0};

class HarpdClientStubTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
#ifdef HARPD_CLIENT_BIN_PATH
        client_ = HARPD_CLIENT_BIN_PATH;
#endif
        if (client_.empty() || !fs::exists(client_))
            FAIL() << "harpd_client binary not found (" << client_ << ")";
        static int counter = 0;
        root_ = fs::temp_directory_path() /
                ("harpd_stub_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++));
        fs::remove_all(root_);
        fs::create_directories(root_);
    }

    void TearDown() override { fs::remove_all(root_); }

    int cli(const std::string &args)
    {
        return runCommand(client_ + " " + args + " > " +
                          (root_ / "out.txt").string() + " 2> " +
                          (root_ / "err.txt").string());
    }

    std::string stdoutText() { return readFile(root_ / "out.txt"); }
    std::string stderrText() { return readFile(root_ / "err.txt"); }

    std::string client_;
    fs::path root_;
};

/** A stream a *future* daemon might send: heartbeats, an unknown
 *  event kind, then completion. */
const char *kFutureStream =
    "{\"type\":\"accepted\",\"seq\":0,\"campaign\":\"c\","
    "\"total_jobs\":1,\"restored_jobs\":0}\n"
    "{\"type\":\"progress\",\"seq\":1,\"campaign\":\"c\",\"wave\":1,"
    "\"jobs_done\":1,\"jobs_total\":1,\"jobs_per_sec\":42.0}\n"
    "{\"type\":\"hologram_ready\",\"seq\":2,\"shard\":7}\n"
    "{\"type\":\"result\",\"seq\":3,\"experiment\":\"quickstart\","
    "\"job\":0,\"line\":\"{\\\"x\\\":1}\"}\n"
    "{\"type\":\"done\",\"seq\":4,\"campaign\":\"c\"}\n";

TEST_F(HarpdClientStubTest, UnknownEventKindsAreSkippedSilently)
{
    StubDaemon stub(kFutureStream);
    EXPECT_EQ(cli("--socket " + stub.path() + " submit c quickstart"),
              0);
    // The result still flowed through to stdout...
    EXPECT_NE(stdoutText().find("{\"x\":1}"), std::string::npos);
    // ...and neither the unknown kind nor the heartbeats made noise.
    EXPECT_EQ(stderrText().find("hologram_ready"), std::string::npos)
        << stderrText();
    EXPECT_EQ(stderrText().find("progress"), std::string::npos);
}

TEST_F(HarpdClientStubTest, VerboseRendersAdvisoryAndUnknownEvents)
{
    StubDaemon stub(std::string(
        "{\"type\":\"queued\",\"campaign\":\"c\",\"position\":1,"
        "\"retry_after_ms\":200}\n") + kFutureStream);
    EXPECT_EQ(cli("--socket " + stub.path() +
                  " --verbose submit c quickstart"),
              0);
    EXPECT_NE(stderrText().find("queued"), std::string::npos)
        << stderrText();
    EXPECT_NE(stderrText().find("progress"), std::string::npos);
    EXPECT_NE(stderrText().find("hologram_ready"), std::string::npos)
        << "--verbose should note skipped unknown events";
}

TEST_F(HarpdClientStubTest, DeadlineExceededEventExitsFive)
{
    StubDaemon stub(
        "{\"type\":\"accepted\",\"seq\":0,\"campaign\":\"c\","
        "\"total_jobs\":4,\"restored_jobs\":0}\n"
        "{\"type\":\"result\",\"seq\":1,\"experiment\":\"quickstart\","
        "\"job\":0,\"line\":\"{\\\"x\\\":1}\"}\n"
        "{\"type\":\"deadline_exceeded\",\"campaign\":\"c\","
        "\"completed_jobs\":1,\"total_jobs\":4,\"resumable\":true}\n");
    EXPECT_EQ(cli("--socket " + stub.path() +
                  " submit c quickstart --deadline-ms 1000"),
              5);
    EXPECT_NE(stderrText().find("deadline_exceeded"),
              std::string::npos);
}

TEST_F(HarpdClientStubTest, TerminalDeadlineStatusOnSubscribeExitsFive)
{
    StubDaemon stub(
        "{\"type\":\"subscribed\",\"campaign\":\"c\",\"from\":0}\n"
        "{\"type\":\"status\",\"campaign\":\"c\","
        "\"state\":\"deadline_exceeded\",\"completed_jobs\":2,"
        "\"total_jobs\":4}\n");
    EXPECT_EQ(cli("--socket " + stub.path() + " subscribe c"), 5);
}

TEST_F(HarpdClientStubTest, SubmitForwardsPriorityAndDeadlineOnWire)
{
    StubDaemon stub(
        "{\"type\":\"error\",\"code\":\"shutting_down\","
        "\"message\":\"scripted\"}\n");
    EXPECT_EQ(cli("--socket " + stub.path() +
                  " submit c quickstart --priority background "
                  "--deadline-ms 1500 --tenant sweeper"),
              1);
    const std::string wire = stub.firstRequest();
    EXPECT_NE(wire.find("\"priority\":\"background\""),
              std::string::npos)
        << wire;
    EXPECT_NE(wire.find("\"deadline_ms\":1500"), std::string::npos);
    EXPECT_NE(wire.find("\"tenant\":\"sweeper\""), std::string::npos);
}

TEST_F(HarpdClientStubTest, BadDeadlineFlagIsUsageError)
{
    EXPECT_EQ(cli("--socket /tmp/x.sock submit c quickstart "
                  "--deadline-ms 0"),
              2);
    EXPECT_EQ(cli("--socket /tmp/x.sock submit c quickstart "
                  "--deadline-ms -5"),
              2);
}

} // namespace
} // namespace harp::harpd
