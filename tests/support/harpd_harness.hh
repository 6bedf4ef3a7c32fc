/**
 * @file
 * The harpd suites' shared harness: the toy experiment registry, the
 * submit-request builder and stream reassembly, the in-process server
 * fixture, the launcher for the real `harpd` / `harpd_client`
 * binaries, and a scripted stub daemon. Its own library
 * (harp_harpd_test_support), so suites that never talk to a daemon do
 * not link harpd.
 */

#ifndef HARP_TESTS_SUPPORT_HARPD_HARNESS_HH
#define HARP_TESTS_SUPPORT_HARPD_HARNESS_HH

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "harpd/client.hh"
#include "harpd/server.hh"
#include "runner/json.hh"
#include "runner/registry.hh"

namespace harp::test {

/**
 * Deterministic toy experiments, fast enough for the sanitizer tiers:
 * `fast` (3 points; a seed-derived `value` and `x2`), `slow` (8
 * points) and `paced` (4 points), the last two sleeping `delay_ms`
 * (default 5) per job.
 */
runner::Registry makeTestRegistry();

/** The fields of one `submit` request; empty or zero ones stay off
 *  the wire. (Every field has an initializer, so designated
 *  initializers may leave any out without a -Wextra warning.) */
struct SubmitSpec
{
    std::string campaign = {};
    std::vector<std::string> experiments = {};
    std::uint64_t seed = 1;
    std::size_t repeat = 1;
    std::map<std::string, std::string> overrides = {};
    std::string tenant = {};
    std::string priority = {};
    std::int64_t deadlineMs = 0;
};

/** The `submit` request for @p spec. */
runner::JsonValue submitRequest(const SubmitSpec &spec);

/** Everything one streamed submit produced, reassembled. */
struct StreamedCampaign
{
    std::map<std::string, std::string> jsonl; ///< name -> file bytes
    std::string summaryBytes;                 ///< summary.json bytes
    std::map<std::string, std::string> resultHash;
    std::vector<std::string> seqLines; ///< raw wire lines with a seq
    std::size_t results = 0;
    std::size_t totalJobs = 0;
    std::size_t restoredJobs = 0;
    /** Kind of the event that ended the stream; empty at EOF. */
    std::string terminal;
    bool done = false;
    std::string errorCode;
    bool degraded = false;
    std::string degradedErrno;
    bool degradedRetriable = false;
    std::size_t completedAtDeadline = 0;
    bool resumableAtDeadline = false;
};

/** Send @p request and read its stream to the terminal event (done,
 *  cancelled, error, degraded, deadline_exceeded) or EOF. */
StreamedCampaign streamSubmit(harpd::Client &client,
                              const runner::JsonValue &request);

/** Run @p command through the shell; its exit code, or -1 when it
 *  died on a signal or could not run. */
int runCommand(const std::string &command);

/**
 * A harpd::Server on a fresh temp root, serving makeTestRegistry() on
 * `<root>/d.sock` with its data dir at `<root>/data`. Suites adjust
 * config_ in their constructor, tests before startServer().
 */
class ServerFixture : public ::testing::Test
{
  protected:
    ServerFixture();
    void TearDown() override;

    void startServer();
    void stopServer();

    /** One-shot `{"verb", "campaign"}` request on a fresh connection. */
    runner::JsonValue request(const std::string &verb,
                              const std::string &campaign);
    runner::JsonValue status(const std::string &campaign)
    {
        return request("status", campaign);
    }

    /** Poll `status` every 5 ms until @p campaign is in @p state; a
     *  test failure after awaitPolls_ polls. */
    runner::JsonValue awaitState(const std::string &campaign,
                                 const std::string &state);

    /** Batch ground truth in a fresh dir: the served registry's
     *  @p selectors, same seed, no timings. */
    std::string batchDir(const std::vector<std::string> &selectors,
                         std::uint64_t seed, std::size_t repeat,
                         std::size_t threads,
                         const std::map<std::string, std::string>
                             &overrides = {});

    std::filesystem::path checkpoint(const std::string &campaign) const;

    runner::Registry registry_;
    std::filesystem::path root_;
    harpd::ServerConfig config_;
    int awaitPolls_ = 2000;
    std::unique_ptr<harpd::Server> server_;
    std::thread serveThread_;

  private:
    int batches_ = 0;
};

/** What a DaemonFixture suite runs. */
struct DaemonOptions
{
    /** HARPD_BIN_PATH for a suite that starts the daemon ($HARPD_BIN
     *  overrides it), empty for one that does not. */
    std::string harpd = {};
    /** HARPD_CLIENT_BIN_PATH for a suite that runs the CLI. */
    std::string client = {};
    std::size_t threads = 2;            ///< harpd --threads
    std::vector<std::string> args = {}; ///< further harpd flags
};

/**
 * The real binaries on a fresh temp root: `harpd` on `<root>/d.sock`
 * with `--data <root>/data` and its stderr in `<root>/harpd.log`, and
 * `harpd_client` with its output captured under the root. A binary the
 * suite names but the build lacks fails every test; nothing skips.
 */
class DaemonFixture : public ::testing::Test
{
  protected:
    explicit DaemonFixture(DaemonOptions options);
    void SetUp() override;
    void TearDown() override;

    /** Start harpd (with `--fault-plan @p fault_plan` when non-empty)
     *  and wait until it answers `ping`. */
    void startDaemon(const std::string &fault_plan = "");
    void killDaemon();
    /** The `shutdown` verb, then reap the process. */
    void shutdownDaemon();

    /** One-shot `status` request on a fresh connection. */
    runner::JsonValue status(const std::string &campaign);
    /** Poll `status` until @p campaign is in @p state, riding out a
     *  restarting daemon. */
    runner::JsonValue awaitState(const std::string &campaign,
                                 const std::string &state);
    /** Poll until @p campaign is done; `failed` is a test failure. */
    runner::JsonValue awaitDone(const std::string &campaign);

    /** Batch `quickstart` with the daemon's thread count and no
     *  timings, in `<root>/batch` (made by the first call). */
    std::filesystem::path
    batchGroundTruth(std::uint64_t seed, std::size_t repeat,
                     const std::map<std::string, std::string> &overrides);

    /** Run harpd_client with @p args; its exit code. */
    int cli(const std::string &args);
    std::string stdoutText() const;
    std::string stderrText() const;

    std::string daemonBin_;
    std::string clientBin_;
    std::filesystem::path root_;
    std::string socket_;
    std::string data_;
    pid_t daemon_ = -1;

  private:
    /** The end of harpd.log, for failure messages. */
    std::string logTail() const;

    DaemonOptions options_;
};

/**
 * One-listener scripted daemon: on each connection it reads one
 * request, sends a fixed reply (or stays silent when it is empty) and
 * holds the connection until the client hangs up. Records the first
 * request for wire-format assertions.
 */
class StubDaemon
{
  public:
    explicit StubDaemon(const std::string &reply);
    ~StubDaemon();
    StubDaemon(const StubDaemon &) = delete;
    StubDaemon &operator=(const StubDaemon &) = delete;

    const std::string &path() const { return path_; }
    std::string firstRequest() const;

  private:
    void run();

    std::string reply_;
    std::string path_;
    int listenFd_ = -1;
    std::atomic<bool> stop_{false};
    mutable std::mutex mutex_;
    std::string firstRequest_; ///< guarded by mutex_
    std::thread acceptor_;
};

} // namespace harp::test

#endif // HARP_TESTS_SUPPORT_HARPD_HARNESS_HH
