/**
 * @file
 * Black-box tests for the `harpd_client` CLI binary (path injected by
 * CTest): exit-code contract (0 done, 1 error, 2 usage, 3 cancelled,
 * 4 degraded), malformed-reply handling against a stub daemon, the
 * --timeout-ms/--retries resilience flags bounding a silent daemon,
 * a real harpd serving the bytes of a batch run and exiting 0 on the
 * shutdown verb, and the degraded exit path against a real
 * fault-injected harpd.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include <sys/wait.h>

#include "support/files.hh"
#include "support/harpd_harness.hh"

namespace harp::harpd {
namespace {

namespace fs = std::filesystem;
using test::readFile;
using test::runCommand;
using test::StubDaemon;

class HarpdClientCliTest : public test::DaemonFixture
{
  protected:
    HarpdClientCliTest()
        : DaemonFixture(
              {.harpd = HARPD_BIN_PATH, .client = HARPD_CLIENT_BIN_PATH})
    {
    }
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
    // A zero base delay once ran as 1 ms without a word.
    EXPECT_EQ(cli(sock + " --backoff-ms 0 ping"), 2);
}

TEST_F(HarpdClientCliTest, DaemonRejectsMalformedIntegerFlags)
{
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
    // Zero queue capacity and zero default weight once ran as 1 without
    // a word; --threads shares harp_run's [0, 4096]. (No daemon here
    // can bind, so none starts a pool.)
    EXPECT_EQ(daemon("--queue 0"), 2);
    EXPECT_EQ(daemon("--default-weight 0"), 2);
    EXPECT_EQ(daemon("--threads 4097"), 2);
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
    // The mirror and the daemon's published copy both hold the bytes
    // of a batch `harp_run --no-timings` of the same campaign.
    const fs::path batch_dir =
        batchGroundTruth(5, 2, {{"rounds", "1024"}});
    const fs::path published = fs::path(data_) / "results" / "job1";
    for (const char *file : {"quickstart.jsonl", "summary.json"}) {
        const std::string batch = readFile(batch_dir / file);
        EXPECT_EQ(readFile(fs::path(out) / file), batch) << file;
        EXPECT_EQ(readFile(published / file), batch) << file;
    }

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

    // The shutdown verb drains the daemon, which then exits 0.
    EXPECT_EQ(cli("--socket " + socket_ + " shutdown"), 0);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(daemon_, &wait_status, 0), daemon_);
    daemon_ = -1;
    ASSERT_TRUE(WIFEXITED(wait_status));
    EXPECT_EQ(WEXITSTATUS(wait_status), 0);
}

TEST_F(HarpdClientCliTest, DegradedCampaignExitsFourThenResumes)
{
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
    killDaemon();
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
