/**
 * @file
 * Overload robustness against the real `harpd` binary: SIGTERM
 * (delivered to the new sigaction handlers) drains a fully loaded
 * multi-tenant daemon, a restart resumes every interrupted campaign to
 * byte-identical output, and SIGHUP writes a durable status.json
 * snapshot — checkpoint-all-now — without interrupting service.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include <sys/wait.h>

#include "harpd/client.hh"
#include "runner/json.hh"
#include "support/files.hh"
#include "support/harpd_harness.hh"

namespace harp::harpd {
namespace {

namespace fs = std::filesystem;
using runner::JsonValue;
using test::readFile;
using test::submitRequest;

constexpr std::uint64_t kSeed = 23;
constexpr std::size_t kRepeat = 32; // quickstart grid is 1 point
const std::map<std::string, std::string> kOverrides = {
    {"rounds", "8192"}}; // paces one job to ~tens of ms: a wide
                         // still-running window around the SIGTERM

class HarpdOverloadTest : public test::DaemonFixture
{
  protected:
    HarpdOverloadTest()
        : DaemonFixture({.harpd = HARPD_BIN_PATH,
                         .threads = 4,
                         .args = {"--tenant-weight", "heavy=3"}})
    {
    }

    void submitDetached(const std::string &campaign,
                        const std::string &tenant)
    {
        Client client(socket_);
        ASSERT_TRUE(client.send(submitRequest(
            {.campaign = campaign, .experiments = {"quickstart"},
             .seed = kSeed, .repeat = kRepeat, .overrides = kOverrides,
             .tenant = tenant})));
        const std::optional<JsonValue> accepted = client.read();
        ASSERT_TRUE(accepted.has_value());
        ASSERT_EQ(accepted->find("type")->asString(), "accepted")
            << accepted->dump();
        // Dropping the connection detaches the stream; the campaign
        // runs on inside the daemon.
    }
};

TEST_F(HarpdOverloadTest, SigtermDrainUnderLoadThenResumeByteExact)
{
    const fs::path batch = batchGroundTruth(kSeed, kRepeat, kOverrides);
    startDaemon();

    // Full overload: two tenants (3:1 weights) contending for the
    // whole pool, both mid-flight when the TERM lands.
    submitDetached("drain_a", "heavy");
    submitDetached("drain_b", "light");
    for (int i = 0; i < 2000; ++i) {
        const JsonValue reply = status("drain_a");
        if (reply.find("type")->asString() == "status" &&
            reply.find("completed_jobs")->asInt() >= 2)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    // SIGTERM = graceful drain through the sigaction handler:
    // in-flight waves finish, checkpoints stay, the process exits 0.
    ASSERT_EQ(::kill(daemon_, SIGTERM), 0);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(daemon_, &wait_status, 0), daemon_);
    ASSERT_TRUE(WIFEXITED(wait_status))
        << "drain must exit, not die on a signal";
    EXPECT_EQ(WEXITSTATUS(wait_status), 0);
    daemon_ = -1;
    for (const char *name : {"drain_a", "drain_b"})
        EXPECT_TRUE(fs::exists(fs::path(data_) / "checkpoints" /
                               (std::string(name) + ".ckpt")))
            << name;

    // Restart: both campaigns resume detached and finish with bytes
    // identical to an uninterrupted batch run — the drain lost
    // nothing and the restart recomputed nothing already durable.
    startDaemon();
    awaitDone("drain_a");
    awaitDone("drain_b");
    for (const char *name : {"drain_a", "drain_b"}) {
        const fs::path published = fs::path(data_) / "results" / name;
        EXPECT_EQ(readFile(published / "quickstart.jsonl"),
                  readFile(batch / "quickstart.jsonl"))
            << name;
        EXPECT_EQ(readFile(published / "summary.json"),
                  readFile(batch / "summary.json"))
            << name;
    }
}

TEST_F(HarpdOverloadTest, SighupSnapshotsStatusWithoutDisruption)
{
    startDaemon();
    submitDetached("snap", "heavy");

    // SIGHUP: checkpoint-all-now. The snapshot lands durably at
    // data/status.json while the campaign keeps running.
    ASSERT_EQ(::kill(daemon_, SIGHUP), 0);
    const fs::path snapshot = fs::path(data_) / "status.json";
    JsonValue doc;
    bool parsed = false;
    for (int i = 0; i < 1000 && !parsed; ++i) {
        if (fs::exists(snapshot)) {
            try {
                doc = JsonValue::parse(readFile(snapshot));
                parsed = true;
            } catch (const std::exception &) {
                // rename not visible yet; retry
            }
        }
        if (!parsed)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(parsed) << "status.json never appeared";
    ASSERT_NE(doc.find("campaigns"), nullptr);
    ASSERT_NE(doc.find("pool_backlog"), nullptr);
    ASSERT_NE(doc.find("tenants"), nullptr);
    const JsonValue *campaigns = doc.find("campaigns");
    bool found = false;
    for (std::size_t i = 0; i < campaigns->size(); ++i) {
        const JsonValue *name = campaigns->at(i).find("id");
        found = found || (name != nullptr && name->asString() == "snap");
    }
    EXPECT_TRUE(found) << readFile(snapshot);

    // Not a drain and not a stop: the daemon still serves and the
    // campaign still finishes.
    {
        Client probe(socket_);
        JsonValue ping = JsonValue::object();
        ping.set("verb", JsonValue("ping"));
        EXPECT_EQ(probe.request(ping).find("type")->asString(), "pong");
    }
    awaitDone("snap");

    // A second HUP after completion refreshes the snapshot with the
    // terminal state — operators can poll it instead of the socket.
    ASSERT_EQ(::kill(daemon_, SIGHUP), 0);
    bool done_visible = false;
    for (int i = 0; i < 1000 && !done_visible; ++i) {
        try {
            const JsonValue fresh = JsonValue::parse(readFile(snapshot));
            const JsonValue *list = fresh.find("campaigns");
            for (std::size_t j = 0; list != nullptr && j < list->size();
                 ++j) {
                const JsonValue *name = list->at(j).find("id");
                const JsonValue *state = list->at(j).find("state");
                done_visible =
                    done_visible ||
                    (name != nullptr && state != nullptr &&
                     name->asString() == "snap" &&
                     state->asString() == "done");
            }
        } catch (const std::exception &) {
        }
        if (!done_visible)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(done_visible);

    // Graceful shutdown still works after HUP traffic.
    shutdownDaemon();
}

} // namespace
} // namespace harp::harpd
