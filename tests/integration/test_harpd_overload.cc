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
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harpd/client.hh"
#include "runner/campaign.hh"
#include "runner/json.hh"
#include "runner/registry.hh"

namespace harp::harpd {
namespace {

namespace fs = std::filesystem;
using runner::JsonType;
using runner::JsonValue;

constexpr std::uint64_t kSeed = 23;
constexpr std::size_t kRepeat = 32; // quickstart grid is 1 point
const std::map<std::string, std::string> kOverrides = {
    {"rounds", "8192"}}; // paces one job to ~tens of ms: a wide
                         // still-running window around the SIGTERM

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

class HarpdOverloadTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
#ifdef HARPD_BIN_PATH
        binary_ = HARPD_BIN_PATH;
#endif
        if (const char *env = std::getenv("HARPD_BIN"))
            binary_ = env;
        if (binary_.empty() || !fs::exists(binary_))
            FAIL() << "harpd binary not found (" << binary_ << ")";
        static int counter = 0;
        root_ = fs::temp_directory_path() /
                ("harpd_ovl_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++));
        fs::remove_all(root_);
        fs::create_directories(root_);
        socket_ = (root_ / "d.sock").string();
        data_ = (root_ / "data").string();
    }

    void TearDown() override
    {
        if (daemon_ > 0) {
            ::kill(daemon_, SIGKILL);
            ::waitpid(daemon_, nullptr, 0);
        }
        if (!root_.empty())
            fs::remove_all(root_);
    }

    void startDaemon()
    {
        daemon_ = ::fork();
        ASSERT_GE(daemon_, 0);
        if (daemon_ == 0) {
            const int null = ::open("/dev/null", O_RDWR);
            ::dup2(null, 0);
            ::dup2(null, 1);
            ::dup2(null, 2);
            ::execl(binary_.c_str(), "harpd", "--socket",
                    socket_.c_str(), "--data", data_.c_str(),
                    "--threads", "4", "--tenant-weight", "heavy=3",
                    nullptr);
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

    JsonValue status(const std::string &campaign)
    {
        Client client(socket_);
        JsonValue request = JsonValue::object();
        request.set("verb", JsonValue("status"));
        request.set("campaign", JsonValue(campaign));
        return client.request(request);
    }

    JsonValue awaitDone(const std::string &campaign)
    {
        for (int i = 0; i < 4000; ++i) {
            try {
                const JsonValue reply = status(campaign);
                if (reply.find("type")->asString() == "status") {
                    const std::string state =
                        reply.find("state")->asString();
                    EXPECT_NE(state, "failed")
                        << reply.find("error")->asString();
                    if (state == "done" || state == "failed")
                        return reply;
                }
            } catch (const std::exception &) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        ADD_FAILURE() << campaign << " never finished";
        return JsonValue::object();
    }

    void submitDetached(const std::string &campaign,
                        const std::string &tenant)
    {
        Client client(socket_);
        JsonValue request = JsonValue::object();
        request.set("verb", JsonValue("submit"));
        request.set("campaign", JsonValue(campaign));
        JsonValue experiments = JsonValue::array();
        experiments.push(JsonValue("quickstart"));
        request.set("experiments", experiments);
        request.set("seed", JsonValue(std::to_string(kSeed)));
        request.set("repeat", JsonValue(kRepeat));
        request.set("tenant", JsonValue(tenant));
        JsonValue overrides = JsonValue::object();
        for (const auto &[key, value] : kOverrides)
            overrides.set(key, JsonValue(value));
        request.set("overrides", overrides);
        ASSERT_TRUE(client.send(request));
        const std::optional<JsonValue> accepted = client.read();
        ASSERT_TRUE(accepted.has_value());
        ASSERT_EQ(accepted->find("type")->asString(), "accepted")
            << accepted->dump();
        // Dropping the connection detaches the stream; the campaign
        // runs on inside the daemon.
    }

    /** Uninterrupted ground truth from the in-process batch driver. */
    fs::path batchGroundTruth()
    {
        const fs::path out = root_ / "batch";
        if (!fs::exists(out)) {
            runner::CampaignOptions options;
            options.seed = kSeed;
            options.threads = 4;
            options.repeat = kRepeat;
            options.noTimings = true;
            options.outDir = out.string();
            options.overrides = kOverrides;
            std::ostringstream log;
            runner::runCampaign(
                runner::builtinRegistry().select({"quickstart"}),
                options, log);
        }
        return out;
    }

    std::string binary_;
    fs::path root_;
    std::string socket_;
    std::string data_;
    pid_t daemon_ = -1;
};

TEST_F(HarpdOverloadTest, SigtermDrainUnderLoadThenResumeByteExact)
{
    const fs::path batch = batchGroundTruth();
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
    {
        Client client(socket_);
        JsonValue request = JsonValue::object();
        request.set("verb", JsonValue("shutdown"));
        client.request(request);
    }
    ::waitpid(daemon_, nullptr, 0);
    daemon_ = -1;
}

} // namespace
} // namespace harp::harpd
