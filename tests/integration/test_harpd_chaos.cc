/**
 * @file
 * Out-of-process chaos tests against the real `harpd` binary driven by
 * the --fault-plan flag: a deterministic ENOSPC schedule degrades a
 * campaign mid-flight, the daemon is SIGKILLed *while degraded*, and a
 * clean restart must resume from the durable checkpoint and publish
 * results byte-identical to an uninterrupted batch run — the
 * acceptance scenario for "degrade, never corrupt". Also covers a
 * publish-rename fault (all jobs durable, only the publish missing)
 * and a corrupted staging directory left behind by the degraded run.
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

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harpd/checkpoint.hh"
#include "harpd/client.hh"
#include "runner/campaign.hh"
#include "runner/registry.hh"

namespace harp::harpd {
namespace {

namespace fs = std::filesystem;
using runner::JsonValue;

constexpr std::uint64_t kSeed = 17;
constexpr std::size_t kRepeat = 32; // quickstart grid is 1 point
const std::map<std::string, std::string> kOverrides = {
    {"rounds", "2048"}}; // paces one job to a few ms

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

class HarpdChaosTest : public ::testing::Test
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
                ("harpd_chaos_" + std::to_string(::getpid()) + "_" +
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

    /** Start harpd, optionally with a --fault-plan schedule. */
    void startDaemon(const std::string &fault_plan = "")
    {
        daemon_ = ::fork();
        ASSERT_GE(daemon_, 0);
        if (daemon_ == 0) {
            const int null = ::open("/dev/null", O_RDWR);
            ::dup2(null, 0);
            ::dup2(null, 1);
            ::dup2(null, 2);
            if (fault_plan.empty())
                ::execl(binary_.c_str(), "harpd", "--socket",
                        socket_.c_str(), "--data", data_.c_str(),
                        "--threads", "2", nullptr);
            else
                ::execl(binary_.c_str(), "harpd", "--socket",
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

    void killDaemon()
    {
        ASSERT_GT(daemon_, 0);
        ::kill(daemon_, SIGKILL);
        ::waitpid(daemon_, nullptr, 0);
        daemon_ = -1;
    }

    void shutdownDaemon()
    {
        {
            Client client(socket_);
            JsonValue request = JsonValue::object();
            request.set("verb", JsonValue("shutdown"));
            client.request(request);
        }
        ::waitpid(daemon_, nullptr, 0);
        daemon_ = -1;
    }

    JsonValue awaitState(const std::string &campaign,
                         const std::string &state)
    {
        for (int i = 0; i < 6000; ++i) {
            try {
                Client client(socket_);
                JsonValue request = JsonValue::object();
                request.set("verb", JsonValue("status"));
                request.set("campaign", JsonValue(campaign));
                const JsonValue reply = client.request(request);
                if (reply.find("type")->asString() == "status" &&
                    reply.find("state")->asString() == state)
                    return reply;
            } catch (const std::exception &) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        ADD_FAILURE() << campaign << " never reached " << state;
        return JsonValue::object();
    }

    fs::path batchGroundTruth()
    {
        const fs::path out = root_ / "batch";
        if (!fs::exists(out)) {
            runner::CampaignOptions options;
            options.seed = kSeed;
            options.threads = 2;
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

    /** Submit "c" and consume its stream until it degrades. */
    void submitUntilDegraded()
    {
        Client client(socket_);
        JsonValue request = JsonValue::object();
        request.set("verb", JsonValue("submit"));
        request.set("campaign", JsonValue("c"));
        JsonValue experiments = JsonValue::array();
        experiments.push(JsonValue("quickstart"));
        request.set("experiments", experiments);
        request.set("seed", JsonValue(std::to_string(kSeed)));
        request.set("repeat", JsonValue(kRepeat));
        JsonValue overrides = JsonValue::object();
        for (const auto &[key, value] : kOverrides)
            overrides.set(key, JsonValue(value));
        request.set("overrides", overrides);
        ASSERT_TRUE(client.send(request));

        bool degraded = false;
        for (;;) {
            const std::optional<JsonValue> event = client.read();
            if (!event.has_value())
                break;
            const std::string kind = event->find("type")->asString();
            ASSERT_NE(kind, "done")
                << "campaign finished before the injected fault";
            ASSERT_NE(kind, "error") << event->dump();
            if (kind == "degraded") {
                degraded = true;
                EXPECT_EQ(event->find("errno_name")->asString(),
                          "ENOSPC");
                EXPECT_TRUE(event->find("retriable")->asBool());
                break; // terminal: nothing follows on this stream
            }
        }
        ASSERT_TRUE(degraded)
            << "stream ended without a degraded event";
    }

    void expectPublishedMatchesBatch()
    {
        const fs::path batch = batchGroundTruth();
        const fs::path published = fs::path(data_) / "results" / "c";
        EXPECT_EQ(readFile(published / "quickstart.jsonl"),
                  readFile(batch / "quickstart.jsonl"));
        EXPECT_EQ(readFile(published / "summary.json"),
                  readFile(batch / "summary.json"));
    }

    std::string binary_;
    fs::path root_;
    std::string socket_;
    std::string data_;
    pid_t daemon_ = -1;
};

TEST_F(HarpdChaosTest, SigkillDuringEnospcDegradeResumesByteIdentical)
{
    batchGroundTruth();
    // Sticky ENOSPC from the 13th durable write: a handful of jobs
    // land, then the "disk" fills and the campaign degrades.
    startDaemon("write#12+=ENOSPC");
    submitUntilDegraded();
    const JsonValue status = awaitState("c", "degraded");
    EXPECT_EQ(status.find("errno_name")->asString(), "ENOSPC");
    EXPECT_TRUE(status.find("retriable")->asBool());

    const fs::path ckpt = fs::path(data_) / "checkpoints" / "c.ckpt";
    ASSERT_TRUE(fs::exists(ckpt));
    {
        // The durable record led the stream: the checkpoint holds a
        // verifiable prefix of the campaign.
        const std::optional<LoadedCheckpoint> loaded =
            loadCheckpoint(ckpt.string());
        ASSERT_TRUE(loaded.has_value());
        EXPECT_GT(loaded->records.size(), 0u);
        EXPECT_LT(loaded->records.size(), kRepeat);
    }
    EXPECT_FALSE(fs::exists(fs::path(data_) / "results" / "c"))
        << "a degraded campaign publishes nothing";

    // The operator's worst night: the wedged daemon is SIGKILLed
    // while degraded, then restarted after the fault cleared.
    killDaemon();
    startDaemon(); // no fault plan: space is back
    awaitState("c", "done");
    EXPECT_FALSE(fs::exists(ckpt));
    EXPECT_FALSE(fs::exists(ckpt.string() + ".bad"));
    expectPublishedMatchesBatch();
    shutdownDaemon();
}

TEST_F(HarpdChaosTest, PublishRenameFaultThenRestartRepublishes)
{
    batchGroundTruth();
    // Every job completes; only the staging->results rename fails.
    startDaemon("rename#0=ENOSPC");
    submitUntilDegraded();
    awaitState("c", "degraded");
    {
        const std::optional<LoadedCheckpoint> loaded = loadCheckpoint(
            (fs::path(data_) / "checkpoints" / "c.ckpt").string());
        ASSERT_TRUE(loaded.has_value());
        EXPECT_EQ(loaded->records.size(), kRepeat)
            << "all jobs were durable before the publish fault";
    }
    killDaemon();

    // The degraded run left a staging dir; corrupt it to prove the
    // restart sweep discards partial state rather than publishing it.
    const fs::path staging =
        fs::path(data_) / "results" / ".tmp-c";
    if (fs::exists(staging)) {
        std::ofstream garbage(staging / "quickstart.jsonl",
                              std::ios::binary | std::ios::trunc);
        garbage << "corrupted partial line without newline";
    }

    startDaemon();
    awaitState("c", "done");
    EXPECT_FALSE(fs::exists(staging))
        << "stale staging dirs are swept on start";
    expectPublishedMatchesBatch();
    shutdownDaemon();
}

} // namespace
} // namespace harp::harpd
