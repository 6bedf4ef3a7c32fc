/**
 * @file
 * Kill/resume property tests against the real `harpd` binary (path in
 * $HARPD_BIN, injected by CTest): SIGKILL the daemon after N streamed
 * results, restart it on the same data dir, and require the resumed
 * campaign's published JSONL + summary.json to be byte-identical to an
 * uninterrupted batch `harp_run --no-timings` — including the variant
 * where the checkpoint's tail record was corrupted by the crash and
 * must be truncate-recovered (never abort, never .bad) with only the
 * lost job recomputed.
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

constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kRepeat = 48; // quickstart grid is 1 point
const std::map<std::string, std::string> kOverrides = {
    {"rounds", "2048"}}; // paces one job to a few ms: a kill window

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

class HarpdResumeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
#ifdef HARPD_BIN_PATH
        binary_ = HARPD_BIN_PATH; // injected by CMake (TARGET_FILE)
#endif
        if (const char *env = std::getenv("HARPD_BIN"))
            binary_ = env;
        if (binary_.empty() || !fs::exists(binary_))
            FAIL() << "harpd binary not found (" << binary_ << ")";
        root_ = fs::temp_directory_path() /
                ("harpd_resume_" + std::to_string(::getpid()));
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
                    "--threads", "4", nullptr);
            ::_exit(127);
        }
        // Wait until the socket accepts (bound in start(), so resumed
        // campaigns are already registered once we can talk).
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

    JsonValue awaitDone(const std::string &campaign)
    {
        for (int i = 0; i < 4000; ++i) {
            try {
                Client client(socket_);
                JsonValue request = JsonValue::object();
                request.set("verb", JsonValue("status"));
                request.set("campaign", JsonValue(campaign));
                const JsonValue reply = client.request(request);
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

    /** Submit "c", SIGKILL the daemon after @p kill_after streamed
     *  results, optionally mangle the checkpoint tail, restart, and
     *  verify the resumed output byte-matches the ground truth. */
    void runKillResumeScenario(std::size_t kill_after,
                               bool corrupt_tail)
    {
        const fs::path batch = batchGroundTruth();
        startDaemon();
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

            std::size_t results = 0;
            while (results < kill_after) {
                const std::optional<JsonValue> event = client.read();
                ASSERT_TRUE(event.has_value())
                    << "stream ended after " << results << " results";
                const std::string kind =
                    event->find("type")->asString();
                ASSERT_NE(kind, "done")
                    << "campaign finished before the kill point; "
                       "raise rounds/repeat";
                ASSERT_NE(kind, "error") << event->dump();
                if (kind == "result")
                    ++results;
            }
        }
        killDaemon();

        // The durable record leads the stream: every result the client
        // saw must already be in the checkpoint.
        const fs::path ckpt =
            fs::path(data_) / "checkpoints" / "c.ckpt";
        ASSERT_TRUE(fs::exists(ckpt));
        {
            const std::optional<LoadedCheckpoint> loaded =
                loadCheckpoint(ckpt.string());
            ASSERT_TRUE(loaded.has_value());
            EXPECT_GE(loaded->records.size(), kill_after);
            EXPECT_LT(loaded->records.size(), kRepeat)
                << "campaign finished before the kill; no resume "
                   "would be exercised";
        }

        if (corrupt_tail) {
            // Crash-corrupt the *last full record*: flip a payload
            // byte so its checksum fails, then add a torn half-record.
            std::string text = readFile(ckpt);
            const std::size_t last_start =
                text.rfind('\n', text.size() - 2) + 1;
            text[last_start + 24] ^= 0x20;
            text += "0123456789abcdef {\"type\":\"job\",\"exp";
            std::ofstream out(ckpt,
                              std::ios::binary | std::ios::trunc);
            out << text;
        }

        startDaemon(); // resumes "c" detached from any client
        awaitDone("c");

        // No checkpoint was abandoned as .bad — tail corruption is
        // recoverable by construction.
        EXPECT_FALSE(fs::exists(ckpt.string() + ".bad"));
        EXPECT_FALSE(fs::exists(ckpt)); // consumed on completion

        const fs::path published =
            fs::path(data_) / "results" / "c";
        EXPECT_EQ(readFile(published / "quickstart.jsonl"),
                  readFile(batch / "quickstart.jsonl"));
        EXPECT_EQ(readFile(published / "summary.json"),
                  readFile(batch / "summary.json"));
        shutdownDaemon();
    }

    std::string binary_;
    fs::path root_;
    std::string socket_;
    std::string data_;
    pid_t daemon_ = -1;
};

TEST_F(HarpdResumeTest, KillEarlyThenResumeIsByteIdentical)
{
    runKillResumeScenario(/*kill_after=*/2, /*corrupt_tail=*/false);
}

TEST_F(HarpdResumeTest, KillLateThenResumeIsByteIdentical)
{
    runKillResumeScenario(/*kill_after=*/13, /*corrupt_tail=*/false);
}

TEST_F(HarpdResumeTest, CorruptedCheckpointTailIsRecoveredNotFatal)
{
    runKillResumeScenario(/*kill_after=*/5, /*corrupt_tail=*/true);
}

} // namespace
} // namespace harp::harpd
