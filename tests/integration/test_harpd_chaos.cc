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

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "harpd/checkpoint.hh"
#include "harpd/client.hh"
#include "support/files.hh"
#include "support/harpd_harness.hh"

namespace harp::harpd {
namespace {

namespace fs = std::filesystem;
using runner::JsonValue;
using test::readFile;
using test::submitRequest;

constexpr std::uint64_t kSeed = 17;
constexpr std::size_t kRepeat = 32; // quickstart grid is 1 point
const std::map<std::string, std::string> kOverrides = {
    {"rounds", "2048"}}; // paces one job to a few ms

class HarpdChaosTest : public test::DaemonFixture
{
  protected:
    HarpdChaosTest() : DaemonFixture({.harpd = HARPD_BIN_PATH}) {}

    /** Submit "c" and consume its stream until it degrades. */
    void submitUntilDegraded()
    {
        Client client(socket_);
        ASSERT_TRUE(client.send(submitRequest(
            {.campaign = "c", .experiments = {"quickstart"}, .seed = kSeed,
             .repeat = kRepeat, .overrides = kOverrides})));

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
        const fs::path batch = batchGroundTruth(kSeed, kRepeat, kOverrides);
        const fs::path published = fs::path(data_) / "results" / "c";
        EXPECT_EQ(readFile(published / "quickstart.jsonl"),
                  readFile(batch / "quickstart.jsonl"));
        EXPECT_EQ(readFile(published / "summary.json"),
                  readFile(batch / "summary.json"));
    }
};

TEST_F(HarpdChaosTest, SigkillDuringEnospcDegradeResumesByteIdentical)
{
    batchGroundTruth(kSeed, kRepeat, kOverrides);
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
    batchGroundTruth(kSeed, kRepeat, kOverrides);
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
