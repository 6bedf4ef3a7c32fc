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

constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kRepeat = 48; // quickstart grid is 1 point
const std::map<std::string, std::string> kOverrides = {
    {"rounds", "2048"}}; // paces one job to a few ms: a kill window

class HarpdResumeTest : public test::DaemonFixture
{
  protected:
    HarpdResumeTest()
        : DaemonFixture({.harpd = HARPD_BIN_PATH, .threads = 4})
    {
    }

    /** Submit "c", SIGKILL the daemon after @p kill_after streamed
     *  results, optionally mangle the checkpoint tail, restart, and
     *  verify the resumed output byte-matches the ground truth. */
    void runKillResumeScenario(std::size_t kill_after,
                               bool corrupt_tail)
    {
        const fs::path batch = batchGroundTruth(kSeed, kRepeat, kOverrides);
        startDaemon();
        {
            Client client(socket_);
            ASSERT_TRUE(client.send(submitRequest(
                {.campaign = "c", .experiments = {"quickstart"},
                 .seed = kSeed, .repeat = kRepeat,
                 .overrides = kOverrides})));

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
