/**
 * @file
 * In-process integration tests for the harpd server: batch-vs-served
 * byte-identity, concurrent multi-tenant submissions, double-submit
 * rejection, cancellation, client-disconnect fault injection,
 * wire-level fault injection (malformed/oversized/half-closed), the
 * connection-leak witness, and graceful-shutdown resume — all against
 * a synthetic registry so the suite stays fast enough for the TSan and
 * ASan sweeps.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "harpd/checkpoint.hh"
#include "harpd/client.hh"
#include "harpd/protocol.hh"
#include "runner/registry.hh"
#include "support/files.hh"
#include "support/harpd_harness.hh"

namespace harp::harpd {
namespace {

namespace fs = std::filesystem;
using runner::JsonValue;
using test::readFile;
using test::StreamedCampaign;
using test::streamSubmit;
using test::submitRequest;

class ServerTest : public test::ServerFixture
{
  protected:
    ServerTest() { config_.threads = 4; }
};

TEST_F(ServerTest, ServedCampaignIsByteIdenticalToBatch)
{
    startServer();
    const std::string batch = batchDir({"fast", "slow"}, 42, 2, 4);

    Client client(config_.socketPath);
    const StreamedCampaign streamed = streamSubmit(
        client, submitRequest(
            {.campaign = "c1", .experiments = {"fast", "slow"}, .seed = 42,
             .repeat = 2}));
    ASSERT_TRUE(streamed.done);
    EXPECT_EQ(streamed.totalJobs, 3u * 2 + 8u * 2);
    EXPECT_EQ(streamed.restoredJobs, 0u);

    // Streamed lines == batch JSONL bytes, experiment by experiment.
    for (const std::string name : {"fast", "slow"})
        EXPECT_EQ(streamed.jsonl.at(name),
                  readFile(fs::path(batch) / (name + ".jsonl")))
            << name;
    // Streamed summary == batch summary.json bytes.
    EXPECT_EQ(streamed.summaryBytes,
              readFile(fs::path(batch) / "summary.json"));

    // The daemon's published copy matches too, file for file.
    const fs::path published =
        fs::path(config_.dataDir) / "results" / "c1";
    for (const std::string name : {"fast", "slow"})
        EXPECT_EQ(readFile(published / (name + ".jsonl")),
                  readFile(fs::path(batch) / (name + ".jsonl")));
    EXPECT_EQ(readFile(published / "summary.json"),
              readFile(fs::path(batch) / "summary.json"));

    // Success removes the checkpoint.
    EXPECT_FALSE(fs::exists(fs::path(config_.dataDir) / "checkpoints" /
                            "c1.ckpt"));
}

TEST_F(ServerTest, ServedBytesIndependentOfServerThreadCount)
{
    config_.threads = 1;
    startServer();
    Client narrow(config_.socketPath);
    const StreamedCampaign one = streamSubmit(
        narrow, submitRequest(
            {.campaign = "t1", .experiments = {"fast"}, .seed = 7,
             .repeat = 3}));
    ASSERT_TRUE(one.done);
    stopServer();

    config_.threads = 4;
    config_.socketPath += ".2";
    startServer();
    Client wide(config_.socketPath);
    const StreamedCampaign four = streamSubmit(
        wide, submitRequest(
            {.campaign = "t4", .experiments = {"fast"}, .seed = 7,
             .repeat = 3}));
    ASSERT_TRUE(four.done);

    EXPECT_EQ(one.jsonl.at("fast"), four.jsonl.at("fast"));
    EXPECT_EQ(one.summaryBytes, four.summaryBytes);
    EXPECT_EQ(one.resultHash.at("fast"), four.resultHash.at("fast"));
}

TEST_F(ServerTest, ConcurrentTenantsGetIndependentIdenticalStreams)
{
    startServer();
    constexpr int kTenants = 4;
    std::vector<StreamedCampaign> streams(kTenants);
    std::vector<std::thread> tenants;
    for (int t = 0; t < kTenants; ++t)
        tenants.emplace_back([&, t] {
            Client client(config_.socketPath);
            streams[t] = streamSubmit(
                client, submitRequest(
                    {.campaign = "tenant" + std::to_string(t),
                     .experiments = {"fast", "slow"}, .seed = 5, .repeat = 1,
                     .overrides = {{"delay_ms", "1"}}}));
        });
    for (std::thread &tenant : tenants)
        tenant.join();

    // Same spec + same seed from different tenants: identical bytes
    // and hashes, regardless of how the shared pool interleaved them.
    for (int t = 0; t < kTenants; ++t) {
        ASSERT_TRUE(streams[t].done) << t;
        EXPECT_EQ(streams[t].jsonl.at("fast"),
                  streams[0].jsonl.at("fast"));
        EXPECT_EQ(streams[t].jsonl.at("slow"),
                  streams[0].jsonl.at("slow"));
        EXPECT_EQ(streams[t].resultHash.at("fast"),
                  streams[0].resultHash.at("fast"));
        EXPECT_EQ(streams[t].summaryBytes, streams[0].summaryBytes);
    }
    // And the batch ground truth agrees.
    const std::string batch = batchDir({"fast", "slow"}, 5, 1, 2);
    EXPECT_EQ(streams[0].jsonl.at("fast"),
              readFile(fs::path(batch) / "fast.jsonl"));
    EXPECT_EQ(streams[0].summaryBytes,
              readFile(fs::path(batch) / "summary.json"));
}

TEST_F(ServerTest, DoubleSubmitIsRejected)
{
    startServer();
    Client first(config_.socketPath);
    ASSERT_TRUE(first.send(submitRequest(
        {.campaign = "dup", .experiments = {"slow"}, .seed = 1, .repeat = 2,
         .overrides = {{"delay_ms", "10"}}})));
    const std::optional<JsonValue> accepted = first.read();
    ASSERT_TRUE(accepted.has_value());
    ASSERT_EQ(accepted->find("type")->asString(), "accepted");

    // While running: rejected.
    Client second(config_.socketPath);
    const JsonValue while_running =
        second.request(submitRequest(
            {.campaign = "dup", .experiments = {"fast"}, .seed = 1,
             .repeat = 1}));
    EXPECT_EQ(while_running.find("type")->asString(), "error");
    EXPECT_EQ(while_running.find("code")->asString(),
              errc::duplicateCampaign);

    awaitState("dup", "done");
    // After completion: still rejected (results exist on disk).
    Client third(config_.socketPath);
    const JsonValue after_done =
        third.request(submitRequest(
            {.campaign = "dup", .experiments = {"fast"}, .seed = 1,
             .repeat = 1}));
    EXPECT_EQ(after_done.find("code")->asString(),
              errc::duplicateCampaign);
}

TEST_F(ServerTest, CancelStopsACampaignAndRemovesItsCheckpoint)
{
    startServer();
    Client submitter(config_.socketPath);
    ASSERT_TRUE(submitter.send(submitRequest(
        {.campaign = "victim", .experiments = {"slow"}, .seed = 1, .repeat = 16,
         .overrides = {{"delay_ms", "20"}}})));
    const std::optional<JsonValue> accepted = submitter.read();
    ASSERT_TRUE(accepted.has_value());

    Client controller(config_.socketPath);
    JsonValue cancel = JsonValue::object();
    cancel.set("verb", JsonValue("cancel"));
    cancel.set("campaign", JsonValue("victim"));
    const JsonValue reply = controller.request(cancel);
    EXPECT_EQ(reply.find("type")->asString(), "ok");

    // The stream ends with a `cancelled` event (never `done`).
    bool saw_cancelled = false;
    for (;;) {
        const std::optional<JsonValue> event = submitter.read();
        if (!event.has_value())
            break;
        const std::string kind = event->find("type")->asString();
        ASSERT_NE(kind, "done");
        if (kind == "cancelled") {
            saw_cancelled = true;
            break;
        }
    }
    EXPECT_TRUE(saw_cancelled);
    awaitState("victim", "cancelled");
    // User cancel is a decision, not an interruption: no checkpoint
    // survives, no results are published.
    EXPECT_FALSE(fs::exists(fs::path(config_.dataDir) / "checkpoints" /
                            "victim.ckpt"));
    EXPECT_FALSE(
        fs::exists(fs::path(config_.dataDir) / "results" / "victim"));

    // Cancelling an unknown campaign is a structured error.
    Client other(config_.socketPath);
    JsonValue bad = JsonValue::object();
    bad.set("verb", JsonValue("cancel"));
    bad.set("campaign", JsonValue("ghost"));
    EXPECT_EQ(other.request(bad).find("code")->asString(),
              errc::unknownCampaign);
}

/** A job far longer than any wave polls the cancel flag inside its
 *  own loop: cancel ends the campaign within a second instead of
 *  waiting out two billion accesses. */
TEST_F(ServerTest, CancelStopsALongRunningJobWithinASecond)
{
    config_.registry = &runner::builtinRegistry();
    startServer();
    // Jobs far longer than the test, each polling the cancel flag in
    // its own loop: an access loop and a fleet's stratum loop.
    struct Row
    {
        std::string campaign;
        std::string experiment;
        std::map<std::string, std::string> overrides;
    };
    const std::vector<Row> rows = {
        {"long", "extension_secondary_interleaving",
         {{"accesses", "2000000000"}}},
        {"long_fleet", "fleet_policy_sweep", {{"chips", "50000000"}}},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.experiment);
        Client submitter(config_.socketPath);
        ASSERT_TRUE(submitter.send(submitRequest(
            {.campaign = row.campaign, .experiments = {row.experiment},
             .seed = 1, .repeat = 1, .overrides = row.overrides})));
        const std::optional<JsonValue> accepted = submitter.read();
        ASSERT_TRUE(accepted.has_value());
        awaitState(row.campaign, "running");
        // Let the job get well into its loop.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

        const auto start = std::chrono::steady_clock::now();
        Client controller(config_.socketPath);
        JsonValue cancel = JsonValue::object();
        cancel.set("verb", JsonValue("cancel"));
        cancel.set("campaign", JsonValue(row.campaign));
        EXPECT_EQ(controller.request(cancel).find("type")->asString(),
                  "ok");
        awaitState(row.campaign, "cancelled");
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::seconds(1));
        EXPECT_FALSE(fs::exists(fs::path(config_.dataDir) /
                                "checkpoints" / (row.campaign + ".ckpt")));
    }
}

TEST_F(ServerTest, ClientDisconnectMidStreamDoesNotAbortTheCampaign)
{
    startServer();
    const std::string batch =
        batchDir({"slow"}, 9, 4, 4); // ground truth
    {
        Client client(config_.socketPath);
        ASSERT_TRUE(client.send(submitRequest(
            {.campaign = "orphan", .experiments = {"slow"}, .seed = 9,
             .repeat = 4, .overrides = {{"delay_ms", "5"}}})));
        // Read just the acceptance plus one result, then vanish.
        ASSERT_TRUE(client.read().has_value());
        ASSERT_TRUE(client.read().has_value());
    } // abortive close while the campaign is mid-flight

    awaitState("orphan", "done");
    const fs::path published =
        fs::path(config_.dataDir) / "results" / "orphan";
    EXPECT_EQ(readFile(published / "slow.jsonl"),
              readFile(fs::path(batch) / "slow.jsonl"));
    EXPECT_EQ(readFile(published / "summary.json"),
              readFile(fs::path(batch) / "summary.json"));
}

TEST_F(ServerTest, WireFaultsGetStructuredErrorsAndNeverKillTheServer)
{
    startServer();
    {
        // Malformed JSON: error reply, connection stays usable.
        Client client(config_.socketPath);
        ASSERT_TRUE(client.sendLine("this is not json\n"));
        std::optional<JsonValue> reply = client.read();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->find("code")->asString(), errc::badJson);
        JsonValue ping = JsonValue::object();
        ping.set("verb", JsonValue("ping"));
        EXPECT_EQ(client.request(ping).find("type")->asString(),
                  "pong");
    }
    {
        // Unknown verb.
        Client client(config_.socketPath);
        ASSERT_TRUE(client.sendLine("{\"verb\":\"frobnicate\"}\n"));
        const std::optional<JsonValue> reply = client.read();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->find("code")->asString(), errc::unknownVerb);
    }
    {
        // Unknown experiment in a submit.
        Client client(config_.socketPath);
        const JsonValue reply =
            client.request(submitRequest(
                {.campaign = "x1", .experiments = {"no_such"}, .seed = 1,
                 .repeat = 1}));
        EXPECT_EQ(reply.find("code")->asString(),
                  errc::unknownExperiment);
    }
    {
        // Unknown override: batch-CLI parity says reject up front.
        Client client(config_.socketPath);
        const JsonValue reply = client.request(submitRequest(
            {.campaign = "x2", .experiments = {"fast"}, .seed = 1, .repeat = 1,
             .overrides = {{"bogus_knob", "3"}}}));
        EXPECT_EQ(reply.find("code")->asString(), errc::badRequest);
    }
    {
        // Oversized line: error reply, then the connection closes
        // (framing cannot resynchronize).
        Client client(config_.socketPath);
        std::string huge(maxLineBytes + 100, 'a');
        huge += "\n";
        ASSERT_TRUE(client.sendLine(huge));
        const std::optional<JsonValue> reply = client.read();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->find("code")->asString(),
                  errc::oversizedLine);
        EXPECT_FALSE(client.read().has_value());
    }
    {
        // Half-closed mid-line: best-effort error, then close.
        Client client(config_.socketPath);
        ASSERT_TRUE(client.sendLine("{\"verb\":\"pi")); // no newline
        client.halfClose();
        const std::optional<JsonValue> reply = client.read();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->find("code")->asString(), errc::badRequest);
        EXPECT_FALSE(client.read().has_value());
    }
    // After all that abuse the server still serves.
    Client survivor(config_.socketPath);
    JsonValue ping = JsonValue::object();
    ping.set("verb", JsonValue("ping"));
    EXPECT_EQ(survivor.request(ping).find("type")->asString(), "pong");
}

/** A degenerate built-in experiment (zero profiling rounds, a negative
 *  count) fails as a job error on its own campaign, a malformed value
 *  is refused at submit, and the daemon keeps serving. */
TEST_F(ServerTest, ZeroRoundSubmitFailsTheCampaignNotTheServer)
{
    config_.registry = &runner::builtinRegistry();
    startServer();
    // Each row poisons one job: zero rounds, a zero-word chip (the
    // retention study's access loop divides by the word count), more
    // at-risk cells than a k = 64 codeword has, and a negative count
    // (once a near-2^64 loop bound that never finished).
    const std::vector<std::pair<std::string, std::map<std::string,
                                                      std::string>>>
        poisons = {{"fig06_direct_coverage", {{"rounds", "0"}}},
                   {"fig10_case_study", {{"rounds", "0"}}},
                   {"retention_case_study", {{"words", "0"}}},
                   {"quickstart", {{"pre_errors", "72"}}},
                   {"extension_secondary_interleaving",
                    {{"accesses", "-1"}}}};
    const fs::path checkpoints = fs::path(config_.dataDir) / "checkpoints";
    for (std::size_t i = 0; i < poisons.size(); ++i) {
        const auto &[experiment, overrides] = poisons[i];
        const std::string id = "poison" + std::to_string(i);
        Client client(config_.socketPath);
        const StreamedCampaign streamed = streamSubmit(
            client, submitRequest(
                {.campaign = id, .experiments = {experiment}, .seed = 1,
                 .repeat = 1, .overrides = overrides}));
        EXPECT_FALSE(streamed.done) << experiment;
        EXPECT_EQ(streamed.errorCode, errc::campaignFailed) << experiment;
        EXPECT_FALSE(fs::exists(checkpoints / (id + ".ckpt"))) << experiment;
    }
    // A malformed value, and the retired `engine` selector (now a knob
    // no experiment declares), are refused at submit, before a
    // checkpoint exists.
    const std::vector<std::pair<std::string, std::map<std::string,
                                                      std::string>>>
        refused = {{"malformed", {{"words", "abc"}}},
                   {"engine", {{"engine", "scalar"}}}};
    for (const auto &[id, overrides] : refused) {
        Client client(config_.socketPath);
        const StreamedCampaign streamed = streamSubmit(
            client, submitRequest(
                {.campaign = id, .experiments = {"fig06_direct_coverage"},
                 .seed = 1, .repeat = 1, .overrides = overrides}));
        EXPECT_EQ(streamed.errorCode, errc::badRequest) << id;
        EXPECT_FALSE(fs::exists(checkpoints / (id + ".ckpt"))) << id;
    }
    Client survivor(config_.socketPath);
    JsonValue ping = JsonValue::object();
    ping.set("verb", JsonValue("ping"));
    EXPECT_EQ(survivor.request(ping).find("type")->asString(), "pong");
}

TEST_F(ServerTest, ConnectionsAreReapedNotLeaked)
{
    startServer();
    for (int i = 0; i < 8; ++i) {
        Client client(config_.socketPath);
        JsonValue ping = JsonValue::object();
        ping.set("verb", JsonValue("ping"));
        EXPECT_EQ(client.request(ping).find("type")->asString(),
                  "pong");
    } // each destructor closes its socket
    for (int i = 0; i < 2000 && server_->activeConnections() != 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(server_->activeConnections(), 0u);
}

TEST_F(ServerTest, ListMatchesRegistryToJsonAndShowsCampaigns)
{
    startServer();
    Client client(config_.socketPath);
    const StreamedCampaign streamed =
        streamSubmit(client, submitRequest(
            {.campaign = "seen", .experiments = {"fast"}, .seed = 1,
             .repeat = 1}));
    ASSERT_TRUE(streamed.done);

    JsonValue list = JsonValue::object();
    list.set("verb", JsonValue("list"));
    const JsonValue reply = client.request(list);
    ASSERT_EQ(reply.find("type")->asString(), "list");
    // The registry document is the same one `harp_run --list-json`
    // prints — shared implementation, cross-checked here.
    EXPECT_EQ(reply.find("registry")->dump(2),
              runner::registryToJson(registry_).dump(2));
    const JsonValue *campaigns = reply.find("campaigns");
    ASSERT_NE(campaigns, nullptr);
    ASSERT_EQ(campaigns->size(), 1u);
    EXPECT_EQ(campaigns->at(0).find("id")->asString(), "seen");
    EXPECT_EQ(campaigns->at(0).find("state")->asString(), "done");
}

TEST_F(ServerTest, GracefulShutdownCheckpointsAndResumes)
{
    startServer();
    const std::string batch =
        batchDir({"slow"}, 3, 8, 4); // 64 jobs of ~10ms

    Client client(config_.socketPath);
    ASSERT_TRUE(client.send(submitRequest(
        {.campaign = "night", .experiments = {"slow"}, .seed = 3, .repeat = 8,
         .overrides = {{"delay_ms", "10"}}})));
    ASSERT_TRUE(client.read().has_value()); // accepted
    ASSERT_TRUE(client.read().has_value()); // first result arrived

    // Stop mid-campaign: a drain, not an abort.
    stopServer();
    const fs::path ckpt =
        fs::path(config_.dataDir) / "checkpoints" / "night.ckpt";
    EXPECT_TRUE(fs::exists(ckpt));
    EXPECT_FALSE(
        fs::exists(fs::path(config_.dataDir) / "results" / "night"));

    // A new daemon on the same data dir resumes it, detached.
    config_.socketPath += ".2";
    startServer();
    EXPECT_EQ(server_->resumedCampaigns(), 1u);
    awaitState("night", "done");
    EXPECT_FALSE(fs::exists(ckpt));
    const fs::path published =
        fs::path(config_.dataDir) / "results" / "night";
    EXPECT_EQ(readFile(published / "slow.jsonl"),
              readFile(fs::path(batch) / "slow.jsonl"));
    EXPECT_EQ(readFile(published / "summary.json"),
              readFile(fs::path(batch) / "summary.json"));
}

/**
 * A checkpoint written before the `engine` selector was retired still
 * resumes: its header carries `engine` in its overrides, which the
 * session ignores like any knob no experiment declares. The campaign
 * publishes the bytes of a batch run without it, and the checkpoint is
 * consumed, not set aside as .bad.
 */
TEST_F(ServerTest, CheckpointWithRetiredEngineOverrideResumes)
{
    config_.registry = &runner::builtinRegistry();
    const std::map<std::string, std::string> overrides = {
        {"codes", "1"}, {"words", "70"}, {"rounds", "6"}};
    CheckpointHeader header;
    header.campaign = "legacy";
    header.experiments = {"fig06_direct_coverage"};
    header.seed = 7;
    header.overrides = overrides;
    header.overrides["engine"] = "scalar";
    const fs::path ckpt =
        fs::path(config_.dataDir) / "checkpoints" / "legacy.ckpt";
    fs::create_directories(ckpt.parent_path());
    {
        const CheckpointWriter writer(ckpt.string(), header);
    }

    startServer();
    EXPECT_EQ(server_->resumedCampaigns(), 1u);
    awaitState("legacy", "done");
    EXPECT_FALSE(fs::exists(ckpt));
    EXPECT_FALSE(fs::exists(ckpt.string() + ".bad"));

    const fs::path batch =
        batchDir({"fig06_direct_coverage"}, 7, 1, 4, overrides);
    const fs::path published =
        fs::path(config_.dataDir) / "results" / "legacy";
    EXPECT_EQ(readFile(published / "fig06_direct_coverage.jsonl"),
              readFile(batch / "fig06_direct_coverage.jsonl"));
    EXPECT_EQ(readFile(published / "summary.json"),
              readFile(batch / "summary.json"));
}

TEST_F(ServerTest, SubmitDuringShutdownIsRefused)
{
    startServer();
    // Open the connection first so the request is in flight while the
    // server drains.
    Client client(config_.socketPath);
    server_->requestStop();
    // The reply is either a structured shutting_down error or a closed
    // socket, depending on how far the drain got — both are clean.
    if (client.send(submitRequest(
            {.campaign = "late", .experiments = {"fast"}, .seed = 1,
             .repeat = 1}))) {
        try {
            const std::optional<JsonValue> reply = client.read();
            if (reply.has_value() &&
                reply->find("type")->asString() == "error") {
                EXPECT_EQ(reply->find("code")->asString(),
                          errc::shuttingDown);
            }
        } catch (const std::exception &) {
            // Torn read mid-shutdown: acceptable.
        }
    }
    stopServer();
    EXPECT_FALSE(fs::exists(fs::path(config_.dataDir) / "results" /
                            "late"));
}

} // namespace
} // namespace harp::harpd
