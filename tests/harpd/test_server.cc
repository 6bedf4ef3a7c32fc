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

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "harpd/client.hh"
#include "harpd/protocol.hh"
#include "harpd/server.hh"
#include "runner/campaign.hh"
#include "runner/registry.hh"

namespace harp::harpd {
namespace {

namespace fs = std::filesystem;
using runner::JsonType;
using runner::JsonValue;

/** Deterministic, fast experiments for the served-vs-batch contract. */
runner::Registry
makeTestRegistry()
{
    runner::Registry registry;
    {
        runner::ExperimentSpec spec;
        spec.name = "fast";
        spec.description = "deterministic toy metrics";
        spec.labels = {"toy"};
        runner::ParamAxis axis;
        axis.name = "x";
        axis.values = {runner::ParamValue(std::int64_t(1)),
                       runner::ParamValue(std::int64_t(2)),
                       runner::ParamValue(std::int64_t(3))};
        spec.grid = runner::ParamGrid({axis});
        spec.schema = {{"value", JsonType::Int, "seed-derived value"},
                       {"x2", JsonType::Int, "x squared"}};
        spec.run = [](const runner::RunContext &ctx) {
            const std::int64_t x = ctx.getInt("x");
            JsonValue metrics = JsonValue::object();
            metrics.set("value",
                        JsonValue(static_cast<std::int64_t>(
                            ctx.seed() % 1000003)));
            metrics.set("x2", JsonValue(x * x));
            return metrics;
        };
        registry.add(std::move(spec));
    }
    {
        runner::ExperimentSpec spec;
        spec.name = "slow";
        spec.description = "paced toy metrics for cancel/kill windows";
        spec.labels = {"toy"};
        runner::ParamAxis axis;
        axis.name = "i";
        for (std::int64_t i = 0; i < 8; ++i)
            axis.values.push_back(runner::ParamValue(i));
        spec.grid = runner::ParamGrid({axis});
        spec.tunables = {{"delay_ms", 5, "per-job sleep"}};
        spec.schema = {{"i_out", JsonType::Int, "echoed index"}};
        spec.run = [](const runner::RunContext &ctx) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                ctx.getInt("delay_ms")));
            JsonValue metrics = JsonValue::object();
            metrics.set("i_out", JsonValue(ctx.getInt("i")));
            return metrics;
        };
        registry.add(std::move(spec));
    }
    return registry;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Everything one streamed submit produced, reassembled. */
struct StreamedCampaign
{
    std::map<std::string, std::string> jsonl; ///< name -> file bytes
    std::string summaryBytes;                 ///< summary.json bytes
    std::map<std::string, std::string> resultHash;
    bool done = false;
    bool cancelled = false;
    std::string errorCode;
    std::size_t totalJobs = 0;
    std::size_t restoredJobs = 0;
};

JsonValue
submitRequest(const std::string &campaign,
              const std::vector<std::string> &experiments,
              std::uint64_t seed, std::size_t repeat,
              const std::map<std::string, std::string> &overrides = {})
{
    JsonValue request = JsonValue::object();
    request.set("verb", JsonValue("submit"));
    request.set("campaign", JsonValue(campaign));
    JsonValue list = JsonValue::array();
    for (const std::string &name : experiments)
        list.push(JsonValue(name));
    request.set("experiments", list);
    request.set("seed", JsonValue(std::to_string(seed)));
    request.set("repeat", JsonValue(repeat));
    if (!overrides.empty()) {
        JsonValue object = JsonValue::object();
        for (const auto &[key, value] : overrides)
            object.set(key, JsonValue(value));
        request.set("overrides", object);
    }
    return request;
}

/** Drive one submit to completion, reassembling the stream. */
StreamedCampaign
streamSubmit(Client &client, const JsonValue &request)
{
    StreamedCampaign streamed;
    EXPECT_TRUE(client.send(request));
    for (;;) {
        std::optional<JsonValue> event = client.read();
        if (!event.has_value())
            break;
        const std::string kind = event->find("type")->asString();
        if (kind == "accepted") {
            streamed.totalJobs = static_cast<std::size_t>(
                event->find("total_jobs")->asInt());
            streamed.restoredJobs = static_cast<std::size_t>(
                event->find("restored_jobs")->asInt());
        } else if (kind == "result") {
            streamed.jsonl[event->find("experiment")->asString()] +=
                event->find("line")->asString() + "\n";
        } else if (kind == "experiment_done") {
            streamed.resultHash[event->find("experiment")->asString()] =
                event->find("result_hash")->asString();
        } else if (kind == "summary") {
            streamed.summaryBytes =
                event->find("summary")->dump(2) + "\n";
        } else if (kind == "done") {
            streamed.done = true;
            break;
        } else if (kind == "cancelled") {
            streamed.cancelled = true;
            break;
        } else if (kind == "error") {
            streamed.errorCode = event->find("code")->asString();
            break;
        }
    }
    return streamed;
}

class ServerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        registry_ = makeTestRegistry();
        static std::atomic<int> counter{0};
        const int id = counter.fetch_add(1);
        root_ = fs::temp_directory_path() /
                ("harpd_t" + std::to_string(::getpid()) + "_" +
                 std::to_string(id));
        fs::remove_all(root_);
        fs::create_directories(root_);
        config_.socketPath = (root_ / "d.sock").string();
        config_.dataDir = (root_ / "data").string();
        config_.threads = 4;
        config_.registry = &registry_;
    }

    void TearDown() override
    {
        stopServer();
        fs::remove_all(root_);
    }

    void startServer()
    {
        server_ = std::make_unique<Server>(config_);
        server_->start();
        serveThread_ = std::thread([this] { server_->serve(); });
    }

    void stopServer()
    {
        if (server_ != nullptr)
            server_->requestStop();
        if (serveThread_.joinable())
            serveThread_.join();
        server_.reset();
    }

    /** Batch ground truth: same registry, same seed, no timings. */
    std::string batchDir(const std::vector<std::string> &selectors,
                         std::uint64_t seed, std::size_t repeat,
                         std::size_t threads)
    {
        const fs::path out =
            root_ / ("batch_" + std::to_string(batches_++));
        runner::CampaignOptions options;
        options.seed = seed;
        options.threads = threads;
        options.repeat = repeat;
        options.noTimings = true;
        options.outDir = out.string();
        std::ostringstream log;
        runner::runCampaign(registry_.select(selectors), options, log);
        return out.string();
    }

    /** Poll the status verb until @p state (or fail after ~10 s). */
    JsonValue awaitState(const std::string &campaign,
                         const std::string &state)
    {
        for (int i = 0; i < 2000; ++i) {
            Client client(config_.socketPath);
            JsonValue request = JsonValue::object();
            request.set("verb", JsonValue("status"));
            request.set("campaign", JsonValue(campaign));
            const JsonValue reply = client.request(request);
            if (reply.find("type")->asString() == "status" &&
                reply.find("state")->asString() == state)
                return reply;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        ADD_FAILURE() << "campaign " << campaign << " never reached "
                      << state;
        return JsonValue::object();
    }

    runner::Registry registry_;
    fs::path root_;
    ServerConfig config_;
    std::unique_ptr<Server> server_;
    std::thread serveThread_;
    int batches_ = 0;
};

TEST_F(ServerTest, ServedCampaignIsByteIdenticalToBatch)
{
    startServer();
    const std::string batch = batchDir({"fast", "slow"}, 42, 2, 4);

    Client client(config_.socketPath);
    const StreamedCampaign streamed = streamSubmit(
        client, submitRequest("c1", {"fast", "slow"}, 42, 2));
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
        narrow, submitRequest("t1", {"fast"}, 7, 3));
    ASSERT_TRUE(one.done);
    stopServer();

    config_.threads = 4;
    config_.socketPath += ".2";
    startServer();
    Client wide(config_.socketPath);
    const StreamedCampaign four = streamSubmit(
        wide, submitRequest("t4", {"fast"}, 7, 3));
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
                client, submitRequest("tenant" + std::to_string(t),
                                      {"fast", "slow"}, 5, 1,
                                      {{"delay_ms", "1"}}));
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
    ASSERT_TRUE(first.send(
        submitRequest("dup", {"slow"}, 1, 2, {{"delay_ms", "10"}})));
    const std::optional<JsonValue> accepted = first.read();
    ASSERT_TRUE(accepted.has_value());
    ASSERT_EQ(accepted->find("type")->asString(), "accepted");

    // While running: rejected.
    Client second(config_.socketPath);
    const JsonValue while_running =
        second.request(submitRequest("dup", {"fast"}, 1, 1));
    EXPECT_EQ(while_running.find("type")->asString(), "error");
    EXPECT_EQ(while_running.find("code")->asString(),
              errc::duplicateCampaign);

    awaitState("dup", "done");
    // After completion: still rejected (results exist on disk).
    Client third(config_.socketPath);
    const JsonValue after_done =
        third.request(submitRequest("dup", {"fast"}, 1, 1));
    EXPECT_EQ(after_done.find("code")->asString(),
              errc::duplicateCampaign);
}

TEST_F(ServerTest, CancelStopsACampaignAndRemovesItsCheckpoint)
{
    startServer();
    Client submitter(config_.socketPath);
    ASSERT_TRUE(submitter.send(submitRequest(
        "victim", {"slow"}, 1, 16, {{"delay_ms", "20"}})));
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
            row.campaign, {row.experiment}, 1, 1, row.overrides)));
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
            "orphan", {"slow"}, 9, 4, {{"delay_ms", "5"}})));
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
            client.request(submitRequest("x1", {"no_such"}, 1, 1));
        EXPECT_EQ(reply.find("code")->asString(),
                  errc::unknownExperiment);
    }
    {
        // Unknown override: batch-CLI parity says reject up front.
        Client client(config_.socketPath);
        const JsonValue reply = client.request(submitRequest(
            "x2", {"fast"}, 1, 1, {{"bogus_knob", "3"}}));
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
            client, submitRequest(id, {experiment}, 1, 1, overrides));
        EXPECT_FALSE(streamed.done) << experiment;
        EXPECT_EQ(streamed.errorCode, errc::campaignFailed) << experiment;
        EXPECT_FALSE(fs::exists(checkpoints / (id + ".ckpt"))) << experiment;
    }
    // A malformed value is refused at submit, before a checkpoint exists.
    {
        Client client(config_.socketPath);
        const StreamedCampaign streamed = streamSubmit(
            client, submitRequest("malformed", {"fig06_direct_coverage"}, 1,
                                  1, {{"words", "abc"}}));
        EXPECT_EQ(streamed.errorCode, errc::badRequest);
        EXPECT_FALSE(fs::exists(checkpoints / "malformed.ckpt"));
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
        streamSubmit(client, submitRequest("seen", {"fast"}, 1, 1));
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
    ASSERT_TRUE(client.send(submitRequest("night", {"slow"}, 3, 8,
                                          {{"delay_ms", "10"}})));
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

TEST_F(ServerTest, SubmitDuringShutdownIsRefused)
{
    startServer();
    // Open the connection first so the request is in flight while the
    // server drains.
    Client client(config_.socketPath);
    server_->requestStop();
    // The reply is either a structured shutting_down error or a closed
    // socket, depending on how far the drain got — both are clean.
    if (client.send(submitRequest("late", {"fast"}, 1, 1))) {
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
