/**
 * @file
 * Overload-robustness of the shared pool, in process: a thundering
 * herd of weighted tenants completes in fair-share order with
 * byte-identical per-campaign output, deadlines cancel cooperatively
 * at wave boundaries into a resumable `deadline_exceeded` (and release
 * admission quota to parked work; a cancel there discards it for
 * good), the bounded admission queue publishes positions + retry
 * estimates and promotes in arrival order,
 * impossible submissions are shed rather than parked forever, and
 * progress heartbeats ride the replayable event log at stable seqs.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harpd/client.hh"
#include "harpd/protocol.hh"
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

class ServerOverloadTest : public test::ServerFixture
{
  protected:
    ServerOverloadTest()
    {
        config_.shedRetryAfterMs = 100;
        config_.watchdogPollMs = 10;
        awaitPolls_ = 4000;
    }
};

TEST_F(ServerOverloadTest, ThunderingHerdFollowsWeightsWithExactBytes)
{
    config_.tenantWeights = {{"heavy", 3}, {"l1", 1}, {"l2", 1}};
    startServer();
    const std::string batch = // 12 jobs, same spec
        batchDir({"paced"}, 7, 3, 2, {{"delay_ms", "10"}});

    // Three tenants with 3:1:1 weights on a 2-slot pool, each
    // submitting three 12-job campaigns at once. With three campaigns
    // a tenant stays backlogged: while one campaign runs a wave or
    // sits between waves, another one waits for a grant.
    constexpr int kTenants = 3, kCampaigns = 3;
    const char *tenants[kTenants] = {"heavy", "l1", "l2"};
    StreamedCampaign streams[kTenants][kCampaigns];
    std::vector<std::thread> clients;
    for (int t = 0; t < kTenants; ++t)
        for (int c = 0; c < kCampaigns; ++c)
            clients.emplace_back([&, t, c] {
                Client client(config_.socketPath);
                const std::string id =
                    "herd_" + std::string(tenants[t]) + std::to_string(c);
                streams[t][c] = streamSubmit(
                    client, submitRequest({.campaign = id,
                                           .experiments = {"paced"},
                                           .seed = 7,
                                           .repeat = 3,
                                           .overrides = {{"delay_ms", "10"}},
                                           .tenant = tenants[t]}));
            });
    for (std::thread &client : clients)
        client.join();

    // The shares, read from the scheduler's grant log rather than from
    // a status call racing the clients, over the grants made while all
    // three tenants contended: from the first grant with all three
    // enrolled up to the heavy tenant's last grant. (After it, the
    // heavy tenant's last wave drains unbacklogged and the lights take
    // every slot.) A tenant that misses a turn keeps its low pass and
    // wins the next grants, so the split stays within a few slots of
    // 3:1:1 whatever the timing. FIFO or equal weights would give the
    // heavy tenant about 1/3 of the slots, some 20 short of 3/5.
    const auto log = server_->fairScheduler().grantLog();
    std::map<std::string, std::size_t> last;
    for (std::size_t i = 0; i < log.size(); ++i)
        last[log[i].tenant] = i;
    ASSERT_EQ(last.size(), 3u);
    EXPECT_LT(last["heavy"], last["l1"]);
    EXPECT_LT(last["heavy"], last["l2"]);
    std::map<std::string, std::size_t> slots;
    std::size_t total = 0;
    for (std::size_t i = 0; i <= last["heavy"]; ++i) {
        if (log[i].tenants != kTenants)
            continue;
        slots[log[i].tenant] += log[i].slots;
        total += log[i].slots;
    }
    ASSERT_GE(total, 40u);
    EXPECT_NEAR(static_cast<double>(slots["heavy"]), 0.6 * total, 4.0);
    for (const char *light : {"l1", "l2"})
        EXPECT_NEAR(static_cast<double>(slots[light]), 0.2 * total, 4.0)
            << light;

    // Fairness never taxes correctness: every campaign's bytes match
    // the batch ground truth regardless of how waves interleaved.
    const std::string want = readFile(fs::path(batch) / "paced.jsonl");
    for (int t = 0; t < kTenants; ++t) {
        for (int c = 0; c < kCampaigns; ++c) {
            EXPECT_EQ(streams[t][c].terminal, "done") << tenants[t];
            EXPECT_EQ(streams[t][c].jsonl.at("paced"), want)
                << tenants[t];
        }
    }
}

TEST_F(ServerOverloadTest, DeadlineParksResumableThenBytesStillExact)
{
    startServer();
    const std::string batch = // 24 jobs
        batchDir({"paced"}, 7, 6, 2, {{"delay_ms", "20"}});

    // ~480ms of work against a 120ms deadline: the watchdog fires
    // mid-run, the wave boundary cancels cooperatively.
    Client client(config_.socketPath);
    const StreamedCampaign streamed = streamSubmit(
        client, submitRequest(
            {.campaign = "dl", .experiments = {"paced"}, .seed = 7, .repeat = 6,
             .overrides = {{"delay_ms", "20"}}, .deadlineMs = 120}));
    ASSERT_EQ(streamed.terminal, "deadline_exceeded");
    EXPECT_TRUE(streamed.resumableAtDeadline);
    EXPECT_LT(streamed.completedAtDeadline, 24u)
        << "deadline fired after the campaign finished; tighten it";

    const JsonValue status = awaitState("dl", "deadline_exceeded");
    EXPECT_EQ(status.find("priority")->asString(), "normal");
    const fs::path ckpt =
        fs::path(config_.dataDir) / "checkpoints" / "dl.ckpt";
    EXPECT_TRUE(fs::exists(ckpt)) << "checkpoint must survive";

    // Resume without a deadline: finishes, consumes the checkpoint,
    // and the published bytes equal an uninterrupted batch run — the
    // cancel tore nothing.
    const JsonValue ok = request("resume", "dl");
    ASSERT_EQ(ok.find("type")->asString(), "ok") << ok.dump();
    EXPECT_TRUE(ok.find("resuming")->asBool());
    awaitState("dl", "done");
    EXPECT_FALSE(fs::exists(ckpt));
    EXPECT_EQ(readFile(fs::path(config_.dataDir) / "results" / "dl" /
                       "paced.jsonl"),
              readFile(fs::path(batch) / "paced.jsonl"));
    EXPECT_EQ(readFile(fs::path(config_.dataDir) / "results" / "dl" /
                       "summary.json"),
              readFile(fs::path(batch) / "summary.json"));
}

TEST_F(ServerOverloadTest, CancelledDeadlineExceededCampaignStaysGone)
{
    startServer();
    Client client(config_.socketPath);
    const StreamedCampaign streamed = streamSubmit(
        client, submitRequest(
            {.campaign = "dlc", .experiments = {"paced"}, .seed = 7,
             .repeat = 6, .overrides = {{"delay_ms", "20"}},
             .deadlineMs = 120}));
    ASSERT_EQ(streamed.terminal, "deadline_exceeded");
    awaitState("dlc", "deadline_exceeded");
    const fs::path ckpt =
        fs::path(config_.dataDir) / "checkpoints" / "dlc.ckpt";
    ASSERT_TRUE(fs::exists(ckpt));

    const JsonValue reply = request("cancel", "dlc");
    EXPECT_EQ(reply.find("type")->asString(), "ok");
    EXPECT_TRUE(reply.find("cancelling")->asBool());
    awaitState("dlc", "cancelled");
    EXPECT_FALSE(fs::exists(ckpt));
    EXPECT_EQ(request("resume", "dlc").find("code")->asString(),
              errc::notDegraded);
    stopServer();

    config_.socketPath += ".2";
    startServer();
    EXPECT_EQ(server_->resumedCampaigns(), 0u);
    EXPECT_EQ(request("status", "dlc").find("code")->asString(),
              errc::unknownCampaign);
    EXPECT_FALSE(fs::exists(ckpt));
    EXPECT_FALSE(fs::exists(fs::path(config_.dataDir) / "results" / "dlc"));
}

TEST_F(ServerOverloadTest, DeadlineCancelReleasesQuotaToParkedWork)
{
    config_.maxCampaignsPerTenant = 1;
    config_.admissionQueueLimit = 2;
    startServer();

    // "held" occupies acme's only campaign slot and will blow a 150ms
    // deadline long before its ~480ms of work completes.
    Client holder(config_.socketPath);
    ASSERT_TRUE(holder.send(submitRequest(
        {.campaign = "held", .experiments = {"paced"}, .seed = 7, .repeat = 6,
         .overrides = {{"delay_ms", "20"}}, .tenant = "acme",
         .deadlineMs = 150})));
    // Admitted before the next submit arrives, or "parked" could take
    // the slot instead.
    const std::optional<JsonValue> held = holder.read();
    ASSERT_TRUE(held.has_value());
    ASSERT_EQ(held->find("type")->asString(), "accepted") << held->dump();

    // "parked" from the same tenant lands in the admission queue: the
    // stream leads with `queued` carrying position + retry estimate.
    Client waiter(config_.socketPath);
    ASSERT_TRUE(waiter.send(submitRequest(
        {.campaign = "parked", .experiments = {"paced"}, .seed = 7, .repeat = 1,
         .tenant = "acme"})));
    const std::optional<JsonValue> queued = waiter.read();
    ASSERT_TRUE(queued.has_value());
    ASSERT_EQ(queued->find("type")->asString(), "queued")
        << queued->dump();
    EXPECT_EQ(queued->find("position")->asInt(), 0);
    EXPECT_EQ(queued->find("retry_after_ms")->asInt(), 100)
        << "one shed-retry unit per campaign ahead (position 0 -> 1x)";
    EXPECT_EQ(request("status", "parked").find("state")->asString(),
              "queued");

    // The deadline cancel is also a quota release: "parked" promotes
    // without any client action and runs to completion.
    bool accepted = false;
    bool done = false;
    while (!done) {
        const std::optional<JsonValue> event = waiter.read();
        ASSERT_TRUE(event.has_value()) << "stream ended while queued";
        const std::string kind = event->find("type")->asString();
        if (kind == "accepted")
            accepted = true;
        done = kind == "done";
        ASSERT_NE(kind, "error") << event->dump();
    }
    EXPECT_TRUE(accepted) << "promotion must replay the accepted event";
    EXPECT_EQ(request("status", "held").find("state")->asString(),
              "deadline_exceeded");
    // And the expired campaign still resumes cleanly afterwards.
    ASSERT_EQ(request("resume", "held").find("type")->asString(), "ok");
    awaitState("held", "done");
}

TEST_F(ServerOverloadTest, QueueIsBoundedCancellableAndOrderRefreshed)
{
    config_.maxCampaignsPerTenant = 1;
    config_.admissionQueueLimit = 2;
    startServer();

    Client holder(config_.socketPath);
    ASSERT_TRUE(holder.send(submitRequest(
        {.campaign = "held", .experiments = {"paced"}, .seed = 7, .repeat = 6,
         .overrides = {{"delay_ms", "40"}}, .tenant = "acme"})));
    const std::optional<JsonValue> held = holder.read();
    ASSERT_TRUE(held.has_value());
    ASSERT_EQ(held->find("type")->asString(), "accepted") << held->dump();

    Client first(config_.socketPath);
    ASSERT_TRUE(first.send(submitRequest(
        {.campaign = "q1", .experiments = {"paced"}, .seed = 7, .repeat = 1,
         .tenant = "acme"})));
    std::optional<JsonValue> event = first.read();
    ASSERT_TRUE(event.has_value());
    ASSERT_EQ(event->find("type")->asString(), "queued");
    EXPECT_EQ(event->find("position")->asInt(), 0);

    Client second(config_.socketPath);
    ASSERT_TRUE(second.send(submitRequest(
        {.campaign = "q2", .experiments = {"paced"}, .seed = 7, .repeat = 1,
         .tenant = "acme"})));
    event = second.read();
    ASSERT_TRUE(event.has_value());
    ASSERT_EQ(event->find("type")->asString(), "queued");
    EXPECT_EQ(event->find("position")->asInt(), 1);
    EXPECT_EQ(event->find("retry_after_ms")->asInt(), 200)
        << "position 1 -> 2 shed-retry units";

    // Queue full: the third park attempt is shed, structured.
    {
        Client third(config_.socketPath);
        const JsonValue shed =
            third.request(submitRequest(
                {.campaign = "q3", .experiments = {"paced"}, .seed = 7,
                 .repeat = 1, .tenant = "acme"}));
        ASSERT_EQ(shed.find("type")->asString(), "error");
        EXPECT_EQ(shed.find("code")->asString(), errc::quotaExceeded);
    }

    // Cancelling a parked campaign ends its stream with `cancelled`
    // and shifts everyone behind it forward.
    ASSERT_EQ(request("cancel", "q1").find("type")->asString(), "ok");
    event = first.read();
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->find("type")->asString(), "cancelled");
    awaitState("q1", "cancelled");
    EXPECT_EQ(request("status", "q2")
                  .find("queue_position")
                  ->asInt(),
              0)
        << "cancel ahead must shift q2 forward";

    // Quota release promotes q2; it runs and completes.
    ASSERT_EQ(request("cancel", "held").find("type")->asString(), "ok");
    awaitState("q2", "done");
}

TEST_F(ServerOverloadTest, ImpossibleSubmissionIsShedNotParked)
{
    config_.maxInflightJobsPerTenant = 10;
    config_.admissionQueueLimit = 4;
    startServer();
    // 24 jobs can never fit a 10-job ledger: parking it would wedge
    // the queue forever, so it must shed immediately even with room.
    Client client(config_.socketPath);
    const JsonValue reply =
        client.request(submitRequest(
            {.campaign = "never", .experiments = {"paced"}, .seed = 7,
             .repeat = 6, .tenant = "acme"}));
    ASSERT_EQ(reply.find("type")->asString(), "error") << reply.dump();
    EXPECT_EQ(reply.find("code")->asString(), errc::quotaExceeded);
    EXPECT_TRUE(reply.find("retriable")->asBool());
}

TEST_F(ServerOverloadTest, ProgressHeartbeatsAreReplayableAtStableSeqs)
{
    startServer();
    Client client(config_.socketPath);
    JsonValue request = submitRequest(
        {.campaign = "prog", .experiments = {"fast"}, .seed = 7, .repeat = 2});
    StreamedCampaign live;
    std::vector<std::pair<std::int64_t, std::int64_t>> liveTicks;
    {
        EXPECT_TRUE(client.send(request));
        for (;;) {
            const std::optional<JsonValue> event = client.read();
            ASSERT_TRUE(event.has_value());
            const std::string kind = event->find("type")->asString();
            if (kind == "progress") {
                ASSERT_NE(event->find("seq"), nullptr);
                ASSERT_NE(event->find("wave"), nullptr);
                ASSERT_NE(event->find("jobs_per_sec"), nullptr);
                EXPECT_EQ(event->find("jobs_total")->asInt(), 6);
                liveTicks.emplace_back(
                    event->find("seq")->asInt(),
                    event->find("jobs_done")->asInt());
            }
            if (kind == "done")
                break;
            ASSERT_NE(kind, "error") << event->dump();
        }
    }
    // 6 jobs, stride max(1, 6/64) = 1: one heartbeat per result,
    // monotonically counting to completion.
    ASSERT_EQ(liveTicks.size(), 6u);
    for (std::size_t i = 0; i < liveTicks.size(); ++i)
        EXPECT_EQ(liveTicks[i].second,
                  static_cast<std::int64_t>(i + 1));

    // Replay from seq 0: the heartbeats come back verbatim — same
    // seqs, same counts — because they are log members, not transient
    // socket decorations.
    Client replayer(config_.socketPath);
    JsonValue subscribe = JsonValue::object();
    subscribe.set("verb", JsonValue("subscribe"));
    subscribe.set("campaign", JsonValue("prog"));
    subscribe.set("from", JsonValue(std::int64_t(0)));
    ASSERT_TRUE(replayer.send(subscribe));
    std::vector<std::pair<std::int64_t, std::int64_t>> replayTicks;
    for (;;) {
        const std::optional<JsonValue> event = replayer.read();
        ASSERT_TRUE(event.has_value());
        const std::string kind = event->find("type")->asString();
        if (kind == "progress")
            replayTicks.emplace_back(
                event->find("seq")->asInt(),
                event->find("jobs_done")->asInt());
        if (kind == "status" || kind == "done")
            break;
    }
    EXPECT_EQ(replayTicks, liveTicks);
}

} // namespace
} // namespace harp::harpd
