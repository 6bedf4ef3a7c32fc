/**
 * @file
 * Chaos tier for the harpd server: deterministic I/O fault schedules
 * (via ServerConfig::ioFaultPlan) driving every durable write through
 * ENOSPC/EIO/torn-write failures, and asserting the robustness
 * contract — *byte-identical-to-batch or structured-degraded, never
 * corrupt, never hung*. Covers checkpoint-write and fsync faults,
 * publish-rename faults, torn checkpoint tails from injected short
 * writes, the `resume` verb (and its guards), degraded auto-resume on
 * daemon restart (and its absence once a degraded campaign is
 * cancelled), and `subscribe from=` replay being byte-identical to the
 * original stream.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <vector>

#include "common/io.hh"
#include "harpd/client.hh"
#include "harpd/protocol.hh"
#include "support/files.hh"
#include "support/harpd_harness.hh"

namespace harp::harpd {
namespace {

namespace fs = std::filesystem;
using common::io::Fault;
using common::io::FaultPlan;
using common::io::Op;
using runner::JsonValue;
using test::readFile;
using test::StreamedCampaign;
using test::streamSubmit;
using test::submitRequest;

Fault
fault(int err, std::size_t short_bytes = std::string::npos)
{
    return {std::error_code(err, std::generic_category()), short_bytes};
}

class ServerChaosTest : public test::ServerFixture
{
  protected:
    ServerChaosTest() { config_.ioFaultPlan = &plan_; }

    /** The fault cleared (space freed, disk replaced): empty plan. */
    void clearFaults() { plan_ = FaultPlan(); }

    void expectPublishedMatchesBatch(const std::string &campaign,
                                     const std::string &batch,
                                     const std::string &experiment)
    {
        const fs::path published =
            fs::path(config_.dataDir) / "results" / campaign;
        EXPECT_EQ(readFile(published / (experiment + ".jsonl")),
                  readFile(fs::path(batch) / (experiment + ".jsonl")));
        EXPECT_EQ(readFile(published / "summary.json"),
                  readFile(fs::path(batch) / "summary.json"));
    }

    FaultPlan plan_;
};

// Durable-write op order with one campaign in flight: open#0 +
// write#0 + fsync#0 are the checkpoint header, open#1 the staging
// JSONL; each job then costs write (JSONL line), write (checkpoint
// record), fsync (record durability). The schedules below are pinned
// against that order.

TEST_F(ServerChaosTest, EnospcMidCampaignDegradesThenResumeVerbCompletes)
{
    // Sticky ENOSPC from the 6th write: job 2's JSONL line fails, as
    // would everything after — the filesystem is full until cleared.
    plan_.injectFrom(Op::Write, 5, fault(ENOSPC));
    startServer();
    const std::string batch = batchDir({"fast"}, 42, 2, 2); // 6 jobs

    Client client(config_.socketPath);
    const StreamedCampaign streamed =
        streamSubmit(client, submitRequest(
            {.campaign = "c1", .experiments = {"fast"}, .seed = 42,
             .repeat = 2}));
    EXPECT_FALSE(streamed.done);
    ASSERT_TRUE(streamed.degraded);
    EXPECT_EQ(streamed.degradedErrno, "ENOSPC");
    EXPECT_TRUE(streamed.degradedRetriable);
    // Degrade, never corrupt: every result the client saw was durable
    // first, and the stream stopped cleanly at the fault.
    EXPECT_EQ(streamed.results, 2u);

    const JsonValue status = awaitState("c1", "degraded");
    EXPECT_EQ(status.find("errno_name")->asString(), "ENOSPC");
    EXPECT_TRUE(status.find("retriable")->asBool());
    EXPECT_TRUE(fs::exists(checkpoint("c1")))
        << "degraded keeps the checkpoint";
    EXPECT_FALSE(
        fs::exists(fs::path(config_.dataDir) / "results" / "c1"))
        << "no partial results are ever published";

    // Space frees up; the resume verb finishes the campaign.
    clearFaults();
    const JsonValue reply = request("resume", "c1");
    ASSERT_EQ(reply.find("type")->asString(), "ok");
    EXPECT_TRUE(reply.find("resuming")->asBool());
    awaitState("c1", "done");
    EXPECT_FALSE(fs::exists(checkpoint("c1")));
    expectPublishedMatchesBatch("c1", batch, "fast");
}

TEST_F(ServerChaosTest, FsyncEioDegradesAsNotRetriable)
{
    // fsync#2 = the second checkpoint record's durability barrier.
    plan_.injectAt(Op::Fsync, 2, fault(EIO));
    startServer();
    const std::string batch = batchDir({"fast"}, 7, 2, 2);

    Client client(config_.socketPath);
    const StreamedCampaign streamed =
        streamSubmit(client, submitRequest(
            {.campaign = "c2", .experiments = {"fast"}, .seed = 7,
             .repeat = 2}));
    ASSERT_TRUE(streamed.degraded);
    EXPECT_EQ(streamed.degradedErrno, "EIO");
    EXPECT_FALSE(streamed.degradedRetriable)
        << "EIO needs an operator, not a retry loop";

    const JsonValue status = awaitState("c2", "degraded");
    EXPECT_EQ(status.find("errno_name")->asString(), "EIO");
    EXPECT_FALSE(status.find("retriable")->asBool());

    clearFaults();
    ASSERT_EQ(request("resume", "c2").find("type")->asString(), "ok");
    awaitState("c2", "done");
    expectPublishedMatchesBatch("c2", batch, "fast");
}

TEST_F(ServerChaosTest, PublishRenameFailureDegradesWithAllJobsDurable)
{
    plan_.injectAt(Op::Rename, 0, fault(ENOSPC));
    startServer();
    const std::string batch = batchDir({"fast"}, 3, 2, 2);

    Client client(config_.socketPath);
    const StreamedCampaign streamed =
        streamSubmit(client, submitRequest(
            {.campaign = "c3", .experiments = {"fast"}, .seed = 3,
             .repeat = 2}));
    ASSERT_TRUE(streamed.degraded);
    // Every job finished and was durably checkpointed before the
    // publish failed...
    EXPECT_EQ(streamed.results, 6u);
    awaitState("c3", "degraded");
    EXPECT_TRUE(fs::exists(checkpoint("c3")));
    // ...so the resume recomputes nothing and just republishes.
    clearFaults();
    ASSERT_EQ(request("resume", "c3").find("type")->asString(), "ok");
    const JsonValue status = awaitState("c3", "done");
    EXPECT_EQ(static_cast<std::size_t>(
                  status.find("completed_jobs")->asInt()),
              6u);
    expectPublishedMatchesBatch("c3", batch, "fast");
}

TEST_F(ServerChaosTest, InjectedShortWriteTearsTheCheckpointTail)
{
    // write#2 is job 0's checkpoint record: persist 10 bytes of it,
    // then fail — exactly the torn tail a crashed write leaves.
    plan_.injectAt(Op::Write, 2, fault(EIO, 10));
    startServer();
    const std::string batch = batchDir({"fast"}, 11, 2, 2);

    Client client(config_.socketPath);
    const StreamedCampaign streamed =
        streamSubmit(client, submitRequest(
            {.campaign = "c4", .experiments = {"fast"}, .seed = 11,
             .repeat = 2}));
    ASSERT_TRUE(streamed.degraded);
    EXPECT_EQ(streamed.results, 0u)
        << "the record never became durable, so the client never saw "
           "the result";
    awaitState("c4", "degraded");

    // The torn tail really is on disk (header line + 10 bytes).
    const std::string ckpt_bytes = readFile(checkpoint("c4"));
    const std::size_t header_end = ckpt_bytes.find('\n') + 1;
    EXPECT_EQ(ckpt_bytes.size() - header_end, 10u);

    // Resume truncate-recovers the tail and recomputes the lost job —
    // never a .bad file, never an abort.
    clearFaults();
    ASSERT_EQ(request("resume", "c4").find("type")->asString(), "ok");
    awaitState("c4", "done");
    EXPECT_FALSE(fs::exists(checkpoint("c4").string() + ".bad"));
    expectPublishedMatchesBatch("c4", batch, "fast");
}

TEST_F(ServerChaosTest, ResumeVerbGuardsItsPreconditions)
{
    startServer();
    // Unknown campaign.
    {
        Client client(config_.socketPath);
        JsonValue request = JsonValue::object();
        request.set("verb", JsonValue("resume"));
        request.set("campaign", JsonValue("ghost"));
        EXPECT_EQ(client.request(request).find("code")->asString(),
                  errc::unknownCampaign);
    }
    // Done campaign: not degraded, nothing to resume.
    {
        Client client(config_.socketPath);
        const StreamedCampaign streamed =
            streamSubmit(client, submitRequest(
                {.campaign = "ok1", .experiments = {"fast"}, .seed = 1,
                 .repeat = 1}));
        ASSERT_TRUE(streamed.done);
        EXPECT_EQ(request("resume", "ok1").find("code")->asString(),
                  errc::notDegraded);
    }
    // Running campaign: same guard.
    {
        Client client(config_.socketPath);
        ASSERT_TRUE(client.send(submitRequest(
            {.campaign = "run1", .experiments = {"slow"}, .seed = 1,
             .repeat = 4, .overrides = {{"delay_ms", "20"}}})));
        ASSERT_TRUE(client.read().has_value()); // accepted
        EXPECT_EQ(request("resume", "run1").find("code")->asString(),
                  errc::notDegraded);
        // Let it finish so teardown is clean.
        awaitState("run1", "done");
    }
}

TEST_F(ServerChaosTest, DegradedCampaignAutoResumesOnDaemonRestart)
{
    plan_.injectFrom(Op::Write, 5, fault(ENOSPC));
    startServer();
    const std::string batch = batchDir({"fast"}, 21, 2, 2);
    {
        Client client(config_.socketPath);
        const StreamedCampaign streamed = streamSubmit(
            client, submitRequest(
                {.campaign = "c5", .experiments = {"fast"}, .seed = 21,
                 .repeat = 2}));
        ASSERT_TRUE(streamed.degraded);
    }
    awaitState("c5", "degraded");
    stopServer();
    EXPECT_TRUE(fs::exists(checkpoint("c5")));

    // The next daemon generation (fault cleared) picks the checkpoint
    // up like any interrupted campaign — no client involvement.
    clearFaults();
    config_.socketPath += ".2";
    startServer();
    EXPECT_EQ(server_->resumedCampaigns(), 1u);
    awaitState("c5", "done");
    EXPECT_FALSE(fs::exists(checkpoint("c5")));
    expectPublishedMatchesBatch("c5", batch, "fast");
}

TEST_F(ServerChaosTest, CancelledDegradedCampaignStaysGoneAcrossRestart)
{
    plan_.injectFrom(Op::Write, 5, fault(ENOSPC));
    startServer();
    {
        Client client(config_.socketPath);
        const StreamedCampaign streamed = streamSubmit(
            client, submitRequest(
                {.campaign = "c9", .experiments = {"fast"}, .seed = 21,
                 .repeat = 2}));
        ASSERT_TRUE(streamed.degraded);
    }
    awaitState("c9", "degraded");
    ASSERT_TRUE(fs::exists(checkpoint("c9")));

    // Cancel ends a degraded campaign for good: the reply is the usual
    // ack, the state lands, and the checkpoint goes with it.
    {
        Client client(config_.socketPath);
        JsonValue request = JsonValue::object();
        request.set("verb", JsonValue("cancel"));
        request.set("campaign", JsonValue("c9"));
        const JsonValue reply = client.request(request);
        EXPECT_EQ(reply.find("type")->asString(), "ok");
        EXPECT_TRUE(reply.find("cancelling")->asBool());
    }
    const JsonValue status = awaitState("c9", "cancelled");
    EXPECT_EQ(status.find("errno_name"), nullptr);
    EXPECT_FALSE(fs::exists(checkpoint("c9")));
    EXPECT_EQ(request("resume", "c9").find("code")->asString(),
              errc::notDegraded);
    stopServer();

    // The next daemon generation has nothing to bring back.
    clearFaults();
    config_.socketPath += ".2";
    startServer();
    EXPECT_EQ(server_->resumedCampaigns(), 0u);
    EXPECT_FALSE(fs::exists(checkpoint("c9")));
    EXPECT_FALSE(
        fs::exists(fs::path(config_.dataDir) / "results" / "c9"));
}

TEST_F(ServerChaosTest, ResumedCampaignsReportTheirTotalAtOnce)
{
    plan_.injectFrom(Op::Write, 5, fault(ENOSPC));
    startServer();
    for (const char *id : {"t1", "t2"}) {
        Client client(config_.socketPath);
        ASSERT_TRUE(
            streamSubmit(client, submitRequest(
                {.campaign = id, .experiments = {"fast"}, .seed = 4,
                 .repeat = 2}))
                .degraded);
        awaitState(id, "degraded");
    }

    const auto totalOf = [this](const std::string &id) {
        Client client(config_.socketPath);
        JsonValue request = JsonValue::object();
        request.set("verb", JsonValue("status"));
        request.set("campaign", JsonValue(id));
        return client.request(request).find("total_jobs")->asInt();
    };

    // Both the resume verb and the restart price the campaign at
    // admission, so `status` never reports 0 jobs in between.
    clearFaults();
    ASSERT_EQ(request("resume", "t2").find("type")->asString(), "ok");
    EXPECT_EQ(totalOf("t2"), 6);
    awaitState("t2", "done");
    stopServer();

    config_.socketPath += ".2";
    startServer();
    ASSERT_EQ(server_->resumedCampaigns(), 1u);
    EXPECT_EQ(totalOf("t1"), 6);
    awaitState("t1", "done");
}

TEST_F(ServerChaosTest, SubscribeReplaysTheStreamByteIdentically)
{
    startServer();
    Client submitter(config_.socketPath);
    const StreamedCampaign streamed =
        streamSubmit(submitter, submitRequest(
            {.campaign = "sub1", .experiments = {"fast"}, .seed = 9,
             .repeat = 2}));
    ASSERT_TRUE(streamed.done);
    ASSERT_FALSE(streamed.seqLines.empty());

    // Full replay from seq 0: the exact bytes the submit stream saw,
    // in order, then a terminal status snapshot with the cursor.
    Client subscriber(config_.socketPath);
    JsonValue request = JsonValue::object();
    request.set("verb", JsonValue("subscribe"));
    request.set("campaign", JsonValue("sub1"));
    request.set("from", JsonValue(std::int64_t(0)));
    ASSERT_TRUE(subscriber.send(request));
    std::string raw;
    std::optional<JsonValue> ack = subscriber.read(&raw);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->find("type")->asString(), "subscribed");

    std::vector<std::string> replayed;
    JsonValue terminal;
    for (;;) {
        std::optional<JsonValue> event = subscriber.read(&raw);
        ASSERT_TRUE(event.has_value()) << "stream ended early";
        if (event->find("type")->asString() == "status") {
            terminal = *event;
            break;
        }
        replayed.push_back(raw + "\n");
    }
    EXPECT_EQ(replayed, streamed.seqLines);
    EXPECT_EQ(terminal.find("state")->asString(), "done");
    EXPECT_EQ(static_cast<std::size_t>(
                  terminal.find("next_seq")->asInt()),
              streamed.seqLines.size());

    // Partial replay: `from` skips exactly the consumed prefix.
    Client tail(config_.socketPath);
    request.set("from", JsonValue(std::int64_t(3)));
    ASSERT_TRUE(tail.send(request));
    ASSERT_TRUE(tail.read().has_value()); // subscribed ack
    std::vector<std::string> tail_lines;
    for (;;) {
        std::optional<JsonValue> event = tail.read(&raw);
        ASSERT_TRUE(event.has_value());
        if (event->find("type")->asString() == "status")
            break;
        tail_lines.push_back(raw + "\n");
    }
    const std::vector<std::string> expected(
        streamed.seqLines.begin() + 3, streamed.seqLines.end());
    EXPECT_EQ(tail_lines, expected);

    // Subscribing to an unknown campaign is a structured error.
    Client ghost(config_.socketPath);
    request.set("campaign", JsonValue("ghost"));
    EXPECT_EQ(ghost.request(request).find("code")->asString(),
              errc::unknownCampaign);
}

TEST_F(ServerChaosTest, LiveSubscriberFollowsARunningCampaign)
{
    startServer();
    Client submitter(config_.socketPath);
    ASSERT_TRUE(submitter.send(submitRequest(
        {.campaign = "live1", .experiments = {"slow"}, .seed = 5, .repeat = 2,
         .overrides = {{"delay_ms", "10"}}})));
    std::optional<JsonValue> accepted = submitter.read();
    ASSERT_TRUE(accepted.has_value());

    // Attach while jobs are still running; follow to the end.
    Client subscriber(config_.socketPath);
    JsonValue request = JsonValue::object();
    request.set("verb", JsonValue("subscribe"));
    request.set("campaign", JsonValue("live1"));
    ASSERT_TRUE(subscriber.send(request));
    ASSERT_TRUE(subscriber.read().has_value()); // subscribed ack
    std::size_t live_results = 0;
    bool saw_done_event = false;
    for (;;) {
        std::optional<JsonValue> event = subscriber.read();
        ASSERT_TRUE(event.has_value());
        const std::string kind = event->find("type")->asString();
        if (kind == "status") {
            EXPECT_EQ(event->find("state")->asString(), "done");
            break;
        }
        if (kind == "result")
            ++live_results;
        if (kind == "done")
            saw_done_event = true;
    }
    EXPECT_EQ(live_results, 16u);
    EXPECT_TRUE(saw_done_event);

    // The original submit stream was untouched by the subscriber.
    const StreamedCampaign rest = [&] {
        StreamedCampaign streamed;
        for (;;) {
            std::string raw;
            std::optional<JsonValue> event = submitter.read(&raw);
            if (!event.has_value())
                break;
            const std::string kind = event->find("type")->asString();
            if (kind == "result")
                ++streamed.results;
            if (kind == "done") {
                streamed.done = true;
                break;
            }
        }
        return streamed;
    }();
    EXPECT_TRUE(rest.done);
    EXPECT_EQ(rest.results, 16u);
}

} // namespace
} // namespace harp::harpd
