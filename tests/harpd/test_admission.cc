/**
 * @file
 * Per-tenant admission control and the wedged-campaign watchdog:
 * campaign-count and in-flight-job quotas shedding with structured
 * `quota_exceeded` + `retry_after_ms` replies, tenant isolation (one
 * tenant's overload never sheds another), quota release on completion,
 * and the watchdog surfacing `stalled` in status instead of letting
 * clients hang on a wedged campaign.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harpd/client.hh"
#include "harpd/protocol.hh"
#include "support/harpd_harness.hh"

namespace harp::harpd {
namespace {

using runner::JsonValue;
using test::submitRequest;

class AdmissionTest : public test::ServerFixture
{
  protected:
    AdmissionTest() { config_.shedRetryAfterMs = 123; }
};

void
expectShed(const JsonValue &reply, std::size_t retry_after_ms)
{
    ASSERT_EQ(reply.find("type")->asString(), "error") << reply.dump();
    EXPECT_EQ(reply.find("code")->asString(), errc::quotaExceeded);
    EXPECT_TRUE(reply.find("retriable")->asBool());
    ASSERT_NE(reply.find("retry_after_ms"), nullptr);
    EXPECT_EQ(static_cast<std::size_t>(
                  reply.find("retry_after_ms")->asInt()),
              retry_after_ms);
}

TEST_F(AdmissionTest, CampaignQuotaShedsAndReleasesOnCompletion)
{
    config_.maxCampaignsPerTenant = 1;
    startServer();

    // Tenant "acme" occupies its one slot with a long campaign.
    Client holder(config_.socketPath);
    ASSERT_TRUE(holder.send(submitRequest(
        {.campaign = "held", .experiments = {"paced"}, .seed = 1, .repeat = 8,
         .overrides = {{"delay_ms", "10"}}, .tenant = "acme"})));
    ASSERT_TRUE(holder.read().has_value()); // accepted

    // Second submit from the same tenant: shed, structured.
    {
        Client client(config_.socketPath);
        expectShed(client.request(submitRequest(
            {.campaign = "more", .experiments = {"paced"}, .seed = 1,
             .repeat = 1, .tenant = "acme"})),
                   123);
    }
    // Another tenant is unaffected — isolation, not a global brake.
    {
        Client client(config_.socketPath);
        ASSERT_TRUE(client.send(submitRequest(
            {.campaign = "other1", .experiments = {"paced"}, .seed = 1,
             .repeat = 1, .tenant = "globex"})));
        const std::optional<JsonValue> accepted = client.read();
        ASSERT_TRUE(accepted.has_value());
        EXPECT_EQ(accepted->find("type")->asString(), "accepted");
    }
    // Status reports the owning tenant.
    EXPECT_EQ(status("held").find("tenant")->asString(), "acme");

    // Once the held campaign finishes, the slot frees up.
    awaitState("held", "done");
    {
        Client client(config_.socketPath);
        ASSERT_TRUE(client.send(submitRequest(
            {.campaign = "again", .experiments = {"paced"}, .seed = 1,
             .repeat = 1, .tenant = "acme"})));
        const std::optional<JsonValue> accepted = client.read();
        ASSERT_TRUE(accepted.has_value());
        EXPECT_EQ(accepted->find("type")->asString(), "accepted");
    }
    awaitState("again", "done");
    awaitState("other1", "done");
}

TEST_F(AdmissionTest, JobQuotaPricesTheWholeSubmission)
{
    config_.maxInflightJobsPerTenant = 10;
    startServer();

    // 4 points x repeat 3 = 12 jobs: over the cap on its own, shed
    // up front — never partially admitted.
    {
        Client client(config_.socketPath);
        expectShed(client.request(submitRequest(
            {.campaign = "big", .experiments = {"paced"}, .seed = 1,
             .repeat = 3, .tenant = "acme"})),
                   123);
    }
    // 8 jobs fit; another 8 would exceed 10 — shed while the first is
    // in flight, admitted after it drains.
    Client holder(config_.socketPath);
    ASSERT_TRUE(holder.send(submitRequest(
        {.campaign = "first", .experiments = {"paced"}, .seed = 1, .repeat = 2,
         .overrides = {{"delay_ms", "10"}}, .tenant = "acme"})));
    ASSERT_TRUE(holder.read().has_value());
    {
        Client client(config_.socketPath);
        expectShed(client.request(submitRequest(
            {.campaign = "second", .experiments = {"paced"}, .seed = 1,
             .repeat = 2, .tenant = "acme"})),
                   123);
    }
    awaitState("first", "done");
    {
        Client client(config_.socketPath);
        ASSERT_TRUE(client.send(submitRequest(
            {.campaign = "second", .experiments = {"paced"}, .seed = 1,
             .repeat = 2, .tenant = "acme"})));
        const std::optional<JsonValue> accepted = client.read();
        ASSERT_TRUE(accepted.has_value());
        EXPECT_EQ(accepted->find("type")->asString(), "accepted");
    }
    awaitState("second", "done");
}

TEST_F(AdmissionTest, UnlimitedByDefault)
{
    startServer(); // no caps configured
    std::vector<std::unique_ptr<Client>> holders;
    for (int i = 0; i < 4; ++i) {
        holders.push_back(
            std::make_unique<Client>(config_.socketPath));
        ASSERT_TRUE(holders.back()->send(submitRequest(
            {.campaign = "many" + std::to_string(i), .experiments = {"paced"},
             .seed = 1, .repeat = 2, .tenant = "acme"})));
        const std::optional<JsonValue> accepted =
            holders.back()->read();
        ASSERT_TRUE(accepted.has_value());
        EXPECT_EQ(accepted->find("type")->asString(), "accepted") << i;
    }
    for (int i = 0; i < 4; ++i)
        awaitState("many" + std::to_string(i), "done");
}

TEST_F(AdmissionTest, QueueDisabledByDefaultShedsImmediately)
{
    // admissionQueueLimit defaults to 0: over-quota submits must shed
    // with the structured error, never park as `queued` — existing
    // clients that key on retry_after_ms keep their contract.
    config_.maxCampaignsPerTenant = 1;
    startServer();
    Client holder(config_.socketPath);
    ASSERT_TRUE(holder.send(submitRequest(
        {.campaign = "held", .experiments = {"paced"}, .seed = 1, .repeat = 8,
         .overrides = {{"delay_ms", "10"}}, .tenant = "acme"})));
    const std::optional<JsonValue> accepted = holder.read();
    ASSERT_TRUE(accepted.has_value());
    ASSERT_EQ(accepted->find("type")->asString(), "accepted");

    Client client(config_.socketPath);
    ASSERT_TRUE(client.send(submitRequest(
        {.campaign = "parked", .experiments = {"paced"}, .seed = 1, .repeat = 1,
         .tenant = "acme"})));
    const std::optional<JsonValue> reply = client.read();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("type")->asString(), "queued")
        << "queueing must be opt-in: " << reply->dump();
    expectShed(*reply, 123);
    awaitState("held", "done");
}

TEST_F(AdmissionTest, WatchdogFlagsAStalledCampaignAndClearsOnFinish)
{
    config_.stallTimeoutMs = 50;
    config_.watchdogPollMs = 10;
    startServer();

    // 300ms per job with a 50ms stall threshold: between completions
    // the campaign is (correctly) flagged as stalled.
    Client client(config_.socketPath);
    ASSERT_TRUE(client.send(submitRequest(
        {.campaign = "slowpoke", .experiments = {"paced"}, .seed = 1,
         .repeat = 1, .overrides = {{"delay_ms", "300"}}})));
    ASSERT_TRUE(client.read().has_value()); // accepted

    bool saw_stalled = false;
    for (int i = 0; i < 400 && !saw_stalled; ++i) {
        const JsonValue reply = status("slowpoke");
        const JsonValue *stalled = reply.find("stalled");
        if (stalled != nullptr && stalled->asBool()) {
            saw_stalled = true;
            // The status quantifies the stall for operators.
            ASSERT_NE(reply.find("stalled_ms"), nullptr);
            EXPECT_GE(reply.find("stalled_ms")->asInt(), 50);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(saw_stalled)
        << "watchdog never flagged a 300ms-per-job campaign at a 50ms "
           "threshold";

    // The flag is a diagnosis, not a verdict: the campaign still
    // finishes, and a finished campaign is not stalled (give the
    // watchdog one poll interval to observe the transition).
    awaitState("slowpoke", "done");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(status("slowpoke").find("stalled"), nullptr);
}

TEST_F(AdmissionTest, WatchdogStaysQuietWhenProgressIsSteady)
{
    config_.stallTimeoutMs = 5000; // far above per-job latency
    config_.watchdogPollMs = 10;
    startServer();
    Client client(config_.socketPath);
    ASSERT_TRUE(client.send(submitRequest(
        {.campaign = "steady", .experiments = {"paced"}, .seed = 1,
         .repeat = 2})));
    bool done = false;
    while (!done) {
        const std::optional<JsonValue> event = client.read();
        ASSERT_TRUE(event.has_value());
        done = event->find("type")->asString() == "done";
    }
    EXPECT_EQ(status("steady").find("stalled"), nullptr);
}

} // namespace
} // namespace harp::harpd
