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

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <unistd.h>
#include <vector>

#include "harpd/client.hh"
#include "harpd/protocol.hh"
#include "harpd/server.hh"
#include "runner/registry.hh"

namespace harp::harpd {
namespace {

namespace fs = std::filesystem;
using runner::JsonType;
using runner::JsonValue;

runner::Registry
makeTestRegistry()
{
    runner::Registry registry;
    runner::ExperimentSpec spec;
    spec.name = "paced";
    spec.description = "paced toy metrics";
    spec.labels = {"toy"};
    runner::ParamAxis axis;
    axis.name = "i";
    for (std::int64_t i = 0; i < 4; ++i)
        axis.values.push_back(runner::ParamValue(i));
    spec.grid = runner::ParamGrid({axis});
    spec.tunables = {{"delay_ms", 5, "per-job sleep"}};
    spec.schema = {{"i_out", JsonType::Int, "echoed index"}};
    spec.run = [](const runner::RunContext &ctx) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(ctx.getInt("delay_ms")));
        JsonValue metrics = JsonValue::object();
        metrics.set("i_out", JsonValue(ctx.getInt("i")));
        return metrics;
    };
    registry.add(std::move(spec));
    return registry;
}

JsonValue
submitRequest(const std::string &campaign, const std::string &tenant,
              std::size_t repeat, const std::string &delay_ms = "5")
{
    JsonValue request = JsonValue::object();
    request.set("verb", JsonValue("submit"));
    request.set("campaign", JsonValue(campaign));
    JsonValue experiments = JsonValue::array();
    experiments.push(JsonValue("paced"));
    request.set("experiments", experiments);
    request.set("seed", JsonValue("1"));
    request.set("repeat", JsonValue(repeat));
    if (!tenant.empty())
        request.set("tenant", JsonValue(tenant));
    JsonValue overrides = JsonValue::object();
    overrides.set("delay_ms", JsonValue(delay_ms));
    request.set("overrides", overrides);
    return request;
}

class AdmissionTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        registry_ = makeTestRegistry();
        static std::atomic<int> counter{0};
        root_ = fs::temp_directory_path() /
                ("harpd_adm_t" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter.fetch_add(1)));
        fs::remove_all(root_);
        fs::create_directories(root_);
        config_.socketPath = (root_ / "d.sock").string();
        config_.dataDir = (root_ / "data").string();
        config_.threads = 2;
        config_.registry = &registry_;
        config_.shedRetryAfterMs = 123;
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

    JsonValue status(const std::string &campaign)
    {
        Client client(config_.socketPath);
        JsonValue request = JsonValue::object();
        request.set("verb", JsonValue("status"));
        request.set("campaign", JsonValue(campaign));
        return client.request(request);
    }

    JsonValue awaitState(const std::string &campaign,
                         const std::string &state)
    {
        for (int i = 0; i < 2000; ++i) {
            const JsonValue reply = status(campaign);
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
    ASSERT_TRUE(
        holder.send(submitRequest("held", "acme", 8, "10")));
    ASSERT_TRUE(holder.read().has_value()); // accepted

    // Second submit from the same tenant: shed, structured.
    {
        Client client(config_.socketPath);
        expectShed(client.request(submitRequest("more", "acme", 1)),
                   123);
    }
    // Another tenant is unaffected — isolation, not a global brake.
    {
        Client client(config_.socketPath);
        ASSERT_TRUE(client.send(submitRequest("other1", "globex", 1)));
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
        ASSERT_TRUE(client.send(submitRequest("again", "acme", 1)));
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
        expectShed(client.request(submitRequest("big", "acme", 3)),
                   123);
    }
    // 8 jobs fit; another 8 would exceed 10 — shed while the first is
    // in flight, admitted after it drains.
    Client holder(config_.socketPath);
    ASSERT_TRUE(holder.send(submitRequest("first", "acme", 2, "10")));
    ASSERT_TRUE(holder.read().has_value());
    {
        Client client(config_.socketPath);
        expectShed(client.request(submitRequest("second", "acme", 2)),
                   123);
    }
    awaitState("first", "done");
    {
        Client client(config_.socketPath);
        ASSERT_TRUE(client.send(submitRequest("second", "acme", 2)));
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
            "many" + std::to_string(i), "acme", 2, "5")));
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
    ASSERT_TRUE(holder.send(submitRequest("held", "acme", 8, "10")));
    const std::optional<JsonValue> accepted = holder.read();
    ASSERT_TRUE(accepted.has_value());
    ASSERT_EQ(accepted->find("type")->asString(), "accepted");

    Client client(config_.socketPath);
    ASSERT_TRUE(client.send(submitRequest("parked", "acme", 1)));
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
    ASSERT_TRUE(client.send(submitRequest("slowpoke", "", 1, "300")));
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
    ASSERT_TRUE(client.send(submitRequest("steady", "", 2, "5")));
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
