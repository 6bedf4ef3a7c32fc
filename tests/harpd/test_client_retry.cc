/**
 * @file
 * Client-resilience primitives: the decorrelated-jitter Backoff
 * schedule (deterministic under a fixed seed, bounded by base and cap,
 * decorrelated across seeds), connect/request deadlines turning a
 * wedged or silent daemon into a TimeoutError instead of a hung
 * client, and malformed daemon replies surfacing as structured
 * exceptions. The wedged daemon is a stub AF_UNIX listener inside the
 * test, so every failure mode is exercised for real.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>

#include "harpd/client.hh"
#include "support/harpd_harness.hh"

namespace harp::harpd {
namespace {

namespace fs = std::filesystem;
using runner::JsonValue;
using test::StubDaemon;

TEST(BackoffTest, DeterministicUnderAFixedSeed)
{
    Backoff a(100, 5000, 42);
    Backoff b(100, 5000, 42);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.nextDelayMs(), b.nextDelayMs()) << i;
}

TEST(BackoffTest, DelaysStayWithinBaseAndCap)
{
    Backoff backoff(100, 2000, 7);
    int prev = 100;
    for (int i = 0; i < 64; ++i) {
        const int delay = backoff.nextDelayMs();
        EXPECT_GE(delay, 100) << i;
        EXPECT_LE(delay, 2000) << i;
        // Decorrelated jitter: each draw is below 3x the previous
        // delay, so one unlucky draw cannot jump to the cap at once.
        EXPECT_LE(delay, std::max(prev * 3, 2000)) << i;
        prev = delay;
    }
}

TEST(BackoffTest, GrowsTowardTheCapOnRepeatedFailures)
{
    Backoff backoff(50, 800, 3);
    int max_seen = 0;
    for (int i = 0; i < 64; ++i)
        max_seen = std::max(max_seen, backoff.nextDelayMs());
    // With span tripling per step, 64 draws saturate near the cap.
    EXPECT_GT(max_seen, 400);
    EXPECT_LE(max_seen, 800);
}

TEST(BackoffTest, ResetRestartsFromTheBase)
{
    Backoff backoff(100, 10000, 9);
    for (int i = 0; i < 16; ++i)
        backoff.nextDelayMs(); // ramp up
    backoff.reset();
    // First post-reset draw is from [base, 3*base): the schedule
    // forgot the failure streak.
    const int delay = backoff.nextDelayMs();
    EXPECT_GE(delay, 100);
    EXPECT_LT(delay, 300);
}

TEST(BackoffTest, SeedsDecorrelateConcurrentClients)
{
    Backoff a(100, 5000, 1);
    Backoff b(100, 5000, 2);
    int differing = 0;
    for (int i = 0; i < 32; ++i)
        if (a.nextDelayMs() != b.nextDelayMs())
            ++differing;
    // Thundering-herd protection: different seeds, different schedules.
    EXPECT_GT(differing, 0);
}

JsonValue
pingRequest()
{
    JsonValue request = JsonValue::object();
    request.set("verb", JsonValue("ping"));
    return request;
}

TEST(ClientDeadlineTest, SilentDaemonTripsTheIoDeadline)
{
    StubDaemon daemon(""); // accepts, never replies
    ClientOptions options;
    options.ioTimeoutMs = 150;
    Client client(daemon.path(), options);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW((void)client.request(pingRequest()), TimeoutError);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    // Never hung: the deadline fired in deadline-order time, not
    // test-timeout time.
    EXPECT_GE(elapsed.count(), 100);
    EXPECT_LT(elapsed.count(), 5000);
}

TEST(ClientDeadlineTest, UnboundedClientsStayBlockingByDefault)
{
    // ioTimeoutMs = 0 arms nothing: a reply that takes a moment is
    // fine (the pre-deadline behavior every in-process test relies
    // on). The stub replies immediately here.
    StubDaemon daemon("{\"type\":\"pong\"}\n");
    Client client(daemon.path());
    EXPECT_EQ(client.request(pingRequest()).find("type")->asString(),
              "pong");
}

TEST(ClientDeadlineTest, MissingSocketIsAPlainErrorNotATimeout)
{
    const std::string path =
        (fs::temp_directory_path() / "no_such_daemon.sock").string();
    ClientOptions options;
    options.connectTimeoutMs = 200;
    try {
        Client client(path, options);
        FAIL() << "connect to a missing socket must throw";
    } catch (const TimeoutError &) {
        FAIL() << "ENOENT is a hard error, not a deadline expiry — "
                  "callers must not retry it as a timeout";
    } catch (const std::runtime_error &) {
        // Expected.
    }
}

TEST(ClientDeadlineTest, MalformedReplyIsAStructuredException)
{
    StubDaemon daemon("this is not json\n");
    Client client(daemon.path());
    try {
        (void)client.request(pingRequest());
        FAIL() << "garbage reply must throw";
    } catch (const TimeoutError &) {
        FAIL() << "garbage is not a timeout";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("invalid JSON"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ClientDeadlineTest, EofMidStreamIsNulloptNotAnException)
{
    StubDaemon daemon("{\"type\":\"accepted\"}\n");
    ClientOptions options;
    options.ioTimeoutMs = 2000;
    Client client(daemon.path(), options);
    ASSERT_TRUE(client.send(pingRequest()));
    const std::optional<JsonValue> first = client.read();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->find("type")->asString(), "accepted");
    // The stub holds silently; half-close our side so it hangs up,
    // then the stream ends cleanly (nullopt), the reattach trigger.
    client.halfClose();
    EXPECT_FALSE(client.read().has_value());
}

} // namespace
} // namespace harp::harpd
