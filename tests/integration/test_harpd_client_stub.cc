/**
 * @file
 * Forward-compatibility contract of the `harpd_client` binary against
 * a scripted stub daemon: event kinds this build does not know are
 * skipped silently (a newer daemon never breaks a deployed client),
 * `progress`/`queued` render only under --verbose, `deadline_exceeded`
 * — as a stream event or a terminal subscribe status — exits 5, and
 * submit forwards --priority/--deadline-ms onto the wire.
 */

#include <gtest/gtest.h>

#include <string>

#include "support/harpd_harness.hh"

namespace harp::harpd {
namespace {

using test::StubDaemon;

class HarpdClientStubTest : public test::DaemonFixture
{
  protected:
    HarpdClientStubTest()
        : DaemonFixture({.client = HARPD_CLIENT_BIN_PATH})
    {
    }
};

/** A stream a *future* daemon might send: heartbeats, an unknown
 *  event kind, then completion. */
const char *kFutureStream =
    "{\"type\":\"accepted\",\"seq\":0,\"campaign\":\"c\","
    "\"total_jobs\":1,\"restored_jobs\":0}\n"
    "{\"type\":\"progress\",\"seq\":1,\"campaign\":\"c\",\"wave\":1,"
    "\"jobs_done\":1,\"jobs_total\":1,\"jobs_per_sec\":42.0}\n"
    "{\"type\":\"hologram_ready\",\"seq\":2,\"shard\":7}\n"
    "{\"type\":\"result\",\"seq\":3,\"experiment\":\"quickstart\","
    "\"job\":0,\"line\":\"{\\\"x\\\":1}\"}\n"
    "{\"type\":\"done\",\"seq\":4,\"campaign\":\"c\"}\n";

TEST_F(HarpdClientStubTest, UnknownEventKindsAreSkippedSilently)
{
    StubDaemon stub(kFutureStream);
    EXPECT_EQ(cli("--socket " + stub.path() + " submit c quickstart"),
              0);
    // The result still flowed through to stdout...
    EXPECT_NE(stdoutText().find("{\"x\":1}"), std::string::npos);
    // ...and neither the unknown kind nor the heartbeats made noise.
    EXPECT_EQ(stderrText().find("hologram_ready"), std::string::npos)
        << stderrText();
    EXPECT_EQ(stderrText().find("progress"), std::string::npos);
}

TEST_F(HarpdClientStubTest, VerboseRendersAdvisoryAndUnknownEvents)
{
    StubDaemon stub(std::string(
        "{\"type\":\"queued\",\"campaign\":\"c\",\"position\":1,"
        "\"retry_after_ms\":200}\n") + kFutureStream);
    EXPECT_EQ(cli("--socket " + stub.path() +
                  " --verbose submit c quickstart"),
              0);
    EXPECT_NE(stderrText().find("queued"), std::string::npos)
        << stderrText();
    EXPECT_NE(stderrText().find("progress"), std::string::npos);
    EXPECT_NE(stderrText().find("hologram_ready"), std::string::npos)
        << "--verbose should note skipped unknown events";
}

TEST_F(HarpdClientStubTest, DeadlineExceededEventExitsFive)
{
    StubDaemon stub(
        "{\"type\":\"accepted\",\"seq\":0,\"campaign\":\"c\","
        "\"total_jobs\":4,\"restored_jobs\":0}\n"
        "{\"type\":\"result\",\"seq\":1,\"experiment\":\"quickstart\","
        "\"job\":0,\"line\":\"{\\\"x\\\":1}\"}\n"
        "{\"type\":\"deadline_exceeded\",\"campaign\":\"c\","
        "\"completed_jobs\":1,\"total_jobs\":4,\"resumable\":true}\n");
    EXPECT_EQ(cli("--socket " + stub.path() +
                  " submit c quickstart --deadline-ms 1000"),
              5);
    EXPECT_NE(stderrText().find("deadline_exceeded"),
              std::string::npos);
}

TEST_F(HarpdClientStubTest, TerminalDeadlineStatusOnSubscribeExitsFive)
{
    StubDaemon stub(
        "{\"type\":\"subscribed\",\"campaign\":\"c\",\"from\":0}\n"
        "{\"type\":\"status\",\"campaign\":\"c\","
        "\"state\":\"deadline_exceeded\",\"completed_jobs\":2,"
        "\"total_jobs\":4}\n");
    EXPECT_EQ(cli("--socket " + stub.path() + " subscribe c"), 5);
}

TEST_F(HarpdClientStubTest, SubmitForwardsPriorityAndDeadlineOnWire)
{
    StubDaemon stub(
        "{\"type\":\"error\",\"code\":\"shutting_down\","
        "\"message\":\"scripted\"}\n");
    EXPECT_EQ(cli("--socket " + stub.path() +
                  " submit c quickstart --priority background "
                  "--deadline-ms 1500 --tenant sweeper"),
              1);
    const std::string wire = stub.firstRequest();
    EXPECT_NE(wire.find("\"priority\":\"background\""),
              std::string::npos)
        << wire;
    EXPECT_NE(wire.find("\"deadline_ms\":1500"), std::string::npos);
    EXPECT_NE(wire.find("\"tenant\":\"sweeper\""), std::string::npos);
}

TEST_F(HarpdClientStubTest, BadDeadlineFlagIsUsageError)
{
    EXPECT_EQ(cli("--socket /tmp/x.sock submit c quickstart "
                  "--deadline-ms 0"),
              2);
    EXPECT_EQ(cli("--socket /tmp/x.sock submit c quickstart "
                  "--deadline-ms -5"),
              2);
}

} // namespace
} // namespace harp::harpd
