/**
 * @file
 * Unit tests for the injectable I/O seam (common/io.hh): plan-spec
 * parsing round trips, one-shot vs sticky scheduling, injected errors
 * surfacing as std::error_code from File/renamePath/syncDir, short
 * writes leaving a genuinely torn tail on disk, injected EINTR being
 * consumed by the retry loop, and the retriable-errno classification
 * the degraded state machine relies on.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/io.hh"
#include "support/files.hh"

namespace harp::common::io {
namespace {

namespace fs = std::filesystem;
using test::readFile;

class IoFaultsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root_ = fs::temp_directory_path() /
                ("io_faults_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name());
        fs::remove_all(root_);
        fs::create_directories(root_);
    }

    void TearDown() override { fs::remove_all(root_); }

    fs::path root_;
};

TEST_F(IoFaultsTest, CleanFileRoundTripsBytes)
{
    File file;
    const fs::path path = root_ / "out.txt";
    ASSERT_FALSE(file.open(path.string(), /*truncate=*/true));
    ASSERT_FALSE(file.writeAll("hello "));
    ASSERT_FALSE(file.writeAll("world\n"));
    ASSERT_FALSE(file.sync());
    ASSERT_FALSE(file.close());
    EXPECT_FALSE(file.isOpen());
    EXPECT_EQ(readFile(path), "hello world\n");

    // Append mode continues the file.
    ASSERT_FALSE(file.open(path.string(), /*truncate=*/false));
    ASSERT_FALSE(file.writeAll("again\n"));
    ASSERT_FALSE(file.close());
    EXPECT_EQ(readFile(path), "hello world\nagain\n");

    // Truncate mode restarts it.
    ASSERT_FALSE(file.open(path.string(), /*truncate=*/true));
    ASSERT_FALSE(file.close());
    EXPECT_EQ(readFile(path), "");
}

TEST_F(IoFaultsTest, OneShotWriteFaultFailsExactlyTheNthWrite)
{
    FaultPlan plan;
    plan.injectAt(Op::Write, 2,
                  {std::error_code(ENOSPC, std::generic_category())});
    File file;
    ASSERT_FALSE(
        file.open((root_ / "f").string(), true, &plan));
    EXPECT_FALSE(file.writeAll("a"));   // write #0
    EXPECT_FALSE(file.writeAll("b"));   // write #1
    const std::error_code ec = file.writeAll("c"); // write #2: fails
    EXPECT_EQ(ec.value(), ENOSPC);
    // One-shot: the schedule is consumed, later writes succeed.
    EXPECT_FALSE(file.writeAll("d"));
    ASSERT_FALSE(file.close());
    // The failed write persisted nothing (no short= clause).
    EXPECT_EQ(readFile(root_ / "f"), "abd");
}

TEST_F(IoFaultsTest, StickyFaultPersistsUntilThePlanGoesAway)
{
    FaultPlan plan;
    plan.injectFrom(Op::Write, 1,
                    {std::error_code(ENOSPC, std::generic_category())});
    File file;
    ASSERT_FALSE(file.open((root_ / "f").string(), true, &plan));
    EXPECT_FALSE(file.writeAll("ok"));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(file.writeAll("x").value(), ENOSPC) << i;
    ASSERT_FALSE(file.close());
    EXPECT_EQ(readFile(root_ / "f"), "ok");
}

TEST_F(IoFaultsTest, ShortWriteLeavesATornTailOnDisk)
{
    FaultPlan plan;
    plan.injectAt(Op::Write, 0,
                  {std::error_code(EIO, std::generic_category()), 4});
    File file;
    ASSERT_FALSE(file.open((root_ / "f").string(), true, &plan));
    const std::error_code ec = file.writeAll("0123456789");
    EXPECT_EQ(ec.value(), EIO);
    ASSERT_FALSE(file.close());
    // The prefix genuinely reached the file: the torn-tail failure
    // mode checkpoint recovery must truncate away.
    EXPECT_EQ(readFile(root_ / "f"), "0123");
}

TEST_F(IoFaultsTest, InjectedEintrIsConsumedByTheRetryLoop)
{
    FaultPlan plan;
    plan.injectAt(Op::Write, 0,
                  {std::error_code(EINTR, std::generic_category()), 2});
    File file;
    ASSERT_FALSE(file.open((root_ / "f").string(), true, &plan));
    // EINTR witnesses the internal retry: the caller sees success and
    // the full payload lands.
    EXPECT_FALSE(file.writeAll("abcdef"));
    ASSERT_FALSE(file.close());
    EXPECT_EQ(readFile(root_ / "f"), "abcdef");
}

TEST_F(IoFaultsTest, FsyncOpenCloseAndRenameFaultsSurface)
{
    FaultPlan plan;
    plan.injectAt(Op::Fsync, 0,
                  {std::error_code(EIO, std::generic_category())});
    plan.injectAt(Op::Open, 1,
                  {std::error_code(EACCES, std::generic_category())});
    plan.injectAt(Op::Close, 0,
                  {std::error_code(EIO, std::generic_category())});
    plan.injectAt(Op::Rename, 0,
                  {std::error_code(ENOSPC, std::generic_category())});

    File file;
    ASSERT_FALSE(file.open((root_ / "f").string(), true, &plan));
    EXPECT_FALSE(file.writeAll("x"));
    EXPECT_EQ(file.sync().value(), EIO);
    EXPECT_EQ(file.close().value(), EIO);
    EXPECT_FALSE(file.isOpen()) << "fd must not leak on close fault";

    EXPECT_EQ(file.open((root_ / "g").string(), true, &plan).value(),
              EACCES);
    EXPECT_FALSE(file.isOpen());

    EXPECT_EQ(renamePath((root_ / "f").string(),
                         (root_ / "renamed").string(), &plan)
                  .value(),
              ENOSPC);
    EXPECT_TRUE(fs::exists(root_ / "f")) << "failed rename is a no-op";
    // With the one-shot consumed, the rename goes through.
    EXPECT_FALSE(renamePath((root_ / "f").string(),
                            (root_ / "renamed").string(), &plan));
    EXPECT_TRUE(fs::exists(root_ / "renamed"));
    EXPECT_FALSE(syncDir(root_.string(), &plan));
}

TEST_F(IoFaultsTest, RealErrorsStillSurfaceWithoutAPlan)
{
    File file;
    const std::error_code ec =
        file.open((root_ / "no_such_dir" / "f").string(), true);
    EXPECT_TRUE(ec);
    EXPECT_EQ(ec.value(), ENOENT);
    EXPECT_FALSE(file.isOpen());

    EXPECT_TRUE(renamePath((root_ / "absent").string(),
                           (root_ / "target").string()));
    EXPECT_TRUE(syncDir((root_ / "no_such_dir").string()));
}

TEST_F(IoFaultsTest, SpecGrammarRoundTrips)
{
    FaultPlan plan("write#4+=ENOSPC/short=10,fsync#0=EIO,"
                   "rename#1=EACCES");
    // describe() re-serializes the schedule: a chaos failure is
    // reproducible from the logged line alone.
    const std::string described = plan.describe();
    EXPECT_NE(described.find("write#4+=ENOSPC/short=10"),
              std::string::npos)
        << described;
    EXPECT_NE(described.find("fsync#0=EIO"), std::string::npos);
    EXPECT_NE(described.find("rename#1=EACCES"), std::string::npos);

    // And the parsed plan behaves as scheduled.
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(plan.next(Op::Write).has_value()) << i;
    const std::optional<Fault> fifth = plan.next(Op::Write);
    ASSERT_TRUE(fifth.has_value());
    EXPECT_EQ(fifth->ec.value(), ENOSPC);
    EXPECT_EQ(fifth->shortBytes, 10u);
    EXPECT_TRUE(plan.next(Op::Write).has_value()) << "sticky";
    ASSERT_TRUE(plan.next(Op::Fsync).has_value());
    EXPECT_FALSE(plan.next(Op::Rename).has_value());
    ASSERT_TRUE(plan.next(Op::Rename).has_value());
    EXPECT_EQ(plan.consumed(Op::Write), 6u);
}

TEST_F(IoFaultsTest, NumericErrnosAndNamesAgree)
{
    FaultPlan plan("write#0=" + std::to_string(ENOSPC));
    const std::optional<Fault> fault = plan.next(Op::Write);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->ec.value(), ENOSPC);
    EXPECT_EQ(errnoName(ENOSPC), "ENOSPC");
    EXPECT_EQ(errnoName(EIO), "EIO");
    // Unknown values still round-trip through the numeric fallback.
    const std::string odd = errnoName(12345);
    EXPECT_EQ(odd, "errno_12345");
}

TEST_F(IoFaultsTest, MalformedSpecsAreRejectedWithTheOffendingEntry)
{
    const std::vector<std::string> bad = {
        "frobnicate#0=EIO",     // unknown op
        "write#x=EIO",          // bad index
        "write#0=EFROB",        // unknown errno
        "write#0",              // missing errno
        "fsync#0=EIO/short=4",  // short= is write-only
        "write#0=EIO/short=no", // bad short value
    };
    for (const std::string &spec : bad) {
        EXPECT_THROW(
            {
                try {
                    FaultPlan plan(spec);
                } catch (const std::runtime_error &e) {
                    // The message names the entry so a bad --fault-plan
                    // flag is diagnosable.
                    EXPECT_NE(std::string(e.what()).find(
                                  spec.substr(0, 5)),
                              std::string::npos)
                        << e.what();
                    throw;
                }
            },
            std::runtime_error)
            << spec;
    }
}

TEST_F(IoFaultsTest, PlanIsSafeToShareAcrossThreads)
{
    FaultPlan plan;
    for (std::size_t i = 0; i < 64; i += 2)
        plan.injectAt(Op::Write, i,
                      {std::error_code(EIO, std::generic_category())});
    std::vector<std::thread> threads;
    std::vector<int> faults(4, 0);
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&plan, &faults, t] {
            for (int i = 0; i < 16; ++i)
                if (plan.next(Op::Write).has_value())
                    ++faults[t];
        });
    for (std::thread &thread : threads)
        thread.join();
    // Every even-indexed occurrence fired exactly once, whoever drew it.
    EXPECT_EQ(faults[0] + faults[1] + faults[2] + faults[3], 32);
    EXPECT_EQ(plan.consumed(Op::Write), 64u);
}

TEST_F(IoFaultsTest, RetriableClassificationMatchesTheRunbook)
{
    const auto code = [](int value) {
        return std::error_code(value, std::generic_category());
    };
    EXPECT_TRUE(isRetriable(code(ENOSPC)));
    EXPECT_TRUE(isRetriable(code(EDQUOT)));
    EXPECT_FALSE(isRetriable(code(EIO)));
    EXPECT_FALSE(isRetriable(code(EACCES)));
    EXPECT_FALSE(isRetriable(std::error_code()));
}

} // namespace
} // namespace harp::common::io
