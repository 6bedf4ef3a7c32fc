/**
 * @file
 * Unit tests for command-line parsing and table rendering.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/cli.hh"
#include "common/table.hh"

namespace harp::common {
namespace {

CommandLine
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return CommandLine(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm)
{
    const CommandLine cl = parse({"--rounds=128", "--prob=0.5"});
    EXPECT_EQ(cl.getInt("rounds", 0), 128);
    EXPECT_EQ(cl.getString("prob", ""), "0.5");
}

TEST(Cli, SpaceForm)
{
    const CommandLine cl = parse({"--rounds", "64", "--name", "fig6"});
    EXPECT_EQ(cl.getInt("rounds", 0), 64);
    EXPECT_EQ(cl.getString("name", ""), "fig6");
}

TEST(Cli, BooleanFlag)
{
    const CommandLine cl = parse({"--csv", "--full=false", "--quick=0"});
    EXPECT_TRUE(cl.getBool("csv", false));
    EXPECT_FALSE(cl.getBool("full", true));
    EXPECT_FALSE(cl.getBool("quick", true));
    EXPECT_TRUE(cl.getBool("absent", true));
    EXPECT_FALSE(cl.getBool("absent", false));
}

TEST(Cli, Defaults)
{
    const CommandLine cl = parse({});
    EXPECT_EQ(cl.getInt("rounds", 7), 7);
    EXPECT_EQ(cl.getString("name", "dflt"), "dflt");
    EXPECT_FALSE(cl.has("anything"));
}

TEST(Cli, Positional)
{
    const CommandLine cl = parse({"input.txt", "--flag=1", "more"});
    ASSERT_EQ(cl.positional().size(), 2u);
    EXPECT_EQ(cl.positional()[0], "input.txt");
    EXPECT_EQ(cl.positional()[1], "more");
}

TEST(Cli, IntegerFlagsAcceptOnlyWholeDecimalsInRange)
{
    EXPECT_EQ(parseIntegerFlag<int>("--n", "42"), 42);
    EXPECT_EQ(parseIntegerFlag<int>("--n", "-7"), -7);
    EXPECT_EQ(parseIntegerFlag<std::uint64_t>("--seed",
                                              "18446744073709551615"),
              ~std::uint64_t{0});
    EXPECT_EQ(parseIntegerFlag<std::size_t>("--n", "4096", 0, 4096), 4096u);
    for (const char *bad : {"", "abc", "12abc", " 12", "12 ", "+12", "0x10",
                            "1.5", "1e3"})
        EXPECT_THROW(parseIntegerFlag<int>("--n", bad),
                     std::invalid_argument)
            << "'" << bad << "'";
    // Overflow of the field type, and signs on unsigned fields.
    EXPECT_THROW(parseIntegerFlag<int>("--n", "99999999999999"),
                 std::invalid_argument);
    EXPECT_THROW(parseIntegerFlag<std::uint64_t>("--n",
                                                 "18446744073709551616"),
                 std::invalid_argument);
    EXPECT_THROW(parseIntegerFlag<std::size_t>("--n", "-1"),
                 std::invalid_argument);
    // The caller's range.
    EXPECT_THROW(parseIntegerFlag<std::size_t>("--n", "4097", 0, 4096),
                 std::invalid_argument);
    EXPECT_THROW(parseIntegerFlag<int>("--n", "0", 1, 10),
                 std::invalid_argument);
    try {
        parseIntegerFlag<int>("--threads", "abc", 0, 8);
        FAIL() << "no throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "--threads wants an integer in [0, 8], got 'abc'");
    }
}

TEST(Cli, GetIntRejectsMalformedValues)
{
    const CommandLine cl = parse({"--threads", "abc", "--seed=-1"});
    EXPECT_THROW(cl.getInt<std::size_t>("threads", 0),
                 std::invalid_argument);
    EXPECT_THROW(cl.getInt<std::uint64_t>("seed", 1),
                 std::invalid_argument);
    EXPECT_EQ(cl.getInt<std::uint64_t>("absent", 1), 1u);
}

TEST(Table, AlignedOutput)
{
    Table t({"name", "value"});
    t.addRow({"x", "10"});
    t.addRow({"longer", "2"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("| longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("|-"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.numCols(), 2u);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(formatDouble(0.123456, 3), "0.123");
    EXPECT_EQ(formatDouble(2.0, 1), "2.0");
}

} // namespace
} // namespace harp::common
