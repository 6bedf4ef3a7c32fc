/**
 * @file
 * Campaign-level tests for the fleet experiment specs: byte-identical
 * JSONL across thread counts (the fleet's acceptance contract; its
 * absolute hash is pinned in tests/runner/test_campaign.cc), the
 * pinned-population tunable, and the sampler statistics
 * the `fleet_population_stats` experiment exposes, checked against the
 * chi-square threshold.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <unistd.h>

#include "runner/campaign.hh"
#include "runner/registry.hh"
#include "support/statistics.hh"

namespace harp::runner {
namespace {

namespace fs = std::filesystem;

class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("harp_fleet_" + tag + "_" + std::to_string(::getpid())))
    {
        fs::remove_all(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Scaled-down but non-trivial fleet overrides. */
std::map<std::string, std::string>
smallFleetOverrides()
{
    return {{"chips", "3000"},  {"fit_scale", "300"},
            {"windows", "6"},   {"rounds", "8"},
            {"device_hours", "43800"}};
}

CampaignSummary
runSelectors(const std::vector<std::string> &selectors,
             const CampaignOptions &options)
{
    std::ostringstream log;
    return runCampaign(builtinRegistry().select(selectors), options, log);
}

/**
 * The acceptance contract: fleet_policy_sweep emits byte-identical
 * JSONL for --threads {1, 4, hardware}, under the single-tier DDR4
 * preset and the three-tier HRM one. 10000 chips span three 4096-chip
 * strata, so each point merges several. The profiler axis is collapsed
 * to keep the matrix fast; the repair_budget and scrub axes stay swept.
 */
TEST(FleetSpec, PolicySweepBytesIdenticalAcrossThreads)
{
    for (const std::string dist : {"ddr4", "hrm"}) {
        std::vector<std::string> bytes;
        std::vector<std::uint64_t> hashes;
        std::vector<std::string> tags;
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{4}, std::size_t{0} /* hw */}) {
            const std::string tag = dist + "_t" + std::to_string(threads);
            const TempDir dir(tag);
            CampaignOptions options;
            options.seed = 21;
            options.threads = threads;
            options.outDir = dir.str();
            options.overrides = smallFleetOverrides();
            options.overrides["chips"] = "10000";
            options.overrides["fit_scale"] = "50";
            options.overrides["profiler"] = "harp_u";
            options.overrides["dist"] = dist;
            const CampaignSummary summary =
                runSelectors({"fleet_policy_sweep"}, options);
            ASSERT_EQ(summary.experiments.size(), 1u);
            // profiler collapsed: scrub {0,8} x budget {16,-1} remain.
            EXPECT_EQ(summary.experiments[0].points, 4u);
            hashes.push_back(summary.experiments[0].resultHash);
            bytes.push_back(readFile(summary.experiments[0].jsonlPath));
            tags.push_back(tag);
        }
        ASSERT_EQ(bytes.size(), 3u);
        for (std::size_t r = 1; r < bytes.size(); ++r) {
            EXPECT_EQ(hashes[r], hashes[0]) << tags[r] << " vs " << tags[0];
            EXPECT_EQ(bytes[r], bytes[0]) << tags[r] << " vs " << tags[0];
        }
    }
}

/** With --fleet_seed pinned, every grid point sees the same chip
 *  population: identical sampling counters on every line. */
TEST(FleetSpec, PinnedFleetSeedSharesPopulationAcrossGrid)
{
    const TempDir dir("pinned");
    CampaignOptions options;
    options.seed = 5;
    options.threads = 2;
    options.outDir = dir.str();
    options.overrides = smallFleetOverrides();
    options.overrides["fleet_seed"] = "1234";
    const CampaignSummary summary =
        runSelectors({"fleet_policy_sweep"}, options);
    ASSERT_EQ(summary.experiments.size(), 1u);
    EXPECT_EQ(summary.experiments[0].points, 16u);

    std::istringstream jsonl(
        readFile(summary.experiments[0].jsonlPath));
    std::string line;
    std::int64_t faulty = -1, events = -1, cells = -1;
    std::size_t lines = 0;
    while (std::getline(jsonl, line)) {
        const JsonValue doc = JsonValue::parse(line);
        const JsonValue *metrics = doc.find("metrics");
        ASSERT_NE(metrics, nullptr);
        if (faulty < 0) {
            faulty = metrics->find("faulty_chips")->asInt();
            events = metrics->find("fault_events")->asInt();
            cells = metrics->find("at_risk_cells")->asInt();
            EXPECT_GT(faulty, 0);
        }
        EXPECT_EQ(metrics->find("faulty_chips")->asInt(), faulty);
        EXPECT_EQ(metrics->find("fault_events")->asInt(), events);
        EXPECT_EQ(metrics->find("at_risk_cells")->asInt(), cells);
        ++lines;
    }
    EXPECT_EQ(lines, 16u);
}

/** The population-stats experiment's chi-square statistic stays under
 *  the 0.1% critical value, and its closed-form faulty fraction
 *  matches the observation within 5 sigma — on both presets. */
TEST(FleetSpec, PopulationStatsPassGoodnessOfFit)
{
    const TempDir dir("popstats");
    CampaignOptions options;
    options.seed = 31;
    options.threads = 2;
    options.outDir = dir.str();
    options.overrides = {{"chips", "150000"}, {"fit_scale", "50"}};
    const CampaignSummary summary =
        runSelectors({"fleet_population_stats"}, options);
    ASSERT_EQ(summary.experiments.size(), 1u);
    EXPECT_EQ(summary.experiments[0].points, 2u); // ddr4, hrm

    std::istringstream jsonl(
        readFile(summary.experiments[0].jsonlPath));
    std::string line;
    std::size_t lines = 0;
    while (std::getline(jsonl, line)) {
        const JsonValue doc = JsonValue::parse(line);
        const JsonValue *metrics = doc.find("metrics");
        ASSERT_NE(metrics, nullptr);
        const double chips = metrics->find("chips")->asDouble();
        const double faulty =
            metrics->find("faulty_chips")->asDouble();
        ASSERT_GT(faulty, 500.0)
            << "fleet too quiet for a meaningful GOF";
        EXPECT_LT(metrics->find("chi_square_mode_mix")->asDouble(),
                  test::chiSquareCritical999(3));
        const double p =
            metrics->find("expected_faulty_fraction")->asDouble();
        const double sigma = std::sqrt(chips * p * (1.0 - p));
        EXPECT_NEAR(faulty, chips * p, 5.0 * sigma);
        ++lines;
    }
    EXPECT_EQ(lines, 2u);
}

} // namespace
} // namespace harp::runner
