/**
 * @file
 * Integration tests for the campaign driver: JSONL/summary emission,
 * schema validity of every emitted metrics object, axis collapsing from
 * overrides, repeats, and the determinism contract — a seed-fixed
 * campaign produces identical result hashes across 1/4/hardware-thread
 * sharding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <unistd.h>

#include "common/thread_pool.hh"
#include "runner/campaign.hh"
#include "runner/cli.hh"
#include "runner/registry.hh"
#include "runner/session.hh"

namespace harp::runner {
namespace {

namespace fs = std::filesystem;

/** Self-cleaning output directory under the system temp dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("harp_campaign_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        fs::remove_all(path_);
    }
    ~TempDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }
    fs::path path() const { return path_; }

  private:
    fs::path path_;
};

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Cheap scale-down overrides so integration runs stay fast. */
std::map<std::string, std::string>
fastOverrides()
{
    return {{"blocks", "200"}, {"trials", "20"}, {"rounds", "8"}};
}

CampaignSummary
runFast(const std::vector<std::string> &selectors,
        const CampaignOptions &base, std::ostream &log)
{
    const auto specs = builtinRegistry().select(selectors);
    return runCampaign(specs, base, log);
}

TEST(Campaign, EmitsSchemaValidJsonlInGridOrder)
{
    const TempDir dir("jsonl");
    CampaignOptions options;
    options.seed = 1;
    options.threads = 1;
    options.outDir = dir.str();
    options.overrides = fastOverrides();

    std::ostringstream log;
    const CampaignSummary summary =
        runFast({"table02_amplification"}, options, log);
    ASSERT_EQ(summary.experiments.size(), 1u);
    const ExperimentRunSummary &exp = summary.experiments[0];
    EXPECT_EQ(exp.points, 7u);

    const ExperimentSpec *spec =
        builtinRegistry().find("table02_amplification");
    ASSERT_NE(spec, nullptr);
    const auto points = spec->grid.expand();

    std::istringstream jsonl(readFile(exp.jsonlPath));
    std::string line;
    std::size_t index = 0;
    while (std::getline(jsonl, line)) {
        const JsonValue doc = JsonValue::parse(line);
        ASSERT_NE(doc.find("experiment"), nullptr);
        EXPECT_EQ(doc.find("experiment")->asString(),
                  "table02_amplification");
        // Lines appear in grid-expansion order.
        EXPECT_EQ(doc.find("point")->asInt(),
                  static_cast<std::int64_t>(index));
        EXPECT_EQ(doc.find("params")->dump(), points[index].toJson().dump());
        // Every metrics object round-trips schema-valid through text.
        const auto error = validateSchema(spec->schema,
                                          *doc.find("metrics"));
        EXPECT_FALSE(error.has_value()) << *error;
        ++index;
    }
    EXPECT_EQ(index, 7u);
}

TEST(Campaign, SummaryJsonParsesAndMatchesReturnValue)
{
    const TempDir dir("summary");
    CampaignOptions options;
    options.seed = 3;
    options.threads = 2;
    options.outDir = dir.str();
    options.overrides = fastOverrides();

    std::ostringstream log;
    const CampaignSummary summary =
        runFast({"quickstart", "table01_repair_survey"}, options, log);

    const JsonValue doc =
        JsonValue::parse(readFile(dir.path() / "summary.json"));
    ASSERT_NE(doc.find("experiments"), nullptr);
    ASSERT_EQ(doc.find("experiments")->size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const JsonValue &exp = doc.find("experiments")->at(i);
        EXPECT_EQ(exp.find("name")->asString(),
                  summary.experiments[i].name);
        EXPECT_EQ(exp.find("result_hash")->asString(),
                  formatResultHash(summary.experiments[i].resultHash));
        EXPECT_EQ(
            exp.find("points")->asInt(),
            static_cast<std::int64_t>(summary.experiments[i].points));
        // Timing fields exist (values are machine-dependent).
        EXPECT_NE(exp.find("wall_seconds"), nullptr);
        EXPECT_NE(exp.find("job_seconds"), nullptr);
    }
    EXPECT_EQ(doc.find("campaign")->find("seed")->asString(), "3");
}

TEST(Campaign, OverridesCollapseAxesAndScaleTunables)
{
    const TempDir dir("collapse");
    CampaignOptions options;
    options.seed = 1;
    options.threads = 1;
    options.outDir = dir.str();
    options.overrides = {{"rber", "0.01"}, {"blocks", "100"}};

    std::ostringstream log;
    const CampaignSummary summary =
        runFast({"fig02_wasted_storage"}, options, log);
    // The rber axis (14 values) collapses to 1; granularity (5) stays.
    ASSERT_EQ(summary.experiments.size(), 1u);
    EXPECT_EQ(summary.experiments[0].points, 5u);

    std::istringstream jsonl(
        readFile(summary.experiments[0].jsonlPath));
    std::string line;
    while (std::getline(jsonl, line)) {
        const JsonValue doc = JsonValue::parse(line);
        EXPECT_DOUBLE_EQ(
            doc.find("params")->find("rber")->asDouble(), 0.01);
    }
}

TEST(Campaign, RepeatsGetDistinctSeeds)
{
    const TempDir dir("repeat");
    CampaignOptions options;
    options.seed = 1;
    options.threads = 1;
    options.repeat = 3;
    options.outDir = dir.str();
    options.overrides = fastOverrides();

    std::ostringstream log;
    const CampaignSummary summary = runFast({"quickstart"}, options, log);
    EXPECT_EQ(summary.experiments[0].points, 1u);
    EXPECT_EQ(summary.experiments[0].repeats, 3u);

    std::istringstream jsonl(
        readFile(summary.experiments[0].jsonlPath));
    std::string line;
    std::vector<std::string> seeds;
    std::size_t repeat_index = 0;
    while (std::getline(jsonl, line)) {
        const JsonValue doc = JsonValue::parse(line);
        EXPECT_EQ(doc.find("repeat")->asInt(),
                  static_cast<std::int64_t>(repeat_index++));
        seeds.push_back(doc.find("seed")->asString());
    }
    ASSERT_EQ(seeds.size(), 3u);
    EXPECT_NE(seeds[0], seeds[1]);
    EXPECT_NE(seeds[1], seeds[2]);
}

TEST(Campaign, SchemaViolationSurfacesAsError)
{
    ExperimentSpec bad;
    bad.name = "bad_spec";
    bad.description = "emits an undeclared field";
    bad.labels = {"test"};
    bad.schema = {{"declared", JsonType::Int, ""}};
    bad.run = [](const RunContext &) {
        JsonValue metrics = JsonValue::object();
        metrics.set("declared", JsonValue(1));
        metrics.set("surprise", JsonValue(2));
        return metrics;
    };
    Registry registry;
    registry.add(bad);

    const TempDir dir("badspec");
    CampaignOptions options;
    options.outDir = dir.str();
    std::ostringstream log;
    EXPECT_THROW(
        runCampaign(registry.select({"bad_spec"}), options, log),
        std::runtime_error);
}

/**
 * The determinism contract behind the perf-trajectory loop: a
 * seed-fixed campaign emits byte-identical JSONL (hence equal result
 * hashes) when sharded over 1, 4 or hardware-concurrency threads.
 */
TEST(CampaignDeterminism, SeedFixedHashesAgreeAcrossShardCounts)
{
    // Multi-point experiments from three different spec families keep
    // this representative while staying fast.
    const std::vector<std::string> selectors = {
        "fig02_wasted_storage", "table02_amplification", "quickstart"};

    std::vector<CampaignSummary> runs;
    std::vector<std::string> jsonl_bytes;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                      std::size_t{0} /* hardware */}) {
        const TempDir dir("shard" + std::to_string(threads));
        CampaignOptions options;
        options.seed = 7;
        options.threads = threads;
        options.outDir = dir.str();
        options.overrides = fastOverrides();
        std::ostringstream log;
        runs.push_back(runFast(selectors, options, log));
        std::string bytes;
        for (const ExperimentRunSummary &exp : runs.back().experiments)
            bytes += readFile(exp.jsonlPath);
        jsonl_bytes.push_back(std::move(bytes));
    }

    ASSERT_EQ(runs.size(), 3u);
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].experiments.size(),
                  runs[0].experiments.size());
        for (std::size_t e = 0; e < runs[0].experiments.size(); ++e) {
            EXPECT_EQ(runs[r].experiments[e].resultHash,
                      runs[0].experiments[e].resultHash)
                << runs[0].experiments[e].name << " with "
                << runs[r].threads << " threads";
        }
        EXPECT_EQ(jsonl_bytes[r], jsonl_bytes[0]);
    }
}

/**
 * The engine × sharding contract behind `--engine`/`--threads`: every
 * engine (scalar, sliced64, sliced256) at every shard count (1, 4,
 * hardware) must emit byte-identical JSONL (equal result hashes) for a
 * fixed seed over the coverage, case-study and low-probability specs
 * (the last one with heterogeneous per-word codes through the
 * lane-native observation path). 70 words exercise a ragged sliced
 * block (64 + 6 lanes at W=1; 70 lanes of one 256-lane block at W=4),
 * and the multi-thread runs drive the intra-job sharding + ordered
 * block release of core::profileWords.
 */
TEST(CampaignDeterminism, EngineAndShardOverridesHashIdentically)
{
    std::vector<CampaignSummary> runs;
    std::vector<std::string> jsonl_bytes;
    std::vector<std::string> tags;
    for (const char *engine : {"scalar", "sliced64", "sliced256"}) {
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{4}, std::size_t{0} /* hw */}) {
            const std::string tag = std::string(engine) + "_t" +
                                    std::to_string(threads);
            const TempDir dir("engine_" + tag);
            CampaignOptions options;
            options.seed = 11;
            options.threads = threads;
            options.outDir = dir.str();
            options.overrides = {{"engine", engine}, {"codes", "1"},
                                 {"words", "70"},    {"rounds", "6"},
                                 {"prob", "0.5"},    {"pre_errors", "3"},
                                 {"samples", "5"},   {"max_cells", "2"}};
            std::ostringstream log;
            runs.push_back(runFast({"fig06_direct_coverage",
                                    "fig10_case_study",
                                    "extension_low_probability"},
                                   options, log));
            std::string bytes;
            for (const ExperimentRunSummary &exp :
                 runs.back().experiments)
                bytes += readFile(exp.jsonlPath);
            jsonl_bytes.push_back(std::move(bytes));
            tags.push_back(tag);
        }
    }
    ASSERT_EQ(runs.size(), 9u);
    for (std::size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].experiments.size(),
                  runs[0].experiments.size());
        for (std::size_t e = 0; e < runs[0].experiments.size(); ++e)
            EXPECT_EQ(runs[r].experiments[e].resultHash,
                      runs[0].experiments[e].resultHash)
                << runs[0].experiments[e].name << ": " << tags[r]
                << " vs " << tags[0];
        EXPECT_EQ(jsonl_bytes[r], jsonl_bytes[0])
            << tags[r] << " vs " << tags[0];
    }
}

/**
 * The BCH extension sweep under `--engine`: scalar, sliced64 and
 * sliced256 runs of bch_t_sweep must emit byte-identical JSONL for a
 * fixed seed — the memoized sliced BCH datapath is exactly equivalent
 * to the scalar Berlekamp-Massey decoder at every width. words = 70
 * exercises a ragged sliced block (64 + 6 lanes).
 */
TEST(CampaignDeterminism, BchTSweepEngineOverridesHashIdentically)
{
    std::vector<std::uint64_t> hashes;
    std::vector<std::string> jsonl_bytes;
    for (const char *engine : {"scalar", "sliced64", "sliced256"}) {
        const TempDir dir(std::string("bch_engine_") + engine);
        CampaignOptions options;
        options.seed = 13;
        options.threads = 2;
        options.outDir = dir.str();
        options.overrides = {{"engine", engine},
                             {"words", "70"},
                             {"rounds", "6"},
                             {"pre_errors", "3"}};
        std::ostringstream log;
        const CampaignSummary summary =
            runFast({"bch_t_sweep"}, options, log);
        ASSERT_EQ(summary.experiments.size(), 1u);
        hashes.push_back(summary.experiments[0].resultHash);
        jsonl_bytes.push_back(
            readFile(summary.experiments[0].jsonlPath));
    }
    ASSERT_EQ(hashes.size(), 3u);
    EXPECT_EQ(hashes[0], hashes[1]);
    EXPECT_EQ(hashes[0], hashes[2]);
    EXPECT_EQ(jsonl_bytes[0], jsonl_bytes[1]);
    EXPECT_EQ(jsonl_bytes[0], jsonl_bytes[2]);
}

/**
 * `pre_errors` reaches the BCH ground-truth enumeration (2^pre_errors
 * subsets) from the command line and harpd submits: past the 16-cell
 * guard the job must fail with a clear message instead of silently
 * enumerating a truncated subset range.
 */
TEST(Campaign, BchTSweepRejectsUnenumerablePreErrors)
{
    const TempDir dir("bch_pre_errors_34");
    CampaignOptions options;
    options.threads = 2;
    options.outDir = dir.str();
    options.overrides = {{"pre_errors", "34"},
                         {"on_die_t", "1"},
                         {"words", "2"},
                         {"rounds", "2"}};
    std::ostringstream log;
    try {
        runFast({"bch_t_sweep"}, options, log);
        FAIL() << "bch_t_sweep accepted pre_errors 34";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "pre_errors 34 exceeds the ground-truth enumeration "
                      "limit of 16"),
                  std::string::npos)
            << e.what();
    }
}

/** The longest-first scheduling heuristic: scale-like integer params
 *  multiply into the cost key, non-integers are ignored. */
TEST(Campaign, JobCostKeyOrdersHeavyPointsFirst)
{
    ParamPoint light;
    light.add("on_die_t", ParamValue(std::size_t{1}));
    light.add("pre_errors", ParamValue(std::size_t{2}));
    light.add("prob", ParamValue(0.25));
    ParamPoint heavy;
    heavy.add("on_die_t", ParamValue(std::size_t{3}));
    heavy.add("pre_errors", ParamValue(std::size_t{5}));
    heavy.add("prob", ParamValue(0.25));

    EXPECT_DOUBLE_EQ(jobCostKey(light), 2.0);
    EXPECT_DOUBLE_EQ(jobCostKey(heavy), 15.0);
    EXPECT_GT(jobCostKey(heavy), jobCostKey(light));

    // Empty points (no-sweep specs) cost 1.
    EXPECT_DOUBLE_EQ(jobCostKey(ParamPoint()), 1.0);
}

/** The perf experiment runs end-to-end through the campaign driver and
 *  reports matching profiles across its three engine measurements. */
TEST(Campaign, PerfEngineThroughputSmoke)
{
    const TempDir dir("perf");
    CampaignOptions options;
    options.seed = 1;
    options.threads = 1;
    options.outDir = dir.str();
    options.overrides = {{"codes", "1"}, {"words", "8"}, {"rounds", "8"},
                         {"reps", "1"}};

    std::ostringstream log;
    const CampaignSummary summary =
        runFast({"perf_engine_throughput"}, options, log);
    ASSERT_EQ(summary.experiments.size(), 1u);

    std::istringstream jsonl(
        readFile(summary.experiments[0].jsonlPath));
    std::string line;
    // Point 0: the Hamming workload with the Fig. 6 profiler set.
    ASSERT_TRUE(std::getline(jsonl, line));
    const JsonValue doc = JsonValue::parse(line);
    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_NE(metrics->find("profiles_match"), nullptr);
    ASSERT_NE(metrics->find("speedup"), nullptr);
    ASSERT_NE(metrics->find("profiler_rounds"), nullptr);
    EXPECT_TRUE(metrics->find("profiles_match")->asBool());
    EXPECT_GT(metrics->find("speedup")->asDouble(), 0.0);
    // The third (wide-lane) measurement reports alongside the first two
    // and participates in the profiles_match checksum equality.
    ASSERT_NE(metrics->find("speedup_256"), nullptr);
    EXPECT_GT(metrics->find("speedup_256")->asDouble(), 0.0);
    EXPECT_GT(metrics->find("sliced256_rounds_per_sec")->asDouble(), 0.0);
    EXPECT_EQ(metrics->find("profiler_rounds")->asInt(), 8 * 8 * 4);
    EXPECT_TRUE(metrics->find("memo_hit_rate")->isNull());

    // Point 1: the BCH workload (Naive + HARP-U) with memo statistics
    // from the sliced syndrome-decode table.
    ASSERT_TRUE(std::getline(jsonl, line));
    const JsonValue bch_doc = JsonValue::parse(line);
    const JsonValue *bch_metrics = bch_doc.find("metrics");
    ASSERT_NE(bch_metrics, nullptr);
    EXPECT_EQ(bch_doc.find("params")->find("workload")->asString(),
              "bch");
    EXPECT_TRUE(bch_metrics->find("profiles_match")->asBool());
    EXPECT_EQ(bch_metrics->find("profiler_rounds")->asInt(), 8 * 8 * 2);
    EXPECT_GE(bch_metrics->find("memo_hits")->asInt(), 0);
    EXPECT_GT(bch_metrics->find("memo_misses")->asInt(), 0);
}

/** Changing the seed must change the results (the hash actually hashes
 *  content, not structure). */
TEST(CampaignDeterminism, DifferentSeedsProduceDifferentHashes)
{
    std::vector<std::uint64_t> hashes;
    for (const std::uint64_t seed : {1u, 2u}) {
        const TempDir dir("seed" + std::to_string(seed));
        CampaignOptions options;
        options.seed = seed;
        options.threads = 1;
        options.outDir = dir.str();
        options.overrides = fastOverrides();
        std::ostringstream log;
        const CampaignSummary summary =
            runFast({"table02_amplification"}, options, log);
        hashes.push_back(summary.experiments[0].resultHash);
    }
    EXPECT_NE(hashes[0], hashes[1]);
}

/** Collects the ordered line stream for byte comparisons. */
class CollectLines : public ResultSink
{
  public:
    void onResult(std::size_t, const std::string &line, bool) override
    {
        bytes += line + "\n";
    }
    std::string bytes;
};

/**
 * Satellite contract: the intra-job thread allowance is recomputed per
 * scheduling wave, so when the trailing wave is narrower than the pool
 * the leftover capacity flows into the remaining jobs — and the output
 * bytes are unchanged by any of it.
 */
TEST(CampaignDeterminism, TrailingWaveWidensIntraJobThreads)
{
    // 5 equal-cost jobs on a 4-thread pool: wave 1 runs jobs 0..3 with
    // a 1-thread allowance, wave 2 runs job 4 alone with all 4.
    constexpr std::size_t kJobs = 5;
    constexpr std::size_t kPool = 4;
    ExperimentSpec spec;
    spec.name = "wave_witness";
    spec.description = "records its per-job thread allowance";
    ParamAxis axis;
    axis.name = "p";
    for (std::size_t i = 0; i < kJobs; ++i)
        axis.values.push_back(ParamValue(std::int64_t(3)));
    spec.grid = ParamGrid({axis});
    spec.schema = {{"v", JsonType::Int, "seed echo"}};
    SessionOptions options;
    options.seed = 123;

    // Witness channel: map each job's (unique, deterministic) seed
    // back to its index so run() can record the allowance it was
    // handed without touching the metrics.
    std::map<std::uint64_t, std::size_t> seed_to_job;
    {
        CampaignSession probe(spec, options);
        for (std::size_t j = 0; j < probe.totalJobs(); ++j)
            seed_to_job[probe.jobSeedAt(j)] = j;
        ASSERT_EQ(seed_to_job.size(), kJobs);
    }
    std::array<std::atomic<std::size_t>, kJobs> seen{};
    spec.run = [&seen, &seed_to_job](const RunContext &ctx) {
        // Metrics stay allowance-independent — which is exactly what
        // the byte-identity half of the test checks.
        seen[seed_to_job.at(ctx.seed())].store(ctx.threads());
        JsonValue metrics = JsonValue::object();
        metrics.set("v", JsonValue(static_cast<std::int64_t>(
                             ctx.seed() % 97)));
        return metrics;
    };

    common::ThreadPool pool(kPool);
    CollectLines pooled;
    {
        CampaignSession session(spec, options);
        const auto outcome =
            session.run(&pool, kPool, pooled);
        EXPECT_EQ(outcome.freshJobs, kJobs);
    }
    std::size_t wide = 0;
    std::size_t narrow = 0;
    for (const auto &slot : seen) {
        if (slot.load() == kPool)
            ++wide;
        else if (slot.load() == 1)
            ++narrow;
    }
    // Exactly the trailing wave's lone job got the whole pool.
    EXPECT_EQ(narrow, kJobs - 1);
    EXPECT_EQ(wide, 1u);

    // And none of it shows in the bytes: inline single-thread run
    // (allowance 1 everywhere) produces the identical stream.
    CollectLines inline_run;
    {
        CampaignSession session(spec, options);
        session.run(nullptr, 1, inline_run);
    }
    EXPECT_EQ(pooled.bytes, inline_run.bytes);
}

/** Records the full (job, line, fresh) stream. */
class RecordStream : public ResultSink
{
  public:
    struct Entry
    {
        std::size_t job;
        std::string line;
        bool fresh;
    };
    void onResult(std::size_t job, const std::string &line,
                  bool fresh) override
    {
        entries.push_back({job, line, fresh});
    }
    std::string bytes() const
    {
        std::string out;
        for (const Entry &e : entries)
            out += e.line + "\n";
        return out;
    }
    std::vector<Entry> entries;
};

/**
 * Satellite contract: checkpoint-restored jobs re-enter the ordered
 * stream without being recomputed, and the wave scheduler plans only
 * over the remaining fresh jobs — including the trailing-wave widening
 * — while the merged output stays byte-identical to an all-fresh run.
 */
TEST(CampaignDeterminism, RestoredJobsInjectIntoOrderedStream)
{
    // 13 equal-cost jobs, 4 restored -> 9 fresh on a 4-thread pool:
    // waves of 4, 4 and 1, the lone trailing job widened to the pool.
    constexpr std::size_t kJobs = 13;
    constexpr std::size_t kPool = 4;
    const std::vector<std::size_t> kRestored{0, 3, 7, 12};
    ExperimentSpec spec;
    spec.name = "restore_witness";
    spec.description = "records which jobs actually run";
    ParamAxis axis;
    axis.name = "p";
    for (std::size_t i = 0; i < kJobs; ++i)
        axis.values.push_back(ParamValue(std::int64_t(1)));
    spec.grid = ParamGrid({axis});
    spec.schema = {{"v", JsonType::Int, "seed echo"}};
    SessionOptions options;
    options.seed = 321;

    std::map<std::uint64_t, std::size_t> seed_to_job;
    {
        CampaignSession probe(spec, options);
        for (std::size_t j = 0; j < probe.totalJobs(); ++j)
            seed_to_job[probe.jobSeedAt(j)] = j;
        ASSERT_EQ(seed_to_job.size(), kJobs);
    }
    std::array<std::atomic<std::size_t>, kJobs> seen{};
    spec.run = [&seen, &seed_to_job](const RunContext &ctx) {
        seen[seed_to_job.at(ctx.seed())].store(ctx.threads());
        JsonValue metrics = JsonValue::object();
        metrics.set("v", JsonValue(static_cast<std::int64_t>(
                             ctx.seed() % 89)));
        return metrics;
    };

    // Reference: everything fresh, inline.
    RecordStream all_fresh;
    std::uint64_t fresh_hash = 0;
    {
        CampaignSession session(spec, options);
        fresh_hash = session.run(nullptr, 1, all_fresh).resultHash;
        ASSERT_EQ(all_fresh.entries.size(), kJobs);
    }
    for (auto &slot : seen)
        slot.store(0);

    // Restored session: inject the checkpoint lines, then run pooled.
    CampaignSession session(spec, options);
    for (const std::size_t job : kRestored)
        EXPECT_TRUE(session.restore(job, all_fresh.entries[job].line));
    // Out-of-range and double restores are rejected.
    EXPECT_FALSE(session.restore(kJobs, "{}"));
    EXPECT_FALSE(session.restore(kRestored[0], "{}"));
    EXPECT_EQ(session.restoredJobs(), kRestored.size());

    common::ThreadPool pool(kPool);
    RecordStream resumed;
    const auto outcome = session.run(&pool, kPool, resumed);
    EXPECT_EQ(outcome.freshJobs, kJobs - kRestored.size());
    EXPECT_EQ(outcome.freshJobSeconds.size(), outcome.freshJobs);
    EXPECT_FALSE(outcome.cancelled);

    // The sink saw every job exactly once, in job order, with the
    // fresh flag cleared exactly on the restored indices.
    ASSERT_EQ(resumed.entries.size(), kJobs);
    for (std::size_t j = 0; j < kJobs; ++j) {
        EXPECT_EQ(resumed.entries[j].job, j);
        const bool restored =
            std::find(kRestored.begin(), kRestored.end(), j) !=
            kRestored.end();
        EXPECT_EQ(resumed.entries[j].fresh, !restored) << "job " << j;
    }

    // Restored jobs were never recomputed; the fresh ones were planned
    // as waves of 4, 4 and 1 with the trailing job widened to the pool.
    std::size_t narrow = 0, wide = 0;
    for (const std::size_t job : kRestored)
        EXPECT_EQ(seen[job].load(), 0u) << "job " << job << " recomputed";
    for (std::size_t j = 0; j < kJobs; ++j) {
        if (seen[j].load() == 1)
            ++narrow;
        else if (seen[j].load() == kPool)
            ++wide;
    }
    EXPECT_EQ(narrow, kJobs - kRestored.size() - 1);
    EXPECT_EQ(wide, 1u);

    // Byte- and hash-identical to the all-fresh stream.
    EXPECT_EQ(resumed.bytes(), all_fresh.bytes());
    EXPECT_EQ(outcome.resultHash, fresh_hash);
}

/**
 * harp_run's integer flags take only a whole decimal token in range:
 * anything else is a usage error (exit 2), never a silent default
 * (`--threads abc` once ran at hardware concurrency, `--seed abc` as
 * seed 0).
 */
TEST(RunnerCli, MalformedIntegerFlagsAreUsageErrors)
{
    const fs::path out =
        fs::temp_directory_path() /
        ("harp_run_cli_" + std::to_string(::getpid()));
    const auto run = [&out](std::vector<std::string> flags) {
        std::vector<std::string> args = {"harp_run", "quickstart",
                                         "--dry-run", "--out",
                                         out.string()};
        args.insert(args.end(), flags.begin(), flags.end());
        std::vector<const char *> argv;
        for (const std::string &arg : args)
            argv.push_back(arg.c_str());
        return runnerMain(static_cast<int>(argv.size()), argv.data());
    };
    EXPECT_EQ(run({"--threads", "4", "--seed", "18446744073709551615",
                   "--repeat", "2"}),
              0);
    EXPECT_EQ(run({"--threads", "abc"}), 2);
    EXPECT_EQ(run({"--threads", "4x"}), 2);
    EXPECT_EQ(run({"--threads", "4097"}), 2);
    EXPECT_EQ(run({"--seed", "abc"}), 2);
    EXPECT_EQ(run({"--seed", "18446744073709551616"}), 2);
    EXPECT_EQ(run({"--repeat", "99999999999999999999"}), 2);
    EXPECT_EQ(run({"--repeat", "0"}), 2);
    fs::remove_all(out);
}

} // namespace
} // namespace harp::runner
