#include "runner/campaign.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "common/bits.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "runner/session.hh"

namespace harp::runner {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Batch sink: collect lines in job order for one file write. */
class CollectSink : public ResultSink
{
  public:
    void onResult(std::size_t, const std::string &line, bool) override
    {
        lines_.push_back(line);
    }

    const std::vector<std::string> &lines() const { return lines_; }

  private:
    std::vector<std::string> lines_;
};

} // namespace

double
jobCostKey(const ParamPoint &point)
{
    double cost = 1.0;
    for (const auto &[name, value] : point.entries()) {
        if (value.type() != ParamValue::Type::Int)
            continue;
        const double v = static_cast<double>(value.asInt());
        cost *= std::max(1.0, std::abs(v));
    }
    return cost;
}

std::string
formatResultHash(std::uint64_t hash)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[hash & 0xF];
        hash >>= 4;
    }
    return out;
}

JsonValue
CampaignSummary::toJson(bool include_timings) const
{
    JsonValue doc = JsonValue::object();
    doc.set("schema_version", JsonValue(1));
    JsonValue campaign = JsonValue::object();
    campaign.set("seed", JsonValue(std::to_string(seed)));
    if (include_timings)
        campaign.set("threads", JsonValue(threads));
    campaign.set("repeat", JsonValue(repeat));
    doc.set("campaign", campaign);

    JsonValue list = JsonValue::array();
    for (const ExperimentRunSummary &e : experiments) {
        JsonValue obj = JsonValue::object();
        obj.set("name", JsonValue(e.name));
        obj.set("points", JsonValue(e.points));
        obj.set("repeats", JsonValue(e.repeats));
        obj.set("jsonl",
                JsonValue(include_timings
                              ? e.jsonlPath
                              : std::filesystem::path(e.jsonlPath)
                                    .filename()
                                    .string()));
        obj.set("result_hash", JsonValue(formatResultHash(e.resultHash)));
        if (include_timings) {
            obj.set("wall_seconds", JsonValue(e.wallSeconds));
            obj.set("jobs_per_second", JsonValue(e.jobsPerSecond));
            JsonValue latency = JsonValue::object();
            latency.set("mean", JsonValue(e.jobSecondsMean));
            latency.set("p50", JsonValue(e.jobSecondsP50));
            latency.set("p90", JsonValue(e.jobSecondsP90));
            latency.set("max", JsonValue(e.jobSecondsMax));
            obj.set("job_seconds", latency);
        }
        list.push(std::move(obj));
    }
    doc.set("experiments", list);
    if (include_timings)
        doc.set("total_wall_seconds", JsonValue(totalWallSeconds));
    return doc;
}

CampaignSummary
runCampaign(const std::vector<const ExperimentSpec *> &specs,
            const CampaignOptions &options, std::ostream &log)
{
    CampaignSummary summary;
    summary.seed = options.seed;
    summary.threads = options.threads;
    summary.repeat = options.repeat;

    const std::size_t pool_threads =
        options.threads != 0
            ? options.threads
            : std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const auto campaign_start = Clock::now();

    // One shared pool for the whole campaign; sessions track their own
    // waves with WaitGroups, so the pool is reusable across specs (and,
    // in harpd, across concurrent campaigns).
    std::unique_ptr<common::ThreadPool> pool;
    if (!options.dryRun && pool_threads > 1)
        pool = std::make_unique<common::ThreadPool>(pool_threads);

    // Every session is built, and so every override parsed, before any
    // job runs: a malformed value fails the campaign up front.
    SessionOptions session_options;
    session_options.seed = options.seed;
    session_options.repeat = options.repeat;
    session_options.overrides = options.overrides;
    std::vector<CampaignSession> sessions;
    sessions.reserve(specs.size());
    for (const ExperimentSpec *spec : specs)
        sessions.emplace_back(*spec, session_options);

    for (CampaignSession &session : sessions) {
        const std::string &name = session.spec().name;
        if (options.dryRun) {
            log << name << ": " << session.points().size()
                << " point(s) x " << options.repeat << " repeat(s)\n";
            for (std::size_t j = 0; j < session.totalJobs(); ++j)
                log << "  point " << session.jobPoint(j) << " repeat "
                    << session.jobRepeat(j) << " seed "
                    << session.jobSeedAt(j) << "  ["
                    << session.points()[session.jobPoint(j)].toString()
                    << "]\n";
            continue;
        }

        log << name << ": running " << session.totalJobs()
            << " job(s) on " << pool_threads << " thread(s)..."
            << std::flush;
        const auto start = Clock::now();
        CollectSink sink;
        const CampaignSession::Outcome outcome =
            session.run(pool.get(), pool_threads, sink);

        ExperimentRunSummary exp;
        exp.name = name;
        exp.points = session.points().size();
        exp.repeats = options.repeat;
        exp.wallSeconds = secondsSince(start);
        exp.jobsPerSecond =
            exp.wallSeconds > 0.0
                ? static_cast<double>(session.totalJobs()) /
                      exp.wallSeconds
                : 0.0;

        common::PercentileTracker latency;
        for (const double s : outcome.freshJobSeconds)
            latency.add(s);
        exp.jobSecondsMean = latency.mean();
        exp.jobSecondsP50 = latency.quantile(0.5);
        exp.jobSecondsP90 = latency.quantile(0.9);
        exp.jobSecondsMax = latency.quantile(1.0);
        exp.resultHash = outcome.resultHash;

        std::filesystem::create_directories(options.outDir);
        exp.jsonlPath = (std::filesystem::path(options.outDir) /
                         (name + ".jsonl"))
                            .string();
        {
            std::ofstream out(exp.jsonlPath,
                              std::ios::binary | std::ios::trunc);
            if (!out)
                throw std::runtime_error("cannot write " + exp.jsonlPath);
            for (const std::string &line : sink.lines())
                out << line << '\n';
        }

        log << " done in " << exp.wallSeconds << "s (hash "
            << formatResultHash(exp.resultHash) << ")\n";
        summary.experiments.push_back(std::move(exp));
    }

    summary.totalWallSeconds = secondsSince(campaign_start);
    if (!options.dryRun && !summary.experiments.empty()) {
        std::filesystem::create_directories(options.outDir);
        const std::string path =
            (std::filesystem::path(options.outDir) / "summary.json")
                .string();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out)
            throw std::runtime_error("cannot write " + path);
        out << summary.toJson(!options.noTimings).dump(2) << '\n';
        log << "summary: " << path << "\n";
    }
    return summary;
}

} // namespace harp::runner
