#include "runner/session.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/bits.hh"
#include "common/ordered_merger.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "runner/campaign.hh"

namespace harp::runner {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** @p parse with its std::invalid_argument prefixed by the knob. */
template <typename Parse>
auto
parseOverride(const std::string &name, Parse parse)
{
    try {
        return parse();
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(name + ": " + e.what());
    }
}

} // namespace

std::uint64_t
campaignJobSeed(std::uint64_t campaign_seed, const std::string &experiment,
                std::size_t point, std::size_t repeat)
{
    // Salt with the experiment name so campaigns are insensitive to
    // registration/selection order, then with the job coordinates so
    // every job owns an independent stream.
    return common::deriveSeed(campaign_seed,
                              {common::fnv1a64(experiment), point, repeat});
}

CampaignSession::CampaignSession(const ExperimentSpec &spec,
                                 SessionOptions options)
    : spec_(&spec), options_(std::move(options))
{
    if (options_.repeat == 0)
        options_.repeat = 1;
    ParamGrid grid = spec.grid;
    for (const auto &[name, text] : options_.overrides) {
        if (grid.findAxis(name) != nullptr)
            grid = parseOverride(
                name, [&] { return grid.collapsed(name, text); });
    }
    points_ = grid.expand();
    for (const TunableSpec &t : spec.tunables) {
        const auto it = options_.overrides.find(t.name);
        tunables_.add(t.name,
                      it == options_.overrides.end()
                          ? t.defaultValue
                          : parseOverride(t.name, [&] {
                                return t.defaultValue.parseSameType(
                                    it->second);
                            }));
    }
    seeds_.reserve(points_.size() * options_.repeat);
    for (std::size_t p = 0; p < points_.size(); ++p)
        for (std::size_t r = 0; r < options_.repeat; ++r)
            seeds_.push_back(
                campaignJobSeed(options_.seed, spec.name, p, r));
    restoredLines_.resize(seeds_.size());
    restored_.assign(seeds_.size(), false);
}

bool
CampaignSession::restore(std::size_t job, std::string line)
{
    if (job >= seeds_.size() || restored_[job])
        return false;
    restoredLines_[job] = std::move(line);
    restored_[job] = true;
    ++restoredCount_;
    return true;
}

CampaignSession::Outcome
CampaignSession::run(common::ThreadPool *pool, std::size_t poolThreads,
                     ResultSink &sink, const std::atomic<bool> *cancel,
                     const std::function<void(std::size_t)> &progress,
                     WaveScheduler *scheduler)
{
    if (poolThreads == 0) {
        poolThreads =
            std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }

    Outcome outcome;
    const std::size_t total = seeds_.size();
    std::vector<std::string> errors(total);
    std::vector<double> job_seconds(total, 0.0);
    std::atomic<std::size_t> completed{restoredCount_};

    // Every line — restored or fresh — funnels through the merger so
    // the sink observes strict job order; the hash accumulates in the
    // same pass. Merge callbacks are serialized under the merger lock.
    struct Payload
    {
        const std::string *line;
        bool fresh;
    };
    common::OrderedMerger<Payload> merger(total);
    std::size_t delivered = 0;
    std::uint64_t hash = common::fnv1a64Init;
    const auto merge = [&](const Payload &p) {
        hash = common::fnv1a64(*p.line, hash);
        hash = common::fnv1a64("\n", hash);
        sink.onResult(delivered++, *p.line, p.fresh);
    };

    std::vector<std::string> freshLines(total);
    // Set by a job that stopped on the cancel flag; that job never
    // reaches the merger, so the sink sees only the prefix before it.
    std::atomic<bool> job_cancelled{false};
    const auto runOne = [&](std::size_t j, std::size_t inner_threads) {
        const auto start = Clock::now();
        try {
            const RunContext ctx(points_[jobPoint(j)], tunables_,
                                 seeds_[j], inner_threads, cancel);
            const JsonValue metrics = spec_->run(ctx);
            if (const auto error = validateSchema(spec_->schema, metrics))
                throw std::runtime_error("schema violation: " + *error);
            JsonValue line = JsonValue::object();
            line.set("experiment", JsonValue(spec_->name));
            line.set("point", JsonValue(jobPoint(j)));
            line.set("repeat", JsonValue(jobRepeat(j)));
            line.set("seed", JsonValue(std::to_string(seeds_[j])));
            line.set("params", points_[jobPoint(j)].toJson());
            line.set("metrics", metrics);
            freshLines[j] = line.dump();
        } catch (const JobCancelled &) {
            job_cancelled.store(true);
            return false;
        } catch (const std::exception &e) {
            errors[j] = e.what();
        }
        job_seconds[j] = secondsSince(start);
        merger.deposit(j, Payload{&freshLines[j], true}, merge);
        return true;
    };

    // Restored jobs enter the merger first: a contiguous restored
    // prefix streams to the sink immediately; interior restored jobs
    // wait for the fresh jobs filling the gaps before them.
    for (std::size_t j = 0; j < total; ++j) {
        if (restored_[j])
            merger.deposit(j, Payload{&restoredLines_[j], false}, merge);
    }
    if (progress && restoredCount_ > 0)
        progress(restoredCount_);

    // Remaining jobs, longest-expected-first (stable on the cost key)
    // so a heavy grid point never starts last and stretches the tail.
    std::vector<std::size_t> remaining;
    remaining.reserve(total - restoredCount_);
    for (std::size_t j = 0; j < total; ++j) {
        if (!restored_[j])
            remaining.push_back(j);
    }
    std::vector<double> cost(total, 0.0);
    for (const std::size_t j : remaining)
        cost[j] = jobCostKey(points_[jobPoint(j)]);
    std::stable_sort(remaining.begin(), remaining.end(),
                     [&cost](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });

    // Wave scheduler: at most poolThreads jobs per wave, and the
    // intra-job allowance recomputed per wave from the jobs actually
    // in flight — trailing waves narrower than the pool hand the idle
    // capacity *into* their jobs as intra-job sharding width.
    std::size_t next = 0;
    while (next < remaining.size()) {
        if (cancel != nullptr &&
            cancel->load(std::memory_order_relaxed)) {
            outcome.cancelled = true;
            break;
        }
        const std::size_t rest = remaining.size() - next;
        std::size_t wave;
        std::size_t inner_threads;
        if (scheduler != nullptr) {
            // The governor may block here until the shared pool has
            // capacity for this session, and aborts with width 0 (the
            // session then reports cancelled, like a cancel flag).
            const WaveScheduler::Wave plan = scheduler->next(rest);
            if (plan.width == 0) {
                outcome.cancelled = true;
                break;
            }
            wave = std::min(plan.width, rest);
            inner_threads = std::max<std::size_t>(1, plan.innerThreads);
        } else {
            wave = std::min(poolThreads, rest);
            inner_threads = std::max<std::size_t>(1, poolThreads / wave);
        }
        const auto finishOne = [&](bool finished) {
            if (progress && finished)
                progress(completed.fetch_add(1) + 1);
            if (scheduler != nullptr)
                scheduler->jobDone();
        };
        if (pool == nullptr || poolThreads <= 1 || wave <= 1) {
            for (std::size_t w = 0; w < wave; ++w)
                finishOne(runOne(remaining[next + w], inner_threads));
        } else {
            common::WaitGroup wg;
            wg.add(wave);
            for (std::size_t w = 0; w < wave; ++w) {
                const std::size_t j = remaining[next + w];
                pool->submit([&, j, inner_threads] {
                    finishOne(runOne(j, inner_threads));
                    wg.done();
                });
            }
            wg.wait();
        }
        next += wave;
        if (job_cancelled.load()) {
            outcome.cancelled = true;
            break;
        }
    }

    for (std::size_t j = 0; j < total && !outcome.cancelled; ++j) {
        if (!errors[j].empty())
            throw std::runtime_error(
                spec_->name + " [" + points_[jobPoint(j)].toString() +
                " repeat=" + std::to_string(jobRepeat(j)) +
                "]: " + errors[j]);
    }

    outcome.resultHash = hash;
    outcome.freshJobs = next;
    outcome.freshJobSeconds.reserve(next);
    for (std::size_t w = 0; w < next; ++w)
        outcome.freshJobSeconds.push_back(job_seconds[remaining[w]]);
    return outcome;
}

} // namespace harp::runner
