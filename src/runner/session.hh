/**
 * @file
 * Resumable campaign session: one experiment's (point, repeat) job set
 * behind a pluggable result sink.
 *
 * The batch driver (campaign.hh) and the resident daemon (harpd/) share
 * this class so a served campaign is *the same computation* as a batch
 * one — same grid expansion, same per-(name, point, repeat) seed
 * derivation, same line serialization — and therefore byte-identical
 * JSONL for a fixed seed, no matter which front end ran it or how many
 * times it was interrupted and resumed in between.
 *
 * Resumability: completed jobs restored from a checkpoint via restore()
 * are never recomputed; their stored lines re-enter the ordered output
 * stream exactly where a fresh computation would have placed them.
 *
 * Scheduling: remaining jobs run in waves of at most `poolThreads`
 * jobs, longest-expected-first (jobCostKey). The intra-job thread
 * allowance is recomputed per wave — `inner = poolThreads / waveSize` —
 * so a campaign whose trailing jobs run alone widens their intra-job
 * sharding instead of leaving cores idle. A WaveScheduler can override
 * both knobs per wave (harpd's weighted fair governor does, to share
 * one pool across tenants). Output order and bytes are unaffected
 * either way: every job derives its own seed and the sink is fed in
 * strict job order through an OrderedMerger.
 */

#ifndef HARP_RUNNER_SESSION_HH
#define HARP_RUNNER_SESSION_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runner/experiment_spec.hh"

namespace harp::common {
class ThreadPool;
}

namespace harp::runner {

/**
 * Receives result lines in strict job order. Implementations decide
 * where lines go: a vector (batch), a checkpoint file plus a client
 * stream (harpd), or both.
 *
 * onResult may be invoked from pool worker threads (serialized — never
 * concurrently) for fresh results, and from the run() caller for
 * restored ones; it must not assume a particular thread.
 */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /**
     * @param job   0-based job index (point-major, repeat-minor).
     * @param line  The serialized JSONL line (no trailing newline).
     *              Empty when the job threw — run() reports the error
     *              after the stream ends; durable sinks (checkpoints)
     *              must skip empty lines rather than persist them.
     * @param fresh False when the line was restored from a checkpoint
     *              rather than recomputed.
     */
    virtual void onResult(std::size_t job, const std::string &line,
                          bool fresh) = 0;
};

/**
 * Decides the width and intra-job allowance of each wave when several
 * sessions share one pool (harpd's weighted fair governor implements
 * this over common::FairScheduler). next() may block until capacity is
 * granted; returning width 0 aborts the session cooperatively (run()
 * reports cancelled). jobDone() is invoked once per finished wave job,
 * possibly from pool worker threads, so slots free one job at a time
 * rather than one wave at a time.
 *
 * Scheduling never changes campaign bytes: whatever widths a scheduler
 * picks, seeds are per-job and the sink is fed in strict job order.
 */
class WaveScheduler
{
  public:
    virtual ~WaveScheduler() = default;

    struct Wave
    {
        /** Jobs to dispatch this wave; 0 aborts the session. */
        std::size_t width = 1;
        /** Intra-job sharding allowance for each of them. */
        std::size_t innerThreads = 1;
    };

    /** @param remaining Jobs not yet dispatched (> 0). */
    virtual Wave next(std::size_t remaining) = 0;

    /** One wave job finished (any thread). */
    virtual void jobDone() {}
};

/** Inputs shared by every job of a session. */
struct SessionOptions
{
    std::uint64_t seed = 1;
    std::size_t repeat = 1;
    /** Tunable/axis overrides (axis matches collapse the grid; names
     *  the spec does not declare are ignored). */
    std::map<std::string, std::string> overrides;
};

/** Deterministic per-(experiment, point, repeat) seed — the one
 *  derivation batch runs, served runs and resumed runs all share. */
std::uint64_t campaignJobSeed(std::uint64_t campaign_seed,
                              const std::string &experiment,
                              std::size_t point, std::size_t repeat);

class CampaignSession
{
  public:
    /** Expands @p spec's grid (with overrides applied) into the job
     *  list and resolves its tunables: each declared default, replaced
     *  by its override parsed as the default's type. @p spec must
     *  outlive the session.
     *  @throws std::invalid_argument naming the knob when an override
     *          does not parse. */
    CampaignSession(const ExperimentSpec &spec, SessionOptions options);

    const ExperimentSpec &spec() const { return *spec_; }
    const std::vector<ParamPoint> &points() const { return points_; }
    std::size_t repeats() const { return options_.repeat; }
    std::size_t totalJobs() const { return seeds_.size(); }

    /** Point / repeat coordinates and seed of job @p job. */
    std::size_t jobPoint(std::size_t job) const
    {
        return job / options_.repeat;
    }
    std::size_t jobRepeat(std::size_t job) const
    {
        return job % options_.repeat;
    }
    std::uint64_t jobSeedAt(std::size_t job) const { return seeds_[job]; }

    /**
     * Mark @p job completed with checkpoint-restored @p line; run()
     * will emit it instead of recomputing. Returns false (and ignores
     * the line) when @p job is out of range or already restored.
     */
    bool restore(std::size_t job, std::string line);
    std::size_t restoredJobs() const { return restoredCount_; }

    /** What one run() produced. */
    struct Outcome
    {
        /** FNV-1a over every emitted line + '\n', in job order. */
        std::uint64_t resultHash = 0;
        /** Jobs actually computed this run (excludes restored). */
        std::size_t freshJobs = 0;
        /** True when a cancel flag stopped the session early; the sink
         *  saw only a prefix of the stream. */
        bool cancelled = false;
        /** Wall seconds of each fresh job, in job order. */
        std::vector<double> freshJobSeconds;
    };

    /**
     * Run every not-restored job and feed *all* lines (restored +
     * fresh) to @p sink in job order.
     *
     * @param pool        Shared worker pool; nullptr runs inline.
     * @param poolThreads Thread budget: wave width and intra-job
     *                    allowance (0 = hardware concurrency).
     * @param sink        Ordered line consumer.
     * @param cancel      Optional cooperative stop flag, checked at
     *                    wave boundaries and handed to every job's
     *                    RunContext: a long job that polls it stops
     *                    with JobCancelled and is not recorded.
     * @param progress    Optional callback invoked with the cumulative
     *                    completed-job count as jobs finish.
     * @param scheduler   Optional wave-shape override; nullptr keeps
     *                    the default policy (width = poolThreads,
     *                    inner = poolThreads / width).
     * @throws std::runtime_error when a job throws or its metrics fail
     *         schema validation (after the remaining jobs finish).
     */
    Outcome run(common::ThreadPool *pool, std::size_t poolThreads,
                ResultSink &sink, const std::atomic<bool> *cancel = nullptr,
                const std::function<void(std::size_t)> &progress = {},
                WaveScheduler *scheduler = nullptr);

  private:
    const ExperimentSpec *spec_;
    SessionOptions options_;
    std::vector<ParamPoint> points_;
    ParamPoint tunables_;
    std::vector<std::uint64_t> seeds_;
    std::vector<std::string> restoredLines_;
    std::vector<bool> restored_;
    std::size_t restoredCount_ = 0;
};

} // namespace harp::runner

#endif // HARP_RUNNER_SESSION_HH
