/**
 * @file
 * The common interface every figure/table/extension experiment registers
 * behind: a name, a parameter grid, a set of tunables, a result schema,
 * and a run() callback producing one JSON metrics object per grid point.
 *
 * The campaign driver (campaign.hh) expands the grid, derives one
 * deterministic seed per (experiment, point, repeat) and invokes run()
 * from worker threads — run() must therefore be pure apart from its
 * RunContext inputs: all randomness flows from ctx.seed, never from
 * global state, so a campaign's results are bit-identical regardless of
 * how points are sharded across threads.
 */

#ifndef HARP_RUNNER_EXPERIMENT_SPEC_HH
#define HARP_RUNNER_EXPERIMENT_SPEC_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/json.hh"
#include "runner/param.hh"

namespace harp::runner {

/**
 * Thrown by a job that saw RunContext::cancelled(): the session stops
 * as cancelled and records nothing for the job.
 */
struct JobCancelled : std::runtime_error
{
    JobCancelled() : std::runtime_error("job cancelled") {}
};

/**
 * Everything an experiment's run() callback may depend on for one grid
 * point. A knob resolves to the point's axis value, else to the
 * session's resolved tunable (the declared default or its override).
 * Reading a name that is neither is a spec bug: the getters throw
 * std::logic_error.
 */
class RunContext
{
  public:
    /**
     * @param point     The expanded grid point.
     * @param tunables  The spec's tunables, resolved once per session.
     * @param seed      Deterministic per-(point, repeat) seed.
     * @param threads   Worker-thread allowance for internally parallel
     *                  experiments (1 when the campaign itself shards
     *                  across at least as many jobs as it has threads;
     *                  the leftover pool capacity otherwise — heavy
     *                  single-point runs shard their blocks instead).
     * @param cancel    The session's cooperative stop flag, or nullptr.
     */
    RunContext(const ParamPoint &point, const ParamPoint &tunables,
               std::uint64_t seed, std::size_t threads,
               const std::atomic<bool> *cancel)
        : point_(point), tunables_(tunables), seed_(seed),
          threads_(threads), cancel_(cancel)
    {
    }

    std::uint64_t seed() const { return seed_; }
    std::size_t threads() const { return threads_; }

    /** Whether the session was asked to stop. A long job polls this
     *  at a coarse stride and throws JobCancelled when it is set. */
    bool cancelled() const
    {
        return cancel_ != nullptr &&
               cancel_->load(std::memory_order_relaxed);
    }

    /** Integer knob. */
    std::int64_t getInt(const std::string &name) const;
    /** Integer knob that sizes something (words, rounds, chips, ...).
     *  @throws std::invalid_argument naming the knob when negative. */
    std::size_t getCount(const std::string &name) const;
    /** Floating-point knob; Int values convert. */
    double getDouble(const std::string &name) const;
    /** String knob. */
    const std::string &getString(const std::string &name) const;

  private:
    const ParamValue &value(const std::string &name) const;

    const ParamPoint &point_;
    const ParamPoint &tunables_;
    std::uint64_t seed_;
    std::size_t threads_;
    const std::atomic<bool> *cancel_;
};

/** One declared top-level field of an experiment's metrics object. */
struct FieldSpec
{
    std::string name;
    JsonType type = JsonType::Double;
    std::string description;
};

/** One documented non-axis knob (scale parameters like words/rounds):
 *  the one place its default and type are declared. An override is
 *  parsed as the default's type. */
struct TunableSpec
{
    std::string name;
    ParamValue defaultValue;
    std::string description;
};

/**
 * One registered experiment: a named, self-describing unit the
 * campaign driver can list, dry-run, shard and validate.
 */
struct ExperimentSpec
{
    /** Unique registry key, e.g. "fig06_direct_coverage". */
    std::string name;
    /** One-line summary shown by `harp_run --list`. */
    std::string description;
    /** Selector labels ("bench", "figure", "table", "ablation",
     *  "extension", "example"). */
    std::vector<std::string> labels;
    /** Default sweep; axes may be collapsed from the command line. */
    ParamGrid grid;
    /** Documented tunables read through RunContext getters. */
    std::vector<TunableSpec> tunables;
    /** Declared top-level fields of the metrics object. */
    std::vector<FieldSpec> schema;
    /** Compute the metrics object for one grid point. */
    std::function<JsonValue(const RunContext &)> run;

    bool hasLabel(const std::string &label) const;
};

/**
 * Validate @p metrics against @p schema: it must be an object, every
 * declared field must be present with the declared type (null is
 * allowed for optional/not-applicable values, and Int satisfies
 * Double), and no undeclared field may appear.
 *
 * @return std::nullopt on success, else a human-readable error.
 */
std::optional<std::string>
validateSchema(const std::vector<FieldSpec> &schema,
               const JsonValue &metrics);

/** Schema rendered as a JSON object {field: type-name, ...}. */
JsonValue schemaToJson(const std::vector<FieldSpec> &schema);

/** Whether @p name is an axis or tunable of at least one of @p specs:
 *  the overrides a campaign of them accepts. */
bool acceptsOverride(const std::vector<const ExperimentSpec *> &specs,
                     const std::string &name);

} // namespace harp::runner

#endif // HARP_RUNNER_EXPERIMENT_SPEC_HH
