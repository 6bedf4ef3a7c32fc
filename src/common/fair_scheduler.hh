/**
 * @file
 * Weighted fair slot governor for campaigns multiplexed onto one
 * shared ThreadPool.
 *
 * The pool itself stays FIFO; fairness lives one level up. Each
 * campaign enrolls under its tenant and must acquire() a grant of
 * 1..want slots before dispatching a wave of jobs, then releaseOne()
 * per finished job. Tenants are picked by stride scheduling: every
 * tenant carries a virtual-time "pass" that advances by
 * stride1 / (weight x class boost) per granted slot, and the pending
 * tenant with the smallest pass is served first. That yields
 * proportional-share throughput (completed-slot shares converge to the
 * weight ratio), bounded latency for freshly arriving tenants (their
 * pass is clamped to the current virtual time, so a saturating
 * background sweep cannot push an interactive request arbitrarily far
 * into the future), and starvation-freedom (a waiting tenant's pass is
 * frozen while everyone else's advances, so it eventually becomes the
 * minimum).
 *
 * Brownout, step one: while more than one tenant is active, grants are
 * capped at the tenant's weighted fair share of the pool, and
 * Background-class campaigns are narrowed harder — at most half their
 * fair share, with intra-job sharding forced to 1 — so interactive
 * work feels contention last. A solo tenant keeps the whole pool and
 * the batch runner's trailing-wave widening (inner = slots / width).
 *
 * Determinism note: the governor decides only *when* and *how wide*
 * each campaign's next wave runs. Per-campaign output bytes are pinned
 * by per-(name, point, repeat) seed derivation and the OrderedMerger,
 * so any interleaving the governor produces yields byte-identical
 * campaign results.
 */

#ifndef HARP_COMMON_FAIR_SCHEDULER_HH
#define HARP_COMMON_FAIR_SCHEDULER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace harp::common {

/** Service class of a campaign; scales the tenant's effective weight
 *  while that campaign runs and selects the brownout ladder rung. */
enum class PriorityClass
{
    Interactive,
    Normal,
    Background,
};

const char *priorityClassName(PriorityClass cls);
std::optional<PriorityClass> parsePriorityClass(const std::string &name);

class FairScheduler
{
  public:
    struct Config
    {
        /** Pool capacity: max slots granted and not yet released. */
        std::size_t slots = 1;
    };

    struct Grant
    {
        /** Slots granted; 0 only when acquire() aborted. */
        std::size_t width = 0;
        /** Intra-job sharding allowance per granted job. */
        std::size_t innerThreads = 1;
        /** True when other tenants were active, i.e. the grant was
         *  capped at a fair share instead of the whole pool. */
        bool contended = false;
    };

    explicit FairScheduler(Config config);

    /**
     * Register one campaign under @p tenant (weight >= 1 enforced).
     * Returns the entity id used by acquire/releaseOne/leave. Entities
     * of one tenant are served FIFO among themselves.
     */
    std::uint64_t enroll(const std::string &tenant, std::size_t weight,
                         PriorityClass cls);

    /** Unregister; outstanding slots (if any) are force-released. */
    void leave(std::uint64_t id);

    /**
     * Block until this entity is the stride-chosen head and at least
     * one slot is free, then grant min(want, free, brownout cap)
     * slots. Returns width 0 without granting when @p abort becomes
     * true (checked continuously) or @p want is 0.
     */
    Grant acquire(std::uint64_t id, std::size_t want,
                  const std::atomic<bool> *abort = nullptr);

    /** Return one slot of an outstanding grant to the pool. */
    void releaseOne(std::uint64_t id);

    /** Slots granted and not yet released. */
    std::size_t slotsInUse() const;

    /** Total acquire() grants issued — a logical clock for latency
     *  bounds in tests ("served within K grants of arrival"). */
    std::uint64_t grantCount() const;

    /** One acquire() grant as the grant log keeps it. */
    struct GrantRecord
    {
        std::string tenant;
        /** Slots granted (the grant's width). */
        std::size_t slots = 0;
        /** Virtual time right after the grant. */
        std::uint64_t virtualTime = 0;
        /** Tenants with an enrolled campaign when it was granted. */
        std::size_t tenants = 0;
    };

    /** Grants the log keeps; older ones are dropped. */
    static constexpr std::size_t kGrantLogSize = 1024;

    /**
     * The last kGrantLogSize grants, oldest first. Shares measured on
     * it count slots in grant order, so a fairness check does not
     * depend on how long anything took.
     */
    std::vector<GrantRecord> grantLog() const;

  private:
    struct Tenant
    {
        std::size_t weight = 1;
        std::uint64_t pass = 0;
        std::size_t entities = 0;
        std::size_t slotsHeld = 0;
        std::size_t waiting = 0;
    };
    struct Entity
    {
        std::string tenant;
        PriorityClass cls = PriorityClass::Normal;
        std::size_t outstanding = 0;
        bool waiting = false;
        std::uint64_t ticket = 0; // FIFO order within the tenant
    };

    /** Entity id the stride rule serves next; 0 when none waiting. */
    std::uint64_t chooseLocked() const;

    Config config_;
    mutable std::mutex mutex_;
    std::condition_variable slotFreed_;
    std::map<std::string, Tenant> tenants_;
    std::map<std::uint64_t, Entity> entities_;
    std::size_t freeSlots_;
    std::uint64_t nextId_ = 1;
    std::uint64_t nextTicket_ = 1;
    std::uint64_t virtualTime_ = 0;
    std::uint64_t grants_ = 0;
    std::deque<GrantRecord> grantLog_;
};

} // namespace harp::common

#endif // HARP_COMMON_FAIR_SCHEDULER_HH
