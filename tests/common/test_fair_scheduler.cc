/**
 * @file
 * The weighted fair slot governor: solo tenants keep the whole pool
 * (batch-style trailing widening), contended grants are capped at the
 * weighted fair share with Background narrowed first, completed-slot
 * shares converge to the configured 3:1:1 weights, a saturating heavy
 * tenant cannot starve a light one, a freshly arriving interactive
 * tenant is served within a bounded number of grants, and abort/leave
 * unwind cleanly without leaking slots.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/fair_scheduler.hh"

namespace harp::common {
namespace {

TEST(PriorityClassTest, NamesRoundTrip)
{
    for (const PriorityClass cls :
         {PriorityClass::Interactive, PriorityClass::Normal,
          PriorityClass::Background}) {
        const auto parsed = parsePriorityClass(priorityClassName(cls));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, cls);
    }
    EXPECT_FALSE(parsePriorityClass("urgent").has_value());
    EXPECT_FALSE(parsePriorityClass("").has_value());
    EXPECT_FALSE(parsePriorityClass("Normal").has_value())
        << "class names are case-sensitive wire tokens";
}

TEST(FairSchedulerTest, SoloTenantKeepsPoolAndWidensTrailingWaves)
{
    FairScheduler::Config config;
    config.slots = 8;
    FairScheduler fair(config);
    const std::uint64_t id =
        fair.enroll("only", 1, PriorityClass::Normal);

    // Full wave: whole pool, no intra-job sharding.
    FairScheduler::Grant grant = fair.acquire(id, 8);
    EXPECT_EQ(grant.width, 8u);
    EXPECT_EQ(grant.innerThreads, 1u);
    EXPECT_FALSE(grant.contended);
    EXPECT_EQ(fair.slotsInUse(), 8u);
    for (int i = 0; i < 8; ++i)
        fair.releaseOne(id);
    EXPECT_EQ(fair.slotsInUse(), 0u);

    // Trailing wave of 2 jobs on an 8-slot pool: each job may shard
    // 4 ways — exactly the batch runner's remainder widening.
    grant = fair.acquire(id, 2);
    EXPECT_EQ(grant.width, 2u);
    EXPECT_EQ(grant.innerThreads, 4u);
    EXPECT_FALSE(grant.contended);
    fair.releaseOne(id);
    fair.releaseOne(id);
    fair.leave(id);
}

TEST(FairSchedulerTest, BrownoutCapsSharesAndNarrowsBackgroundFirst)
{
    FairScheduler::Config config;
    config.slots = 8;
    FairScheduler fair(config);
    const std::uint64_t fg =
        fair.enroll("fg", 1, PriorityClass::Normal);
    const std::uint64_t bg =
        fair.enroll("bg", 1, PriorityClass::Background);

    // fg saturates the pool alone (bg enrolled but inactive: a tenant
    // only counts as active once it waits or holds slots).
    FairScheduler::Grant held = fair.acquire(fg, 8);
    ASSERT_EQ(held.width, 8u);
    EXPECT_FALSE(held.contended);
    for (int i = 0; i < 4; ++i)
        fair.releaseOne(fg);

    // Background under contention: fair share is 8*1/2 = 4, the
    // Background rung halves it and forbids intra-job sharding.
    const FairScheduler::Grant squeezed = fair.acquire(bg, 8);
    EXPECT_TRUE(squeezed.contended);
    EXPECT_EQ(squeezed.width, 2u);
    EXPECT_EQ(squeezed.innerThreads, 1u);

    // Normal under the same contention: capped at the full share, and
    // a narrow wave keeps the share as sharding allowance.
    const FairScheduler::Grant capped = fair.acquire(fg, 4);
    EXPECT_TRUE(capped.contended);
    EXPECT_EQ(capped.width, 2u); // min(want 4, free 2, share 4)
    EXPECT_EQ(capped.innerThreads, 2u); // share 4 / width 2

    fair.leave(fg);
    fair.leave(bg);
    EXPECT_EQ(fair.slotsInUse(), 0u) << "leave() force-releases";
}

/** Saturating acquire/release loop; returns slots granted to it.
 *  Spins on the start latch so every contender enters the arena
 *  together — without it a fast thread can drain the whole grant
 *  budget before the others have even been scheduled. */
std::size_t
grind(FairScheduler &fair, std::uint64_t id,
      std::atomic<std::size_t> &total, std::size_t stopAt,
      std::atomic<bool> &stop, std::atomic<int> &latch)
{
    latch.fetch_sub(1);
    while (latch.load() > 0)
        std::this_thread::yield();
    std::size_t mine = 0;
    while (!stop.load()) {
        const FairScheduler::Grant grant = fair.acquire(id, 1, &stop);
        if (grant.width == 0)
            break;
        ++mine;
        if (total.fetch_add(grant.width) + grant.width >= stopAt)
            stop.store(true);
        // "Do the job" while holding the slot. The duration matters:
        // with a zero-length hold every thread churns in the wakeup
        // pipeline and slots rotate to whichever waiter happens to win
        // the mutex — an artifact real waves (which run jobs for
        // milliseconds) never exhibit. A real hold lets the pool
        // quiesce, so releasers re-register before sleeping waiters
        // wake and the stride gate decides every grant.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        fair.releaseOne(id);
    }
    return mine;
}

TEST(FairSchedulerTest, WeightedSharesConvergeToThreeOneOne)
{
    // Two saturating campaigns (entities) per tenant on a 2-slot pool:
    // at every release several waiters spanning all three tenants are
    // registered, so the stride choice — not work-conserving handoff
    // to a lone waiter — decides every grant. That is the overloaded
    // daemon's regime, where fairness must hold.
    FairScheduler::Config config;
    config.slots = 2;
    FairScheduler fair(config);
    const char *names[3] = {"heavy", "light1", "light2"};
    const std::size_t weights[3] = {3, 1, 1};
    std::uint64_t ids[6];
    for (int i = 0; i < 6; ++i)
        ids[i] = fair.enroll(names[i / 2], weights[i / 2],
                             PriorityClass::Normal);

    constexpr std::size_t kTarget = 2000;
    std::atomic<std::size_t> total{0};
    std::atomic<bool> stop{false};
    std::atomic<int> latch{6};
    std::size_t counts[6] = {};
    std::vector<std::thread> threads;
    for (int i = 0; i < 6; ++i)
        threads.emplace_back([&, i] {
            counts[i] =
                grind(fair, ids[i], total, kTarget, stop, latch);
        });
    for (std::thread &thread : threads)
        thread.join();

    double byTenant[3] = {};
    for (int i = 0; i < 6; ++i)
        byTenant[i / 2] += static_cast<double>(counts[i]);
    const double sum = byTenant[0] + byTenant[1] + byTenant[2];
    ASSERT_GE(sum, static_cast<double>(kTarget));
    // Expected 3/5 with a +-10% absolute acceptance band (the issue's
    // fairness tolerance); stride scheduling converges much tighter,
    // the slack absorbs CI thread-scheduling noise.
    EXPECT_NEAR(byTenant[0] / sum, 0.6, 0.10)
        << byTenant[0] << " / " << byTenant[1] << " / " << byTenant[2];
    EXPECT_NEAR(byTenant[1] / sum, 0.2, 0.10);
    EXPECT_NEAR(byTenant[2] / sum, 0.2, 0.10);

    for (const std::uint64_t id : ids)
        fair.leave(id);
}

TEST(FairSchedulerTest, HeavySaturatorCannotStarveLightTenant)
{
    // Same multi-entity regime as the convergence test: three
    // campaigns per tenant keep a rival registered at every decision
    // (with only two, the bully's entities can both be mid-hold when a
    // slot frees, and work-conserving handoff serves the meek tenant
    // far above its share), so the weight-100 bully genuinely
    // outcompetes the meek tenant at the stride gate.
    FairScheduler::Config config;
    config.slots = 2;
    FairScheduler fair(config);
    std::uint64_t bully[3];
    std::uint64_t meek[3];
    for (int i = 0; i < 3; ++i) {
        bully[i] = fair.enroll("bully", 100, PriorityClass::Normal);
        meek[i] = fair.enroll("meek", 1, PriorityClass::Background);
    }

    constexpr std::size_t kTarget = 1200;
    std::atomic<std::size_t> total{0};
    std::atomic<bool> stop{false};
    std::atomic<int> latch{6};
    std::size_t bullyCount[3] = {};
    std::size_t meekCount[3] = {};
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
        threads.emplace_back([&, i] {
            bullyCount[i] =
                grind(fair, bully[i], total, kTarget, stop, latch);
        });
        threads.emplace_back([&, i] {
            meekCount[i] =
                grind(fair, meek[i], total, kTarget, stop, latch);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    // Effective rates are weight x class boost: 100x4 vs 1x1. The meek
    // tenant's share of 1200 grants is a handful — but never zero: its
    // banked pass eventually undercuts the bully's ever-advancing one.
    // Starvation would leave it at 0.
    const std::size_t meekTotal =
        meekCount[0] + meekCount[1] + meekCount[2];
    const std::size_t bullyTotal =
        bullyCount[0] + bullyCount[1] + bullyCount[2];
    EXPECT_GT(meekTotal, 0u);
    EXPECT_GT(bullyTotal, meekTotal * 10)
        << "weights should still dominate: " << bullyTotal << " vs "
        << meekTotal;

    for (int i = 0; i < 3; ++i) {
        fair.leave(bully[i]);
        fair.leave(meek[i]);
    }
}

TEST(FairSchedulerTest, ArrivingInteractiveServedWithinBoundedGrants)
{
    FairScheduler::Config config;
    config.slots = 2;
    FairScheduler fair(config);
    const std::uint64_t sweep =
        fair.enroll("sweep", 4, PriorityClass::Background);

    // A background sweep saturates the pool and banks a long history.
    std::atomic<std::size_t> total{0};
    std::atomic<bool> stop{false};
    std::atomic<int> latch{1};
    std::thread sweeper([&] {
        grind(fair, sweep, total, /*stopAt=*/1u << 30, stop, latch);
    });
    while (fair.grantCount() < 200)
        std::this_thread::yield();

    // An interactive request arriving now must not wait out the
    // sweep's virtual-time lead: its pass is clamped to "now", so it
    // is the stride minimum as soon as a slot frees. Bound the wait in
    // grants — the scheduler's own logical clock — not wall time.
    const std::uint64_t ui =
        fair.enroll("ui", 1, PriorityClass::Interactive);
    const std::uint64_t before = fair.grantCount();
    const FairScheduler::Grant grant = fair.acquire(ui, 1);
    const std::uint64_t after = fair.grantCount();
    EXPECT_EQ(grant.width, 1u);
    // Exact bound is slots + epsilon; 16 absorbs sanitizer-slowed
    // preemption between reading the clock and joining the wait. An
    // inversion (waiting out the sweep's banked lead) would be
    // hundreds of grants.
    EXPECT_LE(after - before, 16u)
        << "priority inversion: the arrival waited behind the sweep";
    fair.releaseOne(ui);
    fair.leave(ui);

    stop.store(true);
    sweeper.join();
    fair.leave(sweep);
}

TEST(FairSchedulerTest, AbortAndZeroWantNeverGrant)
{
    FairScheduler::Config config;
    config.slots = 1;
    FairScheduler fair(config);
    const std::uint64_t holder =
        fair.enroll("holder", 1, PriorityClass::Normal);
    const std::uint64_t blocked =
        fair.enroll("blocked", 1, PriorityClass::Normal);

    EXPECT_EQ(fair.acquire(holder, 0).width, 0u) << "want 0 is a no-op";
    ASSERT_EQ(fair.acquire(holder, 1).width, 1u);

    // A waiter whose abort flag flips returns empty-handed (width 0)
    // without consuming the slot it never got.
    std::atomic<bool> abort{false};
    FairScheduler::Grant got;
    std::thread waiter(
        [&] { got = fair.acquire(blocked, 1, &abort); });
    abort.store(true);
    waiter.join();
    EXPECT_EQ(got.width, 0u);
    EXPECT_EQ(fair.slotsInUse(), 1u);

    // Pre-flipped abort short-circuits even when a slot is free.
    fair.releaseOne(holder);
    EXPECT_EQ(fair.acquire(blocked, 1, &abort).width, 0u);
    EXPECT_EQ(fair.slotsInUse(), 0u);
    fair.leave(holder);
    fair.leave(blocked);
}

/** The grant log holds one record per grant, oldest first — tenant,
 *  width, the virtual time after it and the enrolled tenant count —
 *  and keeps only the last kGrantLogSize grants. */
TEST(FairSchedulerTest, GrantLogRecordsGrantsInOrderAndStaysBounded)
{
    FairScheduler::Config config;
    config.slots = 2;
    FairScheduler fair(config);
    const std::uint64_t a = fair.enroll("a", 3, PriorityClass::Normal);
    EXPECT_TRUE(fair.grantLog().empty());
    ASSERT_EQ(fair.acquire(a, 2).width, 2u);
    const std::uint64_t b = fair.enroll("b", 1, PriorityClass::Normal);
    fair.releaseOne(a);
    ASSERT_EQ(fair.acquire(b, 1).width, 1u);

    auto log = fair.grantLog();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].tenant, "a");
    EXPECT_EQ(log[0].slots, 2u);
    EXPECT_EQ(log[0].tenants, 1u);
    EXPECT_EQ(log[1].tenant, "b");
    EXPECT_EQ(log[1].slots, 1u);
    EXPECT_EQ(log[1].tenants, 2u);
    EXPECT_GT(log[0].virtualTime, 0u);
    EXPECT_LE(log[0].virtualTime, log[1].virtualTime);

    fair.releaseOne(a);
    fair.releaseOne(b);
    const std::size_t extra = FairScheduler::kGrantLogSize + 5;
    for (std::size_t i = 0; i < extra; ++i) {
        ASSERT_EQ(fair.acquire(b, 1).width, 1u);
        fair.releaseOne(b);
    }
    log = fair.grantLog();
    EXPECT_EQ(log.size(), FairScheduler::kGrantLogSize);
    EXPECT_EQ(fair.grantCount(), extra + 2);
    for (const FairScheduler::GrantRecord &record : log)
        EXPECT_EQ(record.tenant, "b");
    fair.leave(a);
    fair.leave(b);
}

/** Virtual time is the minimum pass over active tenants, not the pass
 *  of the tenant just granted. A weight-1 tenant's slot costs 100x the
 *  stride of a weight-100 tenant's, and granting it must not move the
 *  clock while the heavy tenant, with the lower pass, holds a slot.
 *  Otherwise every tenant returning from idle would be charged for the
 *  light tenant's stride. */
TEST(FairSchedulerTest, LowWeightGrantDoesNotAdvanceVirtualTime)
{
    FairScheduler::Config config;
    config.slots = 2;
    FairScheduler fair(config);
    const std::uint64_t heavy =
        fair.enroll("heavy", 100, PriorityClass::Normal);
    const std::uint64_t light =
        fair.enroll("light", 1, PriorityClass::Normal);
    ASSERT_EQ(fair.acquire(heavy, 1).width, 1u);
    ASSERT_EQ(fair.acquire(light, 1).width, 1u);
    const auto log = fair.grantLog();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_GT(log[0].virtualTime, 0u);
    EXPECT_EQ(log[1].virtualTime, log[0].virtualTime);
    fair.leave(heavy);
    fair.leave(light);
}

} // namespace
} // namespace harp::common
