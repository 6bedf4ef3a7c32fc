#include "common/fair_scheduler.hh"

#include <algorithm>
#include <chrono>
#include <tuple>

namespace harp::common {

namespace {

/** Virtual-time quantum; one slot costs stride1 / effective weight. */
constexpr std::uint64_t stride1 = 1ull << 20;

/** Lower rank is served first on a virtual-time tie. */
std::size_t
classRank(PriorityClass cls)
{
    switch (cls) {
    case PriorityClass::Interactive: return 0;
    case PriorityClass::Normal: return 1;
    case PriorityClass::Background: return 2;
    }
    return 1;
}

/** Multiplier on the tenant weight while a campaign of @p cls runs. */
std::size_t
classBoost(PriorityClass cls)
{
    switch (cls) {
    case PriorityClass::Interactive: return 16;
    case PriorityClass::Normal: return 4;
    case PriorityClass::Background: return 1;
    }
    return 4;
}

} // namespace

const char *
priorityClassName(PriorityClass cls)
{
    switch (cls) {
    case PriorityClass::Interactive: return "interactive";
    case PriorityClass::Normal: return "normal";
    case PriorityClass::Background: return "background";
    }
    return "normal";
}

std::optional<PriorityClass>
parsePriorityClass(const std::string &name)
{
    if (name == "interactive")
        return PriorityClass::Interactive;
    if (name == "normal")
        return PriorityClass::Normal;
    if (name == "background")
        return PriorityClass::Background;
    return std::nullopt;
}

FairScheduler::FairScheduler(Config config) : config_(config)
{
    if (config_.slots == 0)
        config_.slots = 1;
    freeSlots_ = config_.slots;
}

std::uint64_t
FairScheduler::enroll(const std::string &tenant, std::size_t weight,
                      PriorityClass cls)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant &t = tenants_[tenant];
    if (t.entities == 0)
        t.weight = std::max<std::size_t>(1, weight);
    ++t.entities;
    const std::uint64_t id = nextId_++;
    Entity entity;
    entity.tenant = tenant;
    entity.cls = cls;
    entities_.emplace(id, std::move(entity));
    return id;
}

void
FairScheduler::leave(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entities_.find(id);
    if (it == entities_.end())
        return;
    Entity &e = it->second;
    const auto tit = tenants_.find(e.tenant);
    if (tit != tenants_.end()) {
        Tenant &t = tit->second;
        if (e.waiting && t.waiting > 0)
            --t.waiting;
        t.slotsHeld -= std::min(t.slotsHeld, e.outstanding);
        if (t.entities > 0)
            --t.entities;
        if (t.entities == 0)
            tenants_.erase(tit);
    }
    freeSlots_ = std::min(config_.slots, freeSlots_ + e.outstanding);
    entities_.erase(it);
    slotFreed_.notify_all();
}

std::uint64_t
FairScheduler::chooseLocked() const
{
    std::uint64_t best = 0;
    std::tuple<std::uint64_t, std::size_t, std::uint64_t> bestKey{};
    for (const auto &[id, e] : entities_) {
        if (!e.waiting)
            continue;
        const auto tit = tenants_.find(e.tenant);
        const std::uint64_t pass =
            tit == tenants_.end() ? 0 : tit->second.pass;
        // Min virtual time wins; ties fall to the better service class,
        // then to global arrival order — all deterministic.
        const auto key = std::make_tuple(pass, classRank(e.cls), e.ticket);
        if (best == 0 || key < bestKey) {
            best = id;
            bestKey = key;
        }
    }
    return best;
}

FairScheduler::Grant
FairScheduler::acquire(std::uint64_t id, std::size_t want,
                       const std::atomic<bool> *abort)
{
    Grant grant;
    if (want == 0)
        return grant;
    // A cancelled waver must never be granted fresh slots, even when
    // the pool is idle and the grant would be immediate.
    if (abort != nullptr && abort->load(std::memory_order_relaxed))
        return grant;
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = entities_.find(id);
    if (it == entities_.end())
        return grant;
    Entity &e = it->second;
    Tenant &t = tenants_[e.tenant];

    // A tenant coming back from idle starts at the current virtual
    // time: it neither owes history (unbounded wait) nor banks credit
    // from its idle period (unbounded burst).
    if (t.waiting == 0 && t.slotsHeld == 0)
        t.pass = std::max(t.pass, virtualTime_);
    e.waiting = true;
    e.ticket = nextTicket_++;
    ++t.waiting;

    while (freeSlots_ == 0 || chooseLocked() != id) {
        if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
            e.waiting = false;
            if (t.waiting > 0)
                --t.waiting;
            return grant;
        }
        // Timed wait: abort flags flip without a notification, and a
        // bounded poll keeps the governor livelock-free by design.
        slotFreed_.wait_for(lock, std::chrono::milliseconds(25));
    }
    e.waiting = false;
    if (t.waiting > 0)
        --t.waiting;

    // Contended iff any *other* tenant is active right now.
    std::size_t activeWeight = t.weight;
    bool contended = false;
    for (const auto &[name, other] : tenants_) {
        if (name == e.tenant)
            continue;
        if (other.waiting > 0 || other.slotsHeld > 0) {
            contended = true;
            activeWeight += other.weight;
        }
    }

    if (!contended) {
        // Solo tenant: whole pool, batch-style trailing-wave widening.
        grant.width = std::min(want, freeSlots_);
        grant.innerThreads =
            std::max<std::size_t>(1, config_.slots / grant.width);
    } else {
        // Brownout rung 1: cap at the weighted fair share; Background
        // campaigns are squeezed to half of it and lose intra-job
        // sharding entirely, so interactive tenants feel overload last.
        const std::size_t share = std::max<std::size_t>(
            1, config_.slots * t.weight / activeWeight);
        const std::size_t cap = e.cls == PriorityClass::Background
                                    ? std::max<std::size_t>(1, share / 2)
                                    : share;
        grant.width = std::min({want, freeSlots_, cap});
        grant.innerThreads =
            e.cls == PriorityClass::Background
                ? 1
                : std::max<std::size_t>(1, share / grant.width);
    }
    grant.contended = contended;

    freeSlots_ -= grant.width;
    t.slotsHeld += grant.width;
    e.outstanding += grant.width;
    const std::uint64_t stride = std::max<std::uint64_t>(
        1, stride1 / (static_cast<std::uint64_t>(t.weight) *
                      classBoost(e.cls)));
    t.pass += grant.width * stride;
    // Virtual time is the minimum pass over *active* tenants — NOT the
    // pass of whoever was just granted. A low-share tenant's grant
    // advances its own pass by a huge stride; letting that define the
    // clock would catapult virtual time forward, and the idle-arrival
    // clamp would then charge every returning tenant for the laggard's
    // banked debt (a priority inversion for fresh interactive work).
    std::uint64_t minActive = ~0ull;
    for (const auto &[name, other] : tenants_)
        if (other.waiting > 0 || other.slotsHeld > 0)
            minActive = std::min(minActive, other.pass);
    if (minActive != ~0ull)
        virtualTime_ = minActive;
    ++grants_;
    if (grantLog_.size() == kGrantLogSize)
        grantLog_.pop_front();
    grantLog_.push_back(
        {e.tenant, grant.width, virtualTime_, tenants_.size()});
    // The head changed; re-evaluate every waiter's predicate.
    slotFreed_.notify_all();
    return grant;
}

void
FairScheduler::releaseOne(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entities_.find(id);
    if (it == entities_.end())
        return;
    Entity &e = it->second;
    if (e.outstanding == 0)
        return;
    --e.outstanding;
    const auto tit = tenants_.find(e.tenant);
    if (tit != tenants_.end() && tit->second.slotsHeld > 0)
        --tit->second.slotsHeld;
    if (freeSlots_ < config_.slots)
        ++freeSlots_;
    slotFreed_.notify_all();
}

std::size_t
FairScheduler::slotsInUse() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return config_.slots - freeSlots_;
}

std::uint64_t
FairScheduler::grantCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return grants_;
}

std::vector<FairScheduler::GrantRecord>
FairScheduler::grantLog() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {grantLog_.begin(), grantLog_.end()};
}

} // namespace harp::common
