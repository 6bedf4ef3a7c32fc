#include "fleet/policy.hh"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "common/ordered_merger.hh"
#include "common/recycled_vector.hh"
#include "common/thread_pool.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/profile_words.hh"
#include "core/round_engine.hh"
#include "memsys/memory_controller.hh"

namespace harp::fleet {

namespace {

/** @name Per-chip seed-derivation domains
 * All chip randomness hangs off chipSimSeed(fleet seed, chip); these
 * constants split it into independent streams. None of them depend on
 * the policy, so the whole policy grid sees common random numbers.
 * @{ */
constexpr std::uint64_t kChipSimDomain = 0xC417u;
constexpr std::uint64_t kCodeDomain = 0xC0DEu;
constexpr std::uint64_t kSecondaryDomain = 0x5EC0u;
constexpr std::uint64_t kEngineDomain = 0xE221u;
constexpr std::uint64_t kDataDomain = 0xDA7Au;
constexpr std::uint64_t kCrnDomain = 0xC124u;
/** @} */

std::unique_ptr<core::Profiler>
makeProfiler(ProfilerKind kind, const ecc::HammingCode &code)
{
    switch (kind) {
      case ProfilerKind::Naive:
        return std::make_unique<core::NaiveProfiler>(code.k());
      case ProfilerKind::HarpU:
        return std::make_unique<core::HarpUProfiler>(code.k());
      case ProfilerKind::HarpA:
        return std::make_unique<core::HarpAProfiler>(code);
      case ProfilerKind::None:
        break;
    }
    return nullptr;
}

bool
profilesNothing(const FleetPolicy &policy)
{
    return policy.profiler == ProfilerKind::None || policy.activeRounds == 0;
}

/** The profiling seed of faulty word @p word of @p sim. */
std::uint64_t
engineSeed(const ChipSim &sim, std::size_t word)
{
    return common::deriveSeed(sim.chipSeed, {kEngineDomain, word});
}

/**
 * Active-profile every faulty word of @p sims, filling their profiles
 * (left empty when the policy profiles nothing). Faulty words of
 * *different* chips share lane blocks (each chip contributes few
 * faulty words, so cross-chip batching is what fills 64 lanes);
 * per-word seeds make the profiles equal profileChipScalar's.
 */
void
profileSims(std::span<ChipSim> sims, const FleetPolicy &policy)
{
    if (profilesNothing(policy)) {
        for (ChipSim &sim : sims)
            sim.profiles.clear();
        return;
    }
    // Every faulty word as (its sim, its index in faultyWords).
    std::vector<std::pair<ChipSim *, std::size_t>> entries;
    for (ChipSim &sim : sims) {
        sim.profiles.assign(sim.faultyWords.size(), gf2::BitVector());
        for (std::size_t i = 0; i < sim.faultyWords.size(); ++i)
            entries.emplace_back(&sim, i);
    }

    // Faulty word i of *sim and the profiler that fills its profile.
    struct FaultyWord
    {
        ChipSim *sim;
        std::size_t i;
        std::unique_ptr<core::Profiler> profiler;

        core::WordInputs inputs() const
        {
            const auto &[word, model] = sim->faultyWords[i];
            return {&sim->onDie, &model, engineSeed(*sim, word),
                    {profiler.get()}};
        }
    };
    const core::WordRun run{entries.size(), policy.activeRounds,
                            core::PatternKind::Random, 1};
    core::profileWords<FaultyWord>(
        run,
        [&](std::size_t j) {
            const auto &[sim, i] = entries[j];
            return std::make_unique<FaultyWord>(
                FaultyWord{sim, i, makeProfiler(policy.profiler, sim->onDie)});
        },
        nullptr,
        [](FaultyWord &w) { w.sim->profiles[w.i] = w.profiler->identified(); });
}

/**
 * The memory system and buffers of the field replay, kept from chip to
 * chip of a stratum: chip and controller borrow each chip's codes and
 * are reset in place, so a faulty chip reuses the storage an earlier
 * one sized instead of allocating its own.
 */
class ChipReplay
{
  public:
    explicit ChipReplay(const ChipSim &sim)
        : chip_(sim.onDie, 0), controller_(chip_, &sim.secondary)
    {
    }

    // controller_ refers to chip_.
    ChipReplay(const ChipReplay &) = delete;
    ChipReplay &operator=(const ChipReplay &) = delete;

    ChipOutcome run(ChipSim &sim, std::size_t words_per_chip,
                    const FleetPolicy &policy, std::size_t windows);

  private:
    mem::MemoryChip chip_;
    mem::MemoryController controller_;
    /** Per slot: the dataword the application last wrote. */
    common::RecycledVector<gf2::BitVector> shadow_;
    std::vector<double> uniforms_;
    gf2::BitVector strike_;
    mem::ControllerReadResult read_;
};

ChipOutcome
ChipReplay::run(ChipSim &sim, std::size_t words_per_chip,
                const FleetPolicy &policy, std::size_t windows)
{
    // Compact chip: slot i holds faulty word faultyWords[i].first, in
    // ascending word order, so writes, FCFS spare capture and scrub
    // write-backs keep the order a full-size chip would give them. A
    // fault-free word is never written, struck or read, and its zero
    // codeword scrubs clean (no write-back, no repaired bit), so
    // leaving it out moves no reported counter. Every stream below
    // still derives from the global word index.
    const std::size_t slots = sim.faultyWords.size();
    for (std::size_t i = 0; i < slots; ++i) {
        const std::size_t word = sim.faultyWords[i].first;
        if (word >= words_per_chip)
            throw std::out_of_range(
                "runChipOperation: faulty word " + std::to_string(word) +
                " is past words_per_chip " +
                std::to_string(words_per_chip));
        if (i > 0 && word <= sim.faultyWords[i - 1].first)
            throw std::invalid_argument(
                "runChipOperation: faulty words must be strictly "
                "ascending");
    }

    const std::size_t k = sim.onDie.k();
    chip_.reset(sim.onDie, slots);
    controller_.reset(&sim.secondary);
    controller_.setRepairCapacity(policy.repairBudget);
    if (!sim.profiles.empty()) {
        for (std::size_t i = 0; i < slots; ++i)
            controller_.profile().markWordBitmap(i, sim.profiles[i]);
    }

    shadow_.resize(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        common::Xoshiro256 data_rng(common::deriveSeed(
            sim.chipSeed, {kDataDomain, sim.faultyWords[i].first}));
        shadow_[i].reset(k);
        shadow_[i].randomize(data_rng);
        controller_.write(i, shadow_[i]);
    }

    ChipOutcome out;
    out.faultEvents = sim.faultEvents;
    for (const auto &[word, model] : sim.faultyWords)
        out.atRiskCells += model.numFaults();

    strike_.reset(sim.onDie.n());
    for (std::size_t w = 0; w < windows; ++w) {
        // Retention strikes: one CRN stream per (chip, word, window),
        // indexed by at-risk cell — identical trials under every
        // policy, so tightening an axis never changes the raw physics.
        for (std::size_t i = 0; i < slots; ++i) {
            const auto &[word, model] = sim.faultyWords[i];
            common::Xoshiro256 crn_rng(common::deriveSeed(
                sim.chipSeed, {kCrnDomain, word, w}));
            uniforms_.resize(model.numFaults());
            for (double &u : uniforms_)
                u = crn_rng.nextDouble();
            strike_.fill(false);
            model.injectErrorsCrn(chip_.storedCodeword(i), uniforms_,
                                  strike_);
            if (!strike_.isZero())
                chip_.corrupt(i, strike_);
        }
        // Application reads of the words that can err.
        for (std::size_t i = 0; i < slots; ++i) {
            controller_.readInto(i, read_);
            if (!read_.corrupt && !(read_.dataword == shadow_[i]))
                ++out.silentCorruptions;
        }
        if (policy.scrubInterval != 0 &&
            (w + 1) % policy.scrubInterval == 0)
            controller_.scrubAll();
    }

    const mem::ControllerStats &stats = controller_.stats();
    out.uncorrectableEvents = stats.uncorrectableEvents;
    out.profiledBits = controller_.profile().totalAtRisk();
    out.repairSpareBits = controller_.repairMechanism().spareBitsUsed();
    out.repairedBitReads = stats.repairedBits;
    out.scrubWritebacks = stats.scrubWritebacks;
    return out;
}

FleetAggregator
runStratum(const FleetConfig &config, const PopulationSampler &sampler,
           std::size_t begin, std::size_t end)
{
    FleetAggregator agg;
    std::vector<ChipSim> sims;
    for (std::size_t chip = begin; chip < end; ++chip) {
        const ChipSample sample = sampler.sample(chip);
        if (!sample.faulty()) {
            agg.addCleanChip();
            continue;
        }
        sims.push_back(makeChipSim(config.seed, chip, config.k,
                                   sampler.materialize(sample),
                                   sample.events.size()));
    }

    if (sims.empty())
        return agg;
    profileSims(sims, config.policy);

    ChipReplay replay(sims.front());
    for (ChipSim &sim : sims)
        agg.addChip(replay.run(sim, config.wordsPerChip, config.policy,
                               config.windows));
    return agg;
}

} // namespace

ProfilerKind
profilerKindFromName(const std::string &name)
{
    if (name == "none")
        return ProfilerKind::None;
    if (name == "naive")
        return ProfilerKind::Naive;
    if (name == "harp_u")
        return ProfilerKind::HarpU;
    if (name == "harp_a")
        return ProfilerKind::HarpA;
    throw std::invalid_argument("unknown profiler '" + name +
                                "' (none | naive | harp_u | harp_a)");
}

std::uint64_t
chipSimSeed(std::uint64_t fleet_seed, std::size_t chip)
{
    return common::deriveSeed(fleet_seed, {kChipSimDomain, chip});
}

ChipSim
makeChipSim(
    std::uint64_t fleet_seed, std::size_t chip, std::size_t k,
    std::vector<std::pair<std::size_t, fault::WordFaultModel>> faulty_words,
    std::size_t fault_events)
{
    const std::uint64_t chip_seed = chipSimSeed(fleet_seed, chip);
    common::Xoshiro256 code_rng(
        common::deriveSeed(chip_seed, {kCodeDomain}));
    common::Xoshiro256 secondary_rng(
        common::deriveSeed(chip_seed, {kSecondaryDomain}));
    return ChipSim{chip,
                   chip_seed,
                   fault_events,
                   std::move(faulty_words),
                   ecc::HammingCode::randomSec(k, code_rng),
                   ecc::ExtendedHammingCode::randomSecDed(k, secondary_rng),
                   {}};
}

void
profileChipScalar(ChipSim &sim, const FleetPolicy &policy)
{
    sim.profiles.clear();
    if (profilesNothing(policy))
        return;
    for (const auto &[word, model] : sim.faultyWords) {
        const std::unique_ptr<core::Profiler> profiler =
            makeProfiler(policy.profiler, sim.onDie);
        core::RoundEngine engine(sim.onDie, model, core::PatternKind::Random,
                                 engineSeed(sim, word), {profiler.get()});
        for (std::size_t r = 0; r < policy.activeRounds; ++r)
            engine.runRound();
        sim.profiles.push_back(profiler->identified());
    }
}

ChipOutcome
runChipOperation(ChipSim &sim, std::size_t words_per_chip,
                 const FleetPolicy &policy, std::size_t windows)
{
    ChipReplay replay(sim);
    return replay.run(sim, words_per_chip, policy, windows);
}

FleetAggregator
runFleet(const FleetConfig &config, const std::function<bool()> &stop)
{
    // Probe the code family once: the codeword length n is a
    // deterministic function of k, and the sampler needs it as the
    // cell-placement space.
    common::Xoshiro256 probe_rng(1);
    const std::size_t n =
        ecc::HammingCode::randomSec(config.k, probe_rng).n();
    const PopulationSampler sampler(config.distribution,
                                    {config.wordsPerChip, n},
                                    config.deviceHours, config.seed);

    const std::size_t stratum =
        std::max<std::size_t>(1, config.stratumChips);
    const std::size_t strata = (config.chips + stratum - 1) / stratum;

    FleetAggregator total;
    common::OrderedMerger<FleetAggregator> merger(strata);
    common::parallelFor(
        strata,
        [&](std::size_t s) {
            // parallelFor keeps the first throw and hands out no
            // further chunks; workers mid-chunk stop at their next poll.
            if (stop && stop())
                throw FleetStopped();
            const std::size_t begin = s * stratum;
            const std::size_t end =
                std::min(config.chips, begin + stratum);
            FleetAggregator part =
                runStratum(config, sampler, begin, end);
            merger.deposit(s, std::move(part),
                           [&](FleetAggregator &partial) {
                               total.merge(partial);
                           });
        },
        config.threads);
    return total;
}

} // namespace harp::fleet
