#include "fleet/policy.hh"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>

#include "common/ordered_merger.hh"
#include "common/thread_pool.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
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

/**
 * Active-profile every faulty word of @p sims through @p engine,
 * filling their profiles (left empty when the policy profiles
 * nothing). Faulty words of *different* chips share lane blocks (each
 * chip contributes few faulty words, so cross-chip batching is what
 * fills 64/256 lanes); per-word seeds make the profiles bit-identical
 * under every engine.
 */
void
profileSims(std::span<ChipSim> sims, const FleetPolicy &policy,
            core::EngineKind engine)
{
    if (policy.profiler == ProfilerKind::None || policy.activeRounds == 0) {
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

    // Per block: each word's profile slot and its profiler.
    using Lane =
        std::pair<gf2::BitVector *, std::unique_ptr<core::Profiler>>;
    const core::WordRun run{engine, entries.size(), policy.activeRounds,
                            core::PatternKind::Random, 1};
    std::vector<std::vector<Lane>> blocks(core::wordBlockCount(run));
    const auto build = [&](std::size_t block, std::size_t begin,
                           std::size_t end, core::WordLanes &lanes) {
        for (std::size_t j = begin; j < end; ++j) {
            auto &[sim, i] = entries[j];
            const auto &[word, model] = sim->faultyWords[i];
            const Lane &lane = blocks[block].emplace_back(
                &sim->profiles[i], makeProfiler(policy.profiler, sim->onDie));
            lanes.codes.push_back(&sim->onDie);
            lanes.faults.push_back(&model);
            lanes.seeds.push_back(
                common::deriveSeed(sim->chipSeed, {kEngineDomain, word}));
            lanes.profilers.push_back({lane.second.get()});
        }
    };
    core::profileWords(run, build, nullptr, [&](std::size_t block) {
        const std::vector<Lane> done = std::move(blocks[block]);
        for (const auto &[profile, profiler] : done)
            *profile = profiler->identified();
    });
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

    profileSims(sims, config.policy, config.engine);

    for (ChipSim &sim : sims)
        agg.addChip(runChipOperation(sim, config.wordsPerChip,
                                     config.policy, config.windows));
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
    profileSims({&sim, 1}, policy, core::EngineKind::Scalar);
}

ChipOutcome
runChipOperation(ChipSim &sim, std::size_t words_per_chip,
                 const FleetPolicy &policy, std::size_t windows)
{
    const std::size_t k = sim.onDie.k();
    mem::MemoryChip chip(sim.onDie, words_per_chip);
    for (const auto &[word, model] : sim.faultyWords)
        chip.setFaultModel(word, model);

    mem::MemoryController controller(chip, sim.secondary);
    controller.setRepairCapacity(policy.repairBudget);
    if (!sim.profiles.empty()) {
        for (std::size_t i = 0; i < sim.faultyWords.size(); ++i)
            controller.profile().markWordBitmap(sim.faultyWords[i].first,
                                                sim.profiles[i]);
    }

    // Initial field contents: fault-free words stay all-zero (their
    // zero codeword is self-consistent and scrubs clean), so cost
    // scales with the chip's faults, not its capacity.
    std::vector<gf2::BitVector> shadow(sim.faultyWords.size());
    for (std::size_t i = 0; i < sim.faultyWords.size(); ++i) {
        const std::size_t word = sim.faultyWords[i].first;
        common::Xoshiro256 data_rng(
            common::deriveSeed(sim.chipSeed, {kDataDomain, word}));
        shadow[i] = gf2::BitVector::random(k, data_rng);
        controller.write(word, shadow[i]);
    }

    ChipOutcome out;
    out.faultEvents = sim.faultEvents;
    for (const auto &[word, model] : sim.faultyWords)
        out.atRiskCells += model.numFaults();

    std::vector<double> uniforms;
    for (std::size_t w = 0; w < windows; ++w) {
        // Retention strikes: one CRN stream per (chip, word, window),
        // indexed by at-risk cell — identical trials under every
        // policy, so tightening an axis never changes the raw physics.
        for (const auto &[word, model] : sim.faultyWords) {
            common::Xoshiro256 crn_rng(common::deriveSeed(
                sim.chipSeed, {kCrnDomain, word, w}));
            uniforms.resize(model.numFaults());
            for (double &u : uniforms)
                u = crn_rng.nextDouble();
            const gf2::BitVector mask = model.injectErrorsCrn(
                chip.storedCodeword(word), uniforms);
            if (!mask.isZero())
                chip.corrupt(word, mask);
        }
        // Application reads of the words that can err.
        for (std::size_t i = 0; i < sim.faultyWords.size(); ++i) {
            const mem::ControllerReadResult r =
                controller.read(sim.faultyWords[i].first);
            if (!r.corrupt && !(r.dataword == shadow[i]))
                ++out.silentCorruptions;
        }
        if (policy.scrubInterval != 0 &&
            (w + 1) % policy.scrubInterval == 0)
            controller.scrubAll();
    }

    const mem::ControllerStats &stats = controller.stats();
    out.uncorrectableEvents = stats.uncorrectableEvents;
    out.profiledBits = controller.profile().totalAtRisk();
    out.repairSpareBits = controller.repairMechanism().spareBitsUsed();
    out.repairedBitReads = stats.repairedBits;
    out.scrubWritebacks = stats.scrubWritebacks;
    return out;
}

FleetAggregator
runFleet(const FleetConfig &config)
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
