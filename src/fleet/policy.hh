/**
 * @file
 * Fleet policy-sweep driver: run every faulty chip of a sampled
 * population through the profiler + scrub + repair machinery and
 * aggregate fleet-level reliability.
 *
 * One policy point fixes a profiler kind, an active-profiling round
 * count, a scrub interval and a per-chip repair budget. The driver
 * samples the chip population (fleet/population.hh), active-profiles
 * every faulty word through core::profileWords (which batches faulty
 * words *across chips* into 64-wide lanes of the sliced engine), then
 * replays field operation on a compact memory system holding only the
 * chip's faulty words — controller reads, CRN retention injection,
 * patrol scrubbing, budgeted repair — and folds each chip into a
 * streaming FleetAggregator.
 *
 * Determinism contract: every chip's randomness derives from
 * (fleet seed, chip index) only — never from the policy, the thread
 * count, the stratum size or the lane block a faulty word lands in.
 * Policies therefore see common random numbers (the same chips with
 * the same per-window cell trials), the batched profiles equal the
 * chip-by-chip reference (profileChipScalar), and aggregation runs
 * over fixed chip strata merged in index order, so a fleet run is
 * byte-identical at any --threads.
 */

#ifndef HARP_FLEET_POLICY_HH
#define HARP_FLEET_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ecc/extended_hamming_code.hh"
#include "ecc/hamming_code.hh"
#include "fault/fault_model.hh"
#include "fleet/aggregate.hh"
#include "fleet/population.hh"
#include "gf2/bit_vector.hh"

namespace harp::fleet {

/** Active-profiling choice of a fleet policy. */
enum class ProfilerKind
{
    None,  ///< No active profiling (reactive-only baseline).
    Naive, ///< Post-correction observer.
    HarpU, ///< Decode-bypass direct-error observer.
    HarpA, ///< HARP-U plus indirect-error prediction.
};

/** Parse a profiler name ("none", "naive", "harp_u", "harp_a");
 *  throws std::invalid_argument on bad input. */
ProfilerKind profilerKindFromName(const std::string &name);

/** Repair budget meaning "unlimited spare storage". */
inline constexpr std::size_t kUnlimitedBudget =
    std::numeric_limits<std::size_t>::max();

/** One point of the (profiler x scrub interval x repair budget)
 *  policy grid. */
struct FleetPolicy
{
    ProfilerKind profiler = ProfilerKind::HarpU;
    /** Active-profiling rounds per faulty word (0 disables). */
    std::size_t activeRounds = 32;
    /** Patrol-scrub period in operation windows (0 disables). */
    std::size_t scrubInterval = 8;
    /** Spare bits per chip the repair mechanism may allocate. */
    std::size_t repairBudget = kUnlimitedBudget;
};

/** One full fleet-simulation configuration. */
struct FleetConfig
{
    FleetDistribution distribution;
    /** Dataword length of every chip's on-die SEC code. */
    std::size_t k = 64;
    /** ECC words per chip. */
    std::size_t wordsPerChip = 128;
    /** Field exposure per chip (the Poisson window). */
    double deviceHours = 43800.0;
    /** Chips in the fleet. */
    std::size_t chips = 100000;
    /** Operation windows replayed per faulty chip. */
    std::size_t windows = 32;
    FleetPolicy policy;
    std::uint64_t seed = 1;
    /** Worker threads for the stratum fan-out (0 = hardware). */
    std::size_t threads = 1;
    /** Chips per stratum — the fixed parallel grain. Results are
     *  independent of this only in ordering terms (aggregation is
     *  commutative), but keep it fixed per experiment so strata line
     *  up across runs. */
    std::size_t stratumChips = 4096;
};

/**
 * One faulty chip ready to simulate: its sampled faults plus its
 * chip-private codes, all derived from (fleet seed, chip index).
 * Exposed so the test tier can hand-craft small-population oracles.
 */
struct ChipSim
{
    std::size_t chipIndex = 0;
    /** deriveSeed(fleet seed, {domain, chip index}) — every stream of
     *  this chip's simulation derives from it. */
    std::uint64_t chipSeed = 0;
    std::size_t faultEvents = 0;
    /** (word, fault model) pairs, ascending word order. */
    std::vector<std::pair<std::size_t, fault::WordFaultModel>> faultyWords;
    /** Chip-private on-die SEC code (the secret the profilers work
     *  around). */
    ecc::HammingCode onDie;
    /** Controller-side secondary SECDED code. */
    ecc::ExtendedHammingCode secondary;
    /** Per-faultyWords active profile (identified() bitmaps, k bits
     *  each); empty until a profiling pass fills it. */
    std::vector<gf2::BitVector> profiles;
};

/** The per-chip seed root (policy-independent: common random numbers
 *  across the whole policy grid). */
std::uint64_t chipSimSeed(std::uint64_t fleet_seed, std::size_t chip);

/**
 * Build a ChipSim with derived codes from explicit faulty words (the
 * oracle-test entry; runFleet builds its sims from PopulationSampler
 * output through the same path).
 */
ChipSim makeChipSim(
    std::uint64_t fleet_seed, std::size_t chip, std::size_t k,
    std::vector<std::pair<std::size_t, fault::WordFaultModel>> faulty_words,
    std::size_t fault_events);

/**
 * Active-profile every faulty word of @p sim with the scalar
 * core::RoundEngine, one word at a time, filling sim.profiles (left
 * empty when the policy profiles nothing). The reference for the
 * fleet's batched path, which produces bit-identical profiles from the
 * same profilers and per-word seeds.
 */
void profileChipScalar(ChipSim &sim, const FleetPolicy &policy);

/**
 * Replay field operation for one chip on the memory system and return
 * its outcome. The chip is compact: one slot per faulty word, so the
 * replay costs O(faulty words x windows) whatever @p words_per_chip
 * is, with the outcome a full-size chip would give (fault-free words
 * stay all-zero and scrub clean). sim.profiles (if filled) seeds the
 * error profile before the initial writes, so the repair budget is
 * consumed in (word, bit) order.
 *
 * @throws std::out_of_range if a faulty word is >= @p words_per_chip.
 * @throws std::invalid_argument if sim.faultyWords is not in strictly
 *         ascending word order.
 */
ChipOutcome runChipOperation(ChipSim &sim, std::size_t words_per_chip,
                             const FleetPolicy &policy,
                             std::size_t windows);

/** Thrown by runFleet when its stop predicate fires. */
struct FleetStopped : std::runtime_error
{
    FleetStopped() : std::runtime_error("fleet run stopped") {}
};

/**
 * Full fleet run: sample, profile (batched across chips), operate,
 * aggregate. Deterministic for a given (config minus threads):
 * byte-identical at any thread count.
 *
 * @p stop, when set, is polled before each stratum (possibly from
 * several workers at once); once it returns true the run throws
 * FleetStopped instead of returning a partial aggregate.
 */
FleetAggregator runFleet(const FleetConfig &config,
                         const std::function<bool()> &stop = {});

} // namespace harp::fleet

#endif // HARP_FLEET_POLICY_HH
