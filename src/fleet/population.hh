/**
 * @file
 * Chip-population sampler: deterministic per-chip draws from a
 * FleetDistribution.
 *
 * Every chip of the fleet gets its own RNG stream derived from
 * (fleet seed, chip index), so sampling chip i is a pure function —
 * independent of which thread samples it, in what order, and of how
 * many chips the fleet has. The sampler draws the chip's reliability
 * tier, a Poisson number of fault events over the configured
 * device-hours, and each event's mode + cell placement; almost every
 * chip draws zero events and costs two RNG taps, which is what makes
 * million-chip fleets cheap.
 *
 * Placement output is a list of (word, codeword position) cells;
 * materialize() dedups them into per-word fault::WordFaultModel
 * objects.
 */

#ifndef HARP_FLEET_POPULATION_HH
#define HARP_FLEET_POPULATION_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "fault/fault_model.hh"
#include "fleet/distribution.hh"

namespace harp::fleet {

/** Simulated chip geometry (all chips of a fleet share it). */
struct ChipGeometry
{
    /** ECC words per chip. */
    std::size_t wordsPerChip = 128;
    /** Codeword length n of the on-die ECC (placement space per word). */
    std::size_t codewordBits = 71;
};

/** One sampled fault event: its mode and the cells it struck. */
struct FaultEvent
{
    FaultMode mode = FaultMode::SingleBit;
    /** (word, codeword position) pairs; may contain duplicates across
     *  events — materialization dedups. */
    std::vector<std::pair<std::size_t, std::size_t>> cells;
};

/** Everything sampled for one chip. */
struct ChipSample
{
    std::size_t chipIndex = 0;
    /** Reliability-tier index into the distribution's tiers. */
    std::size_t tier = 0;
    std::vector<FaultEvent> events;

    bool faulty() const { return !events.empty(); }

    /** Distinct at-risk cells across all events. */
    std::size_t distinctCells() const;
};

/**
 * Deterministic sampler over a fleet of chips.
 */
class PopulationSampler
{
  public:
    /**
     * @param dist         Field fault distribution (validated here).
     * @param geometry     Shared chip geometry.
     * @param device_hours Field exposure per chip.
     * @param fleet_seed   Root seed; chip i's stream is derived from
     *                     (fleet_seed, i) only.
     */
    PopulationSampler(FleetDistribution dist, ChipGeometry geometry,
                      double device_hours, std::uint64_t fleet_seed);

    /** Sample chip @p chip (pure; any order, any thread). */
    ChipSample sample(std::size_t chip) const;

    /**
     * Dedup a sample's cells into per-word fault models (ascending
     * word order, every cell at the distribution's cellProbability).
     */
    std::vector<std::pair<std::size_t, fault::WordFaultModel>>
    materialize(const ChipSample &sample) const;

    const FleetDistribution &distribution() const { return dist_; }
    const ChipGeometry &geometry() const { return geometry_; }
    double deviceHours() const { return deviceHours_; }

    /** Expected events per chip of @p tier (the Poisson mean). */
    double eventRate(std::size_t tier) const
    {
        return dist_.eventsPerChip(tier, deviceHours_);
    }

  private:
    FaultEvent sampleEvent(common::Xoshiro256 &rng) const;

    FleetDistribution dist_;
    ChipGeometry geometry_;
    double deviceHours_;
    std::uint64_t fleetSeed_;
    /** Cumulative tier fractions for the tier draw. */
    std::vector<double> tierCdf_;
    /** Cumulative mode mix for the mode draw. */
    std::array<double, kNumFaultModes> modeCdf_{};
};

} // namespace harp::fleet

#endif // HARP_FLEET_POPULATION_HH
