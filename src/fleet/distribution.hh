/**
 * @file
 * Field fault distributions for the Monte Carlo fleet simulator.
 *
 * A FleetDistribution describes how fault events arrive on chips in the
 * field: a per-mode FIT rate (failures per billion device-hours) for
 * the four spatial fault modes the DDR4 field study distinguishes
 * (single-bit, single-word/row, single-column, chip-wide/bank), the
 * shape of each event's cell placement, and a set of heterogeneous
 * reliability tiers (Heterogeneous-Reliability Memory) that scale the
 * event rate per population stratum. The numbers bundled in the
 * presets are inspired by the published field measurements, not copies
 * of them — the simulator's contract is the *shape* of the sweep
 * (mode mix x rate x tiers), with every number tunable.
 */

#ifndef HARP_FLEET_DISTRIBUTION_HH
#define HARP_FLEET_DISTRIBUTION_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace harp::fleet {

/** Spatial extent of one field fault event. */
enum class FaultMode
{
    SingleBit,    ///< One cell of one ECC word.
    SingleWord,   ///< A cluster of cells inside one ECC word (row-like).
    SingleColumn, ///< One bit position across many words (column-like).
    ChipWide,     ///< Cells scattered over the whole chip (bank-like).
};

/** Number of FaultMode values (array sizing). */
inline constexpr std::size_t kNumFaultModes = 4;

/**
 * One reliability tier of a heterogeneous fleet: a fraction of the
 * chip population whose fault-event rate is scaled by @p rateScale
 * (tier 0 of an HRM deployment holds the most reliable parts).
 */
struct ReliabilityTier
{
    std::string name;
    /** Fraction of the chip population in this tier; the fractions of
     *  a distribution's tiers must sum to 1. */
    double fraction = 1.0;
    /** Multiplier on every mode's FIT rate for chips of this tier. */
    double rateScale = 1.0;
};

/**
 * Configurable field fault distribution: per-mode FIT rates, event
 * placement shape, and reliability tiers.
 */
struct FleetDistribution
{
    /** FIT rate (failures per billion device-hours, per chip) of each
     *  fault mode, indexed by FaultMode. Default mix is dominated by
     *  single-bit faults, as in the DDR4 field study. */
    std::array<double, kNumFaultModes> modeFit{33.0, 12.0, 10.0, 5.0};

    /** Per-access failure probability of every placed at-risk cell
     *  (conditioned on the cell being charged). */
    double cellProbability = 0.5;

    /** Cells placed by one SingleWord event (within one ECC word). */
    std::size_t wordEventCells = 4;

    /** Per-word hit probability of a SingleColumn event (which words
     *  of the chip the broken column actually strikes). */
    double columnDensity = 0.25;

    /** Cells scattered over the chip by one ChipWide event. */
    std::size_t chipEventCells = 12;

    /** Reliability tiers; fractions must sum to 1. */
    std::vector<ReliabilityTier> tiers{{"standard", 1.0, 1.0}};

    /** Sum of the per-mode FIT rates (tier scale 1.0). */
    double totalFit() const;

    /** Normalized probability of each mode given that an event
     *  occurred (identical across tiers: tiers scale all modes). */
    std::array<double, kNumFaultModes> modeMix() const;

    /** Expected fault events per chip of @p tier over
     *  @p device_hours. */
    double eventsPerChip(std::size_t tier, double device_hours) const;

    /** @throws std::invalid_argument on non-physical parameters
     *  (negative rates, probabilities outside [0,1], tier fractions
     *  not summing to 1, no tiers). */
    void validate() const;

    /** Single-tier preset with the default field-study-inspired mode
     *  mix. */
    static FleetDistribution ddr4Field();

    /**
     * Three-tier Heterogeneous-Reliability-Memory preset: a premium
     * tier at half the field rate, a standard tier, and a relaxed tier
     * at double rate, over the same mode mix.
     */
    static FleetDistribution hrmTiers();

    /** Preset by name ("ddr4" | "hrm");
     *  @throws std::invalid_argument on bad input. */
    static FleetDistribution preset(const std::string &name);
};

} // namespace harp::fleet

#endif // HARP_FLEET_DISTRIBUTION_HH
