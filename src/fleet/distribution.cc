#include "fleet/distribution.hh"

#include <cmath>
#include <stdexcept>

namespace harp::fleet {

double
FleetDistribution::totalFit() const
{
    double total = 0.0;
    for (const double fit : modeFit)
        total += fit;
    return total;
}

std::array<double, kNumFaultModes>
FleetDistribution::modeMix() const
{
    std::array<double, kNumFaultModes> mix{};
    const double total = totalFit();
    if (total <= 0.0)
        return mix;
    for (std::size_t m = 0; m < kNumFaultModes; ++m)
        mix[m] = modeFit[m] / total;
    return mix;
}

double
FleetDistribution::eventsPerChip(std::size_t tier,
                                 double device_hours) const
{
    return totalFit() * tiers.at(tier).rateScale * device_hours * 1e-9;
}

void
FleetDistribution::validate() const
{
    for (const double fit : modeFit)
        if (!(fit >= 0.0) || !std::isfinite(fit))
            throw std::invalid_argument("mode FIT rate must be >= 0");
    if (!(totalFit() > 0.0))
        throw std::invalid_argument("total FIT rate must be > 0");
    if (!(cellProbability > 0.0) || cellProbability > 1.0)
        throw std::invalid_argument("cell probability must be in (0, 1]");
    if (!(columnDensity > 0.0) || columnDensity > 1.0)
        throw std::invalid_argument("column density must be in (0, 1]");
    if (wordEventCells == 0 || chipEventCells == 0)
        throw std::invalid_argument("event cell counts must be >= 1");
    if (tiers.empty())
        throw std::invalid_argument("at least one reliability tier");
    double fractions = 0.0;
    for (const ReliabilityTier &tier : tiers) {
        if (!(tier.fraction > 0.0) || tier.fraction > 1.0)
            throw std::invalid_argument("tier fraction must be in (0, 1]");
        if (!(tier.rateScale >= 0.0) || !std::isfinite(tier.rateScale))
            throw std::invalid_argument("tier rate scale must be >= 0");
        fractions += tier.fraction;
    }
    if (std::abs(fractions - 1.0) > 1e-9)
        throw std::invalid_argument("tier fractions must sum to 1");
}

FleetDistribution
FleetDistribution::ddr4Field()
{
    return FleetDistribution{};
}

FleetDistribution
FleetDistribution::hrmTiers()
{
    FleetDistribution dist;
    dist.tiers = {
        {"premium", 0.25, 0.5},
        {"standard", 0.50, 1.0},
        {"relaxed", 0.25, 2.0},
    };
    return dist;
}

FleetDistribution
FleetDistribution::preset(const std::string &name)
{
    if (name == "ddr4")
        return ddr4Field();
    if (name == "hrm")
        return hrmTiers();
    throw std::invalid_argument("unknown distribution preset '" + name +
                                "' (ddr4 | hrm)");
}

} // namespace harp::fleet
