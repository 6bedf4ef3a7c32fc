#include "fleet/population.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace harp::fleet {

namespace {

/** Seed-derivation domain for per-chip population streams. */
constexpr std::uint64_t kPopulationDomain = 0xF1EE7u;

/**
 * Poisson draw by Knuth's product method — exact and cheap for the
 * small event rates of field fleets (lambda well below 1 for realistic
 * device-hours; exp(-lambda) stays comfortably above double underflow
 * for every rate validate() accepts via the count cap below). @p limit
 * is exp(-lambda), computed once per tier by the sampler.
 */
std::size_t
drawPoisson(double limit, common::Xoshiro256 &rng)
{
    // Events per chip beyond this are astronomically unlikely at field
    // rates and would only grow the placement work; cap to bound cost.
    constexpr std::size_t kMaxEvents = 64;
    std::size_t count = 0;
    double product = 1.0;
    while (count < kMaxEvents) {
        product *= rng.nextDouble();
        if (product <= limit)
            break;
        ++count;
    }
    return count;
}

/** Index below @p cdf.size() whose cumulative bucket holds @p u. */
template <typename Cdf>
std::size_t
drawFromCdf(const Cdf &cdf, double u)
{
    for (std::size_t i = 0; i + 1 < cdf.size(); ++i)
        if (u < cdf[i])
            return i;
    return cdf.size() - 1;
}

} // namespace

std::size_t
ChipSample::distinctCells() const
{
    std::set<std::pair<std::size_t, std::size_t>> cells;
    for (const FaultEvent &event : events)
        cells.insert(event.cells.begin(), event.cells.end());
    return cells.size();
}

PopulationSampler::PopulationSampler(FleetDistribution dist,
                                     ChipGeometry geometry,
                                     double device_hours,
                                     std::uint64_t fleet_seed)
    : dist_(std::move(dist)), geometry_(geometry),
      deviceHours_(device_hours), fleetSeed_(fleet_seed)
{
    dist_.validate();
    if (geometry_.wordsPerChip == 0 || geometry_.codewordBits == 0)
        throw std::invalid_argument("empty chip geometry");
    if (!(deviceHours_ > 0.0) || !std::isfinite(deviceHours_))
        throw std::invalid_argument("device hours must be > 0");

    double cum = 0.0;
    for (std::size_t t = 0; t < dist_.tiers.size(); ++t) {
        cum += dist_.tiers[t].fraction;
        tierCdf_.push_back(cum);
        poissonLimit_.push_back(std::exp(-eventRate(t)));
    }
    const auto mix = dist_.modeMix();
    cum = 0.0;
    for (std::size_t m = 0; m < kNumFaultModes; ++m) {
        cum += mix[m];
        modeCdf_[m] = cum;
    }
}

ChipSample
PopulationSampler::sample(std::size_t chip) const
{
    common::Xoshiro256 rng(
        common::deriveSeed(fleetSeed_, {kPopulationDomain, chip}));
    ChipSample sample;
    sample.chipIndex = chip;
    sample.tier = drawFromCdf(tierCdf_, rng.nextDouble());
    const std::size_t events = drawPoisson(poissonLimit_[sample.tier], rng);
    sample.events.reserve(events);
    for (std::size_t e = 0; e < events; ++e)
        sample.events.push_back(sampleEvent(rng));
    return sample;
}

FaultEvent
PopulationSampler::sampleEvent(common::Xoshiro256 &rng) const
{
    const std::size_t words = geometry_.wordsPerChip;
    const std::size_t n = geometry_.codewordBits;
    FaultEvent event;
    event.mode =
        static_cast<FaultMode>(drawFromCdf(modeCdf_, rng.nextDouble()));
    switch (event.mode) {
      case FaultMode::SingleBit: {
        const std::size_t word = rng.nextBelow(words);
        event.cells.emplace_back(word, rng.nextBelow(n));
        break;
      }
      case FaultMode::SingleWord: {
        const std::size_t word = rng.nextBelow(words);
        const std::size_t count = std::min(dist_.wordEventCells, n);
        std::set<std::size_t> positions;
        while (positions.size() < count)
            positions.insert(rng.nextBelow(n));
        for (const std::size_t pos : positions)
            event.cells.emplace_back(word, pos);
        break;
      }
      case FaultMode::SingleColumn: {
        const std::size_t pos = rng.nextBelow(n);
        // One Bernoulli per word: the draw count is fixed by the
        // geometry, keeping the chip's RNG stream layout deterministic.
        for (std::size_t w = 0; w < words; ++w)
            if (rng.nextBernoulli(dist_.columnDensity))
                event.cells.emplace_back(w, pos);
        break;
      }
      case FaultMode::ChipWide: {
        for (std::size_t c = 0; c < dist_.chipEventCells; ++c) {
            const std::size_t word = rng.nextBelow(words);
            event.cells.emplace_back(word, rng.nextBelow(n));
        }
        break;
      }
    }
    return event;
}

std::vector<std::pair<std::size_t, fault::WordFaultModel>>
PopulationSampler::materialize(const ChipSample &sample) const
{
    // Every struck (word, position) once, in ascending order.
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    for (const FaultEvent &event : sample.events)
        cells.insert(cells.end(), event.cells.begin(), event.cells.end());
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());

    std::vector<std::pair<std::size_t, fault::WordFaultModel>> models;
    for (std::size_t begin = 0; begin < cells.size();) {
        const std::size_t word = cells[begin].first;
        std::size_t end = begin;
        while (end < cells.size() && cells[end].first == word)
            ++end;
        std::vector<fault::CellFault> faults;
        faults.reserve(end - begin);
        for (std::size_t c = begin; c < end; ++c)
            faults.push_back({cells[c].second, dist_.cellProbability});
        models.emplace_back(
            word, fault::WordFaultModel(geometry_.codewordBits,
                                        std::move(faults)));
        begin = end;
    }
    return models;
}

} // namespace harp::fleet
