/**
 * @file
 * Statistical goodness-of-fit and purity tests for the fleet
 * chip-population sampler.
 *
 * Everything runs under fixed seeds, so every chi-square / KS check is
 * deterministic; the alpha = 0.001 thresholds (support/statistics.hh)
 * make the assertions code-change detectors, not noise sources.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "fleet/population.hh"
#include "support/seeded_fixture.hh"
#include "support/statistics.hh"

namespace harp::fleet {
namespace {

using test::chiSquareCritical999;
using test::chiSquareStatistic;
using test::ksCritical999;
using test::ksStatisticUniform;

constexpr ChipGeometry kGeometry{128, 71};

/** Rates inflated so a modest fleet yields thousands of events. */
FleetDistribution
hotDistribution()
{
    FleetDistribution dist = FleetDistribution::ddr4Field();
    for (double &fit : dist.modeFit)
        fit *= 2000.0;
    return dist;
}

TEST(PopulationSampler, SamplingIsPureAndDeterministic)
{
    const PopulationSampler sampler(hotDistribution(), kGeometry,
                                    43800.0, 99);
    for (std::size_t chip = 0; chip < 64; ++chip) {
        const ChipSample a = sampler.sample(chip);
        const ChipSample b = sampler.sample(chip);
        ASSERT_EQ(a.tier, b.tier);
        ASSERT_EQ(a.events.size(), b.events.size());
        for (std::size_t e = 0; e < a.events.size(); ++e) {
            EXPECT_EQ(a.events[e].mode, b.events[e].mode);
            EXPECT_EQ(a.events[e].cells, b.events[e].cells);
        }
    }
    // A different fleet seed reshuffles the population.
    const PopulationSampler other(hotDistribution(), kGeometry, 43800.0,
                                  100);
    std::size_t differing = 0;
    for (std::size_t chip = 0; chip < 256; ++chip)
        if (other.sample(chip).events.size() !=
            sampler.sample(chip).events.size())
            ++differing;
    EXPECT_GT(differing, 0u);
}

TEST(PopulationSampler, TierSplitMatchesFractionsChiSquare)
{
    const FleetDistribution dist = FleetDistribution::hrmTiers();
    const PopulationSampler sampler(dist, kGeometry, 43800.0, 7);
    constexpr std::size_t kChips = 100000;
    std::vector<std::uint64_t> observed(dist.tiers.size(), 0);
    for (std::size_t chip = 0; chip < kChips; ++chip)
        ++observed[sampler.sample(chip).tier];
    std::vector<double> expected;
    for (const ReliabilityTier &tier : dist.tiers)
        expected.push_back(tier.fraction * kChips);
    EXPECT_LT(chiSquareStatistic(expected, observed),
              chiSquareCritical999(dist.tiers.size() - 1));
}

TEST(PopulationSampler, ModeMixMatchesDistributionChiSquare)
{
    const FleetDistribution dist = hotDistribution();
    const PopulationSampler sampler(dist, kGeometry, 43800.0, 11);
    std::vector<std::uint64_t> observed(kNumFaultModes, 0);
    std::uint64_t events = 0;
    for (std::size_t chip = 0; chip < 4000; ++chip) {
        for (const FaultEvent &event : sampler.sample(chip).events) {
            ++observed[static_cast<std::size_t>(event.mode)];
            ++events;
        }
    }
    ASSERT_GT(events, 1000u);
    const auto mix = dist.modeMix();
    std::vector<double> expected;
    for (std::size_t m = 0; m < kNumFaultModes; ++m)
        expected.push_back(mix[m] * static_cast<double>(events));
    EXPECT_LT(chiSquareStatistic(expected, observed),
              chiSquareCritical999(kNumFaultModes - 1));
}

TEST(PopulationSampler, EventCountIsPoissonChiSquare)
{
    // lambda ~ 0.526 with these rates: bin the per-chip event count
    // into {0, 1, 2, >=3} and test against the closed-form pmf.
    FleetDistribution dist = FleetDistribution::ddr4Field();
    for (double &fit : dist.modeFit)
        fit *= 200.0;
    const PopulationSampler sampler(dist, kGeometry, 43800.0, 13);
    const double lambda = sampler.eventRate(0);
    ASSERT_GT(lambda, 0.2);
    ASSERT_LT(lambda, 1.0);

    constexpr std::size_t kChips = 50000;
    std::vector<std::uint64_t> observed(4, 0);
    for (std::size_t chip = 0; chip < kChips; ++chip)
        ++observed[std::min<std::size_t>(
            sampler.sample(chip).events.size(), 3)];

    const double p0 = std::exp(-lambda);
    const double p1 = p0 * lambda;
    const double p2 = p1 * lambda / 2.0;
    const std::vector<double> expected = {
        p0 * kChips, p1 * kChips, p2 * kChips,
        (1.0 - p0 - p1 - p2) * kChips};
    EXPECT_LT(chiSquareStatistic(expected, observed),
              chiSquareCritical999(3));
}

TEST(PopulationSampler, ChipWideCellPlacementIsUniformKs)
{
    // ChipWide events scatter (word, position) draws over the whole
    // chip; mapped onto the unit interval they must pass a KS test
    // against Uniform(0, 1).
    const FleetDistribution dist = hotDistribution();
    const PopulationSampler sampler(dist, kGeometry, 43800.0, 17);
    std::vector<double> samples;
    const double span = static_cast<double>(kGeometry.wordsPerChip *
                                            kGeometry.codewordBits);
    for (std::size_t chip = 0; chip < 6000; ++chip) {
        for (const FaultEvent &event : sampler.sample(chip).events) {
            if (event.mode != FaultMode::ChipWide)
                continue;
            for (const auto &[word, pos] : event.cells)
                samples.push_back(
                    (static_cast<double>(word * kGeometry.codewordBits +
                                         pos) +
                     0.5) /
                    span);
        }
    }
    ASSERT_GT(samples.size(), 1000u);
    EXPECT_LT(ksStatisticUniform(samples),
              ksCritical999(samples.size()));
}

TEST(PopulationSampler, EventShapesMatchTheirMode)
{
    const FleetDistribution dist = hotDistribution();
    const PopulationSampler sampler(dist, kGeometry, 43800.0, 19);
    std::size_t seen_word = 0, seen_column = 0;
    for (std::size_t chip = 0; chip < 3000; ++chip) {
        for (const FaultEvent &event : sampler.sample(chip).events) {
            switch (event.mode) {
              case FaultMode::SingleBit:
                ASSERT_EQ(event.cells.size(), 1u);
                break;
              case FaultMode::SingleWord: {
                ++seen_word;
                ASSERT_EQ(event.cells.size(), dist.wordEventCells);
                std::set<std::size_t> positions;
                for (const auto &[word, pos] : event.cells) {
                    EXPECT_EQ(word, event.cells.front().first);
                    positions.insert(pos);
                }
                // Distinct positions inside one word.
                EXPECT_EQ(positions.size(), event.cells.size());
                break;
              }
              case FaultMode::SingleColumn: {
                ++seen_column;
                for (const auto &[word, pos] : event.cells)
                    EXPECT_EQ(pos, event.cells.front().second);
                break;
              }
              case FaultMode::ChipWide:
                EXPECT_LE(event.cells.size(), dist.chipEventCells);
                break;
            }
            for (const auto &[word, pos] : event.cells) {
                EXPECT_LT(word, kGeometry.wordsPerChip);
                EXPECT_LT(pos, kGeometry.codewordBits);
            }
        }
    }
    EXPECT_GT(seen_word, 0u);
    EXPECT_GT(seen_column, 0u);
}

TEST(PopulationSampler, MaterializeDedupsSortsAndPrices)
{
    const FleetDistribution dist = hotDistribution();
    const PopulationSampler sampler(dist, kGeometry, 43800.0, 23);
    // Find a chip with overlapping events to make the dedup meaningful.
    for (std::size_t chip = 0; chip < 2000; ++chip) {
        const ChipSample sample = sampler.sample(chip);
        if (!sample.faulty())
            continue;
        const auto models = sampler.materialize(sample);
        std::size_t model_cells = 0;
        for (std::size_t i = 0; i < models.size(); ++i) {
            if (i > 0) {
                EXPECT_LT(models[i - 1].first, models[i].first);
            }
            EXPECT_LT(models[i].first, kGeometry.wordsPerChip);
            model_cells += models[i].second.numFaults();
        }
        // Dedup across events: model cells == distinct sampled cells.
        EXPECT_EQ(model_cells, sample.distinctCells());
    }
}

TEST(FleetDistributionValidation, RejectsNonPhysicalParameters)
{
    EXPECT_NO_THROW(FleetDistribution::ddr4Field().validate());
    EXPECT_NO_THROW(FleetDistribution::hrmTiers().validate());
    EXPECT_THROW(FleetDistribution::preset("nope"),
                 std::invalid_argument);

    FleetDistribution negative = FleetDistribution::ddr4Field();
    negative.modeFit[0] = -1.0;
    EXPECT_THROW(negative.validate(), std::invalid_argument);

    FleetDistribution zero = FleetDistribution::ddr4Field();
    zero.modeFit = {0.0, 0.0, 0.0, 0.0};
    EXPECT_THROW(zero.validate(), std::invalid_argument);

    FleetDistribution bad_prob = FleetDistribution::ddr4Field();
    bad_prob.cellProbability = 1.5;
    EXPECT_THROW(bad_prob.validate(), std::invalid_argument);

    FleetDistribution bad_tiers = FleetDistribution::hrmTiers();
    bad_tiers.tiers[0].fraction = 0.4;
    EXPECT_THROW(bad_tiers.validate(), std::invalid_argument);

    FleetDistribution no_tiers = FleetDistribution::ddr4Field();
    no_tiers.tiers.clear();
    EXPECT_THROW(no_tiers.validate(), std::invalid_argument);
}

TEST(FleetDistribution, ClosedFormsAreConsistent)
{
    const FleetDistribution dist = FleetDistribution::ddr4Field();
    const auto mix = dist.modeMix();
    double mass = 0.0;
    for (const double m : mix)
        mass += m;
    EXPECT_NEAR(mass, 1.0, 1e-12);
    EXPECT_NEAR(dist.totalFit(), 60.0, 1e-12);
    // 60 FIT over 5 years: 60e-9 * 43800 events expected.
    EXPECT_NEAR(dist.eventsPerChip(0, 43800.0), 60.0 * 43800.0 * 1e-9,
                1e-12);

    const FleetDistribution hrm = FleetDistribution::hrmTiers();
    EXPECT_LT(hrm.eventsPerChip(0, 43800.0),
              hrm.eventsPerChip(2, 43800.0));
}

} // namespace
} // namespace harp::fleet
