#include "support/golden.hh"

#include <bit>
#include <iomanip>
#include <sstream>
#include <string_view>

#include "common/bits.hh"
#include "core/case_study_experiment.hh"
#include "core/coverage_experiment.hh"

namespace harp::test {
namespace {

std::string
hex(std::uint64_t value)
{
    std::ostringstream out;
    out << "0x" << std::hex << std::uppercase << std::setfill('0')
        << std::setw(16) << value << "ULL";
    return out.str();
}

} // namespace

std::uint64_t
goldenMix(std::uint64_t hash, std::uint64_t value)
{
    // Serialize little-endian-style by hand so the chain is
    // endian-independent, then reuse the shared FNV-1a.
    char bytes[8];
    for (int byte = 0; byte < 8; ++byte)
        bytes[byte] = static_cast<char>((value >> (8 * byte)) & 0xFF);
    return common::fnv1a64(std::string_view(bytes, 8), hash);
}

std::uint64_t
goldenMix(std::uint64_t hash, const std::string &text)
{
    return common::fnv1a64(text, hash);
}

std::uint64_t
goldenMixDouble(std::uint64_t hash, double value)
{
    return goldenMix(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t
goldenOf(const gf2::BitVector &bits)
{
    std::uint64_t hash = goldenMix(kGoldenInit, bits.size());
    for (const std::uint64_t word : bits.words())
        hash = goldenMix(hash, word);
    return hash;
}

std::uint64_t
goldenOf(const std::vector<double> &values)
{
    std::uint64_t hash = goldenMix(kGoldenInit, values.size());
    for (const double v : values)
        hash = goldenMixDouble(hash, v);
    return hash;
}

std::uint64_t
goldenOf(const std::vector<std::uint64_t> &values)
{
    std::uint64_t hash = goldenMix(kGoldenInit, values.size());
    for (const std::uint64_t v : values)
        hash = goldenMix(hash, v);
    return hash;
}

std::uint64_t
goldenOf(const core::CaseStudyResult &result)
{
    std::uint64_t hash = goldenMix(kGoldenInit, result.series.size());
    for (const core::CaseStudySeries &series : result.series) {
        hash = goldenMix(hash, series.profiler.size());
        hash = goldenMix(hash, series.profiler);
        hash = goldenMixDouble(hash, series.rber);
        hash = goldenMix(hash, goldenOf(series.berBefore));
        hash = goldenMix(hash, goldenOf(series.berAfter));
    }
    for (const std::string &name : result.profilerNames) {
        hash = goldenMix(hash, name.size());
        hash = goldenMix(hash, name);
    }
    for (const std::size_t rounds : result.roundsToZeroAfter)
        hash = goldenMix(hash, rounds);
    return hash;
}

std::uint64_t
goldenOf(const core::CoverageResult &result)
{
    std::uint64_t hash = goldenMix(kGoldenInit, result.totalDirectAtRisk);
    hash = goldenMix(hash, result.totalIndirectAtRisk);
    hash = goldenMix(hash, result.numWords);
    hash = goldenMix(hash, result.profilers.size());
    for (const core::ProfilerAggregate &agg : result.profilers) {
        hash = goldenMix(hash, agg.name.size());
        hash = goldenMix(hash, agg.name);
        hash = goldenMix(hash, goldenOf(agg.directIdentifiedSum));
        hash = goldenMix(hash, goldenOf(agg.indirectMissedSum));
        hash = goldenMix(hash, goldenOf(agg.falsePositiveSum));
        hash = goldenMix(hash, goldenOf(agg.bootstrapRounds.sortedSamples()));
        hash = goldenMix(hash, agg.maxSimultaneousFinal.numBins());
        for (std::size_t bin = 0; bin < agg.maxSimultaneousFinal.numBins();
             ++bin)
            hash = goldenMix(hash, agg.maxSimultaneousFinal.bin(bin));
        for (const common::PercentileTracker &bound : agg.roundsToBound)
            hash = goldenMix(hash, goldenOf(bound.sortedSamples()));
    }
    return hash;
}

::testing::AssertionResult
goldenMatches(std::uint64_t actual, std::uint64_t expected)
{
    if (actual == expected)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "golden mismatch: computed " << hex(actual) << ", pinned "
           << hex(expected)
           << " (if the change is intentional, re-pin the constant)";
}

} // namespace harp::test
