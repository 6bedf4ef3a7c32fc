/**
 * @file
 * Statistics accumulators used to aggregate Monte-Carlo results: running
 * mean and maximum, exact percentiles over retained samples, and integer
 * histograms.
 */

#ifndef HARP_COMMON_STATS_HH
#define HARP_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace harp::common {

/** Running mean and maximum. */
class RunningStat
{
  public:
    /** Fold one observation into the accumulator. */
    void add(double x);

    double mean() const { return count_ == 0 ? 0.0 : mean_; }
    double max() const { return max_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double max_ = 0.0;
};

/**
 * Retains all samples to answer exact quantile queries.
 *
 * Sample counts in this project are small (tens of thousands), so exact
 * retention is cheaper and simpler than a sketch.
 */
class PercentileTracker
{
  public:
    void add(double x) { samples_.push_back(x); sorted_ = false; }
    void merge(const PercentileTracker &other);

    std::size_t count() const { return samples_.size(); }

    /**
     * Quantile by linear interpolation between closest ranks.
     *
     * @param q Quantile in [0, 1]; e.g.\ 0.99 for the paper's 99th
     *          percentile coverage metric.
     */
    double quantile(double q) const;

    double median() const { return quantile(0.5); }
    double mean() const;

    /**
     * Sorted copy of every sample. Order-independent, so two trackers
     * filled by differently-scheduled threads compare bit-identical
     * iff they saw the same multiset of samples.
     */
    std::vector<double> sortedSamples() const;

  private:
    /** Establish the sorted-samples_ invariant shared by quantile()
     *  and sortedSamples(). */
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
};

/**
 * Histogram over the integers [0, numBins); out-of-range values are clamped
 * into the first/last bin. Used e.g.\ for Fig. 9a's distribution of the
 * maximum number of simultaneous post-correction errors.
 */
class Histogram
{
  public:
    explicit Histogram(std::size_t num_bins) : bins_(num_bins, 0) {}

    void add(std::int64_t value, std::uint64_t weight = 1);
    void merge(const Histogram &other);

    std::size_t numBins() const { return bins_.size(); }
    std::uint64_t bin(std::size_t i) const { return bins_.at(i); }
    std::uint64_t total() const;

    /** Fraction of mass in bin @p i; 0 when the histogram is empty. */
    double fraction(std::size_t i) const;

    /**
     * Smallest value v such that at least @p q of the mass lies in bins
     * [0, v]. Returns numBins()-1 for an empty histogram.
     */
    std::size_t quantileBin(double q) const;

  private:
    std::vector<std::uint64_t> bins_;
};

} // namespace harp::common

#endif // HARP_COMMON_STATS_HH
