#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace harp::common {

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    mean_ += (x - mean_) / static_cast<double>(count_);
}

void
PercentileTracker::merge(const PercentileTracker &other)
{
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
}

void
PercentileTracker::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
PercentileTracker::quantile(double q) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

std::vector<double>
PercentileTracker::sortedSamples() const
{
    ensureSorted();
    return samples_;
}

double
PercentileTracker::mean() const
{
    if (samples_.empty())
        return 0.0;
    return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
           static_cast<double>(samples_.size());
}

void
Histogram::add(std::int64_t value, std::uint64_t weight)
{
    if (bins_.empty())
        return;
    std::size_t idx;
    if (value < 0)
        idx = 0;
    else if (static_cast<std::size_t>(value) >= bins_.size())
        idx = bins_.size() - 1;
    else
        idx = static_cast<std::size_t>(value);
    bins_[idx] += weight;
}

void
Histogram::merge(const Histogram &other)
{
    const std::size_t n = std::min(bins_.size(), other.bins_.size());
    for (std::size_t i = 0; i < n; ++i)
        bins_[i] += other.bins_[i];
}

std::uint64_t
Histogram::total() const
{
    return std::accumulate(bins_.begin(), bins_.end(), std::uint64_t{0});
}

double
Histogram::fraction(std::size_t i) const
{
    const std::uint64_t t = total();
    if (t == 0)
        return 0.0;
    return static_cast<double>(bin(i)) / static_cast<double>(t);
}

std::size_t
Histogram::quantileBin(double q) const
{
    const std::uint64_t t = total();
    if (t == 0)
        return bins_.empty() ? 0 : bins_.size() - 1;
    const double target = std::clamp(q, 0.0, 1.0) *
                          static_cast<double>(t);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        cumulative += bins_[i];
        if (static_cast<double>(cumulative) >= target)
            return i;
    }
    return bins_.size() - 1;
}

} // namespace harp::common
