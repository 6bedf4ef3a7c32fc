#include "core/waste_model.hh"

#include <cmath>

namespace harp::core {

double
expectedWastedFraction(std::size_t granularity, double rber)
{
    // Bit-granularity repair sacrifices only truly erroneous bits: zero
    // waste by definition (avoids pow() rounding near p).
    if (granularity <= 1)
        return 0.0;
    const double g = static_cast<double>(granularity);
    const double p_repair = 1.0 - std::pow(1.0 - rber, g);
    return p_repair - rber;
}

double
simulateWastedFraction(std::size_t granularity, double rber,
                       std::size_t blocks, common::Xoshiro256 &rng)
{
    // nextBernoulli's rule: a sure outcome (p <= 0 or p >= 1) makes no
    // draw and wastes nothing. Otherwise one draw per bit, counted
    // branch-free against the exact integer threshold (NaN draws and
    // never hits, as nextBernoulli does).
    const std::uint64_t threshold = common::bernoulliThreshold(rber);
    const bool draws = !(rber <= 0.0) && !(rber >= 1.0);
    std::size_t wasted_bits = 0;
    const std::size_t total_bits = granularity * blocks;
    for (std::size_t b = 0; draws && b < blocks; ++b) {
        std::size_t errors = 0;
        for (std::size_t i = 0; i < granularity; ++i)
            errors += (rng() >> 11) < threshold;
        if (errors > 0)
            wasted_bits += granularity - errors;
    }
    return static_cast<double>(wasted_bits) /
           static_cast<double>(total_bits);
}

} // namespace harp::core
