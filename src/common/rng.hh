/**
 * @file
 * Deterministic pseudo-random number generation for Monte-Carlo simulation.
 *
 * Experiments derive independent child streams from (seed, code index, word
 * index, ...) so that every simulated ECC word sees reproducible randomness
 * regardless of thread scheduling, mirroring the "same ECC words, error
 * patterns, and data patterns for every profiler" requirement of the paper
 * (HARP, MICRO'21, section 7.1.2).
 */

#ifndef HARP_COMMON_RNG_HH
#define HARP_COMMON_RNG_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>

namespace harp::common {

/**
 * SplitMix64 mixing step. Used both as a standalone generator for seeding
 * and as the hash that combines stream-derivation keys.
 *
 * @param state Mutable generator state; advanced by the golden-gamma step.
 * @return Next 64-bit output.
 */
std::uint64_t splitMix64(std::uint64_t &state);

/**
 * Xoshiro256** pseudo-random generator.
 *
 * Small, fast, and high quality; sufficient for fault-injection sampling.
 * Satisfies the C++ UniformRandomBitGenerator concept so it can be used
 * with standard distributions where convenient.
 */
class Xoshiro256
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed expanded through SplitMix64. */
    explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Next raw 64-bit value. Inline: the profiling engines draw one
     *  per at-risk cell per simulated word per round, and the
     *  wasted-storage Monte Carlo one per simulated bit, each compared
     *  against a bernoulliThreshold(), so the generator step must not
     *  cost a function call. */
    result_type operator()()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        // 53 high-quality bits -> [0, 1).
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability @p p (clamped to [0,1]):
     *  no draw at p <= 0 or p >= 1, else one nextDouble(). Hot loops
     *  that reuse one p compare raw draws against bernoulliThreshold(p)
     *  instead. */
    bool nextBernoulli(double p)
    {
        p = std::clamp(p, 0.0, 1.0);
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/** 2^53: the count of distinct nextDouble() values. */
inline constexpr std::uint64_t bernoulliScale = std::uint64_t{1} << 53;

/**
 * Integer form of a Bernoulli trial: for any 64-bit draw x,
 * `(x >> 11) < bernoulliThreshold(p)` is exactly the decision
 * `nextDouble() < p` makes from the same x. The threshold is
 * ceil(p * 2^53), clamped: 0 for p <= 0 or NaN (never succeeds),
 * 2^53 for p >= 1 (always succeeds). It is exact because p * 2^53 is a
 * power-of-two scaling (no rounding) and x >> 11 is an integer u, so
 * u * 2^-53 < p iff u < p * 2^53 iff u < ceil(p * 2^53).
 */
inline std::uint64_t
bernoulliThreshold(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return bernoulliScale;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

/**
 * Derive an independent child seed from a parent seed and a list of keys.
 *
 * The derivation hashes each key into the running state with SplitMix64,
 * so derive(s, {a, b}) and derive(s, {b, a}) differ and collisions between
 * distinct key paths are no more likely than random 64-bit collisions.
 */
std::uint64_t deriveSeed(std::uint64_t parent,
                         std::initializer_list<std::uint64_t> keys);

} // namespace harp::common

#endif // HARP_COMMON_RNG_HH
