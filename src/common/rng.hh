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
     *  variate per at-risk cell per simulated word per round, so the
     *  generator step must not cost a function call. */
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

    /** Bernoulli trial with success probability @p p (clamped to [0,1]).
     *  Inline for the same reason as operator(): the wasted-storage
     *  Monte Carlo draws one trial per simulated bit. */
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
