#include "common/rng.hh"

namespace harp::common {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed)
{
    // Expand the seed via SplitMix64 per the generator authors' guidance;
    // guarantees the all-zero state (the one invalid state) is unreachable.
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0)
        s_[0] = 0x9E3779B97F4A7C15ULL;
}

std::uint64_t
Xoshiro256::nextBelow(std::uint64_t bound)
{
    // Debiased modulo via rejection sampling on the top of the range.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = (*this)();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
deriveSeed(std::uint64_t parent, std::initializer_list<std::uint64_t> keys)
{
    std::uint64_t state = parent ^ 0xD1B54A32D192ED03ULL;
    std::uint64_t out = splitMix64(state);
    for (std::uint64_t key : keys) {
        state ^= key + 0x9E3779B97F4A7C15ULL + (out << 6) + (out >> 2);
        out = splitMix64(state);
    }
    return out;
}

} // namespace harp::common
