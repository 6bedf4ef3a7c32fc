/**
 * @file
 * Memory data patterns used by active profiling rounds (HARP sections 6.2
 * and 7.1.2).
 *
 * The paper evaluates three patterns:
 *  - random:    a fresh random dataword every two rounds, inverted on the
 *               second round of each pair;
 *  - charged:   all '1's (0xFF), every cell of the data region charged;
 *  - checkered: alternating 0/1, inverted every other round.
 */

#ifndef HARP_CORE_DATA_PATTERN_HH
#define HARP_CORE_DATA_PATTERN_HH

#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "gf2/bit_vector.hh"

namespace harp::core {

/** Data-pattern policy for active profiling. */
enum class PatternKind
{
    Random,    ///< Random base pattern, inverted on odd rounds.
    Charged,   ///< All ones (0xFF...), every round.
    Checkered, ///< 0101... base pattern, inverted on odd rounds.
};

/** Parse a pattern name ("random", "charged", "checkered"); throws
 *  std::invalid_argument on bad input. */
PatternKind patternKindFromName(const std::string &name);

/**
 * Deterministic per-round dataword generator implementing the paper's
 * pattern schedule. Round indices are 0-based.
 */
class PatternGenerator
{
  public:
    /**
     * @param kind Pattern policy.
     * @param k    Dataword length.
     * @param seed Seed for the random policy's base patterns.
     */
    PatternGenerator(PatternKind kind, std::size_t k, std::uint64_t seed);

    PatternKind kind() const { return kind_; }

    /**
     * Dataword for round @p round: the base for even rounds, its
     * cached inverse for odd rounds, valid until the next call. Must
     * be called with non-decreasing round numbers (the random policy
     * advances its stream). Both engines read it in place, so
     * suggested patterns cost one randomize per two rounds plus one
     * cached inversion, with no per-round copies.
     */
    const gf2::BitVector &patternView(std::size_t round)
    {
        advance(round);
        if (kind_ == PatternKind::Charged || round % 2 == 0)
            return base_;
        if (invertedGeneration_ != baseGeneration_) {
            // One inversion per base generation (refreshed every two
            // rounds for Random; never for Checkered), reusing the
            // member's storage.
            if (inverted_.size() != base_.size())
                inverted_ = gf2::BitVector(base_.size());
            for (std::size_t w = 0; w < base_.words().size(); ++w)
                inverted_.setWord(w, ~base_.words()[w]);
            invertedGeneration_ = baseGeneration_;
        }
        return inverted_;
    }

  private:
    /** Refresh the random base when the round schedule demands it. */
    void advance(std::size_t round)
    {
        if (kind_ == PatternKind::Random && round >= nextFreshRound_) {
            // New random base every two rounds (pattern + inverse
            // pairs).
            base_.randomize(rng_);
            nextFreshRound_ = round + 2 - (round % 2);
            ++baseGeneration_;
        }
    }

    PatternKind kind_;
    std::size_t k_;
    common::Xoshiro256 rng_;
    gf2::BitVector base_;
    gf2::BitVector inverted_;
    std::size_t nextFreshRound_ = 0;
    /** Bumped on every base refresh; tags the inverse cache. */
    std::size_t baseGeneration_ = 1;
    /** baseGeneration_ the cached inverse was computed for; 0 = never. */
    std::size_t invertedGeneration_ = 0;
};

} // namespace harp::core

#endif // HARP_CORE_DATA_PATTERN_HH
