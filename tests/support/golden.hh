/**
 * @file
 * Golden-value helpers: platform-stable hashing of test outputs so a
 * test can pin a whole result (bit vectors, double series, tables) to
 * one 64-bit constant instead of dozens of element-wise expectations.
 */

#ifndef HARP_TESTS_SUPPORT_GOLDEN_HH
#define HARP_TESTS_SUPPORT_GOLDEN_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/bits.hh"
#include "gf2/bit_vector.hh"

namespace harp::core {
struct CaseStudyResult;
struct CoverageResult;
} // namespace harp::core

namespace harp::test {

/** FNV-1a offset basis; the seed for all hash chains below (the same
 *  chain common::fnv1a64 continues). */
inline constexpr std::uint64_t kGoldenInit = common::fnv1a64Init;

/** Mix one 64-bit value into a running golden hash. */
std::uint64_t goldenMix(std::uint64_t hash, std::uint64_t value);

/** Mix a byte string into a running golden hash. */
std::uint64_t goldenMix(std::uint64_t hash, const std::string &text);

/** Mix a double into a running golden hash via its bit pattern. */
std::uint64_t goldenMixDouble(std::uint64_t hash, double value);

/** Hash of a bit vector (length and contents). */
std::uint64_t goldenOf(const gf2::BitVector &bits);

/** Hash of a double series, order-sensitive. */
std::uint64_t goldenOf(const std::vector<double> &values);

/** Hash of an integer series, order-sensitive. */
std::uint64_t goldenOf(const std::vector<std::uint64_t> &values);

/** Hash of a complete case-study result, every series value. */
std::uint64_t goldenOf(const core::CaseStudyResult &result);

/** Hash of every coverage aggregate: ground-truth totals, the
 *  per-round sums, the bootstrap and bound-quantile sample sets and the
 *  final simultaneous-error histogram. */
std::uint64_t goldenOf(const core::CoverageResult &result);

/**
 * Assertion comparing a computed golden hash to its pinned value,
 * printing both in hex so an intentional change is easy to re-pin.
 */
::testing::AssertionResult goldenMatches(std::uint64_t actual,
                                         std::uint64_t expected);

} // namespace harp::test

#endif // HARP_TESTS_SUPPORT_GOLDEN_HH
