/**
 * @file
 * Low-level bit-manipulation helpers shared by all HARP modules.
 */

#ifndef HARP_COMMON_BITS_HH
#define HARP_COMMON_BITS_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace harp::common {

/** Number of bits in one storage word used by packed bit containers. */
inline constexpr std::size_t wordBits = 64;

/** Index of the 64-bit word that holds bit @p bit. */
constexpr std::size_t
wordIndex(std::size_t bit)
{
    return bit / wordBits;
}

/** Offset of bit @p bit within its 64-bit word. */
constexpr std::size_t
bitOffset(std::size_t bit)
{
    return bit % wordBits;
}

/** Number of 64-bit words needed to store @p bits bits. */
constexpr std::size_t
wordsFor(std::size_t bits)
{
    return (bits + wordBits - 1) / wordBits;
}

/**
 * Mask selecting the valid low bits of the final storage word of an
 * @p bits -bit container. Returns all-ones when @p bits is a multiple of 64.
 */
constexpr std::uint64_t
tailMask(std::size_t bits)
{
    const std::size_t rem = bits % wordBits;
    return rem == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << rem) - 1);
}

/**
 * Mask of the low @p lanes bits (all-ones for 64): the live-lane mask
 * of a bit-sliced block whose dead-lane bits hold garbage. One
 * definition, because the ragged-tail masking rule is load-bearing
 * everywhere transposed lanes are consumed.
 */
constexpr std::uint64_t
laneMask(std::size_t lanes)
{
    return lanes >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << lanes) - 1;
}

/** Parity (XOR-reduction) of a 64-bit word: 1 if an odd number of set bits. */
constexpr int
parity64(std::uint64_t x)
{
    return std::popcount(x) & 1;
}

/** FNV-1a offset basis: the initial value for fnv1a64 hash chains. */
inline constexpr std::uint64_t fnv1a64Init = 0xCBF29CE484222325ULL;

/**
 * FNV-1a over a byte string, continuing from @p hash. Platform-stable,
 * so result hashes can be pinned in golden tests and compared across
 * campaign runs.
 */
constexpr std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t hash = fnv1a64Init)
{
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x00000100000001B3ULL;
    }
    return hash;
}

} // namespace harp::common

#endif // HARP_COMMON_BITS_HH
