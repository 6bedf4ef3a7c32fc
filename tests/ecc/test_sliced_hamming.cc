/**
 * @file
 * Equivalence tests for the bit-sliced SEC Hamming evaluator:
 * sliced encode and syndrome decode must match the scalar code paths
 * position-for-position across random seeds, code lengths (including
 * shortened codes), heterogeneous per-lane codes, error multiplicities
 * and ragged lane counts.
 */

#include <gtest/gtest.h>

#include "ecc/sliced_hamming.hh"
#include "support/property.hh"

namespace harp::ecc {
namespace {

using test::forEachSeed;

/** Gather @p lanes random datawords, slice-encode and corrupt them with
 *  @p flips random codeword positions per lane, and compare encode +
 *  decode against the scalar code of each lane. */
void
checkLanesAgainstScalar(const std::vector<HammingCode> &codes,
                        std::size_t flips, common::Xoshiro256 &rng)
{
    const std::size_t lanes = codes.size();
    const std::size_t k = codes[0].k();
    const std::size_t n = codes[0].n();
    std::vector<const HammingCode *> ptrs;
    for (const HammingCode &code : codes)
        ptrs.push_back(&code);
    const SlicedHammingCode sliced(ptrs);
    ASSERT_EQ(sliced.k(), k);
    ASSERT_EQ(sliced.n(), n);
    ASSERT_EQ(sliced.lanes(), lanes);

    std::vector<gf2::BitVector> datawords;
    for (std::size_t w = 0; w < lanes; ++w)
        datawords.push_back(gf2::BitVector::random(k, rng));

    gf2::BitSlice data(k);
    data.gather(datawords);
    gf2::BitSlice codeword(n);
    sliced.encode(data, codeword);

    std::vector<gf2::BitVector> received;
    std::vector<gf2::BitVector> encoded(lanes, gf2::BitVector(n));
    codeword.scatter(encoded);
    for (std::size_t w = 0; w < lanes; ++w) {
        ASSERT_EQ(encoded[w], codes[w].encode(datawords[w]))
            << "lane " << w << ": sliced encode differs";
        gf2::BitVector corrupted = encoded[w];
        for (std::size_t f = 0; f < flips; ++f)
            corrupted.flip(rng.nextBelow(n));
        received.push_back(std::move(corrupted));
    }

    gf2::BitSlice received_slice(n);
    received_slice.gather(received);
    gf2::BitSlice decoded(k);
    sliced.decodeData(received_slice, decoded);
    std::vector<gf2::BitVector> post(lanes, gf2::BitVector(k));
    decoded.scatter(post);
    for (std::size_t w = 0; w < lanes; ++w) {
        const DecodeResult scalar = codes[w].decode(received[w]);
        ASSERT_EQ(post[w], scalar.dataword)
            << "lane " << w << ": sliced decode differs (k=" << k
            << ", flips=" << flips << ")";
    }
}

TEST(SlicedHamming, MatchesScalarAcrossCodeLengthsAndErrorCounts)
{
    // k=30 and k=100 give shortened codes (unmatched syndromes exist);
    // k=64/128 are the paper's configurations.
    const std::size_t ks[] = {8, 30, 64, 100, 128};
    const std::size_t lane_counts[] = {1, 5, 64};
    forEachSeed(4, [&](std::uint64_t, common::Xoshiro256 &rng) {
        for (const std::size_t k : ks) {
            for (const std::size_t lanes : lane_counts) {
                std::vector<HammingCode> codes;
                for (std::size_t w = 0; w < lanes; ++w)
                    codes.push_back(HammingCode::randomSec(k, rng));
                for (const std::size_t flips : {0, 1, 2, 3})
                    checkLanesAgainstScalar(codes, flips, rng);
            }
        }
    });
}

TEST(SlicedHamming, SyndromeLanesMatchScalarSyndromes)
{
    forEachSeed(3, [](std::uint64_t, common::Xoshiro256 &rng) {
        std::vector<HammingCode> codes;
        for (std::size_t w = 0; w < 17; ++w)
            codes.push_back(HammingCode::randomSec(64, rng));
        std::vector<const HammingCode *> ptrs;
        for (const HammingCode &code : codes)
            ptrs.push_back(&code);
        const SlicedHammingCode sliced(ptrs);

        std::vector<gf2::BitVector> received;
        for (std::size_t w = 0; w < codes.size(); ++w)
            received.push_back(
                gf2::BitVector::random(codes[w].n(), rng));
        gf2::BitSlice slice(sliced.n());
        slice.gather(received);
        std::uint64_t s[32] = {};
        sliced.syndromes(slice, s);
        for (std::size_t w = 0; w < codes.size(); ++w) {
            std::uint32_t lane_syndrome = 0;
            for (std::size_t j = 0; j < codes[w].p(); ++j)
                if ((s[j] >> w) & 1)
                    lane_syndrome |= std::uint32_t{1} << j;
            ASSERT_EQ(lane_syndrome, codes[w].syndrome(received[w]))
                << "lane " << w;
        }
    });
}

/**
 * Oracle for the transposed column build: encoding the unit dataword
 * e_i in every lane makes parity lane j the mask of lanes whose column
 * i has bit j set, which is compared with the per-bit definition. k =
 * 100 and 128 span two 64-position blocks, 37 lanes a ragged block.
 */
TEST(SlicedHamming, ColumnMasksMatchPerBitBuild)
{
    common::Xoshiro256 rng(31);
    for (const std::size_t lanes : {1, 37, 64}) {
        for (const std::size_t k : {64, 100, 128}) {
            std::vector<HammingCode> codes;
            for (std::size_t w = 0; w < lanes; ++w)
                codes.push_back(HammingCode::randomSec(k, rng));
            std::vector<const HammingCode *> ptrs;
            for (const HammingCode &code : codes)
                ptrs.push_back(&code);
            const SlicedHammingCode sliced(ptrs);
            const std::size_t p = codes[0].p();
            const std::uint64_t live =
                lanes == 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << lanes) - 1;

            gf2::BitSlice data(k), codeword(sliced.n());
            for (std::size_t i = 0; i < k; ++i) {
                data.clear();
                data.lane(i) = ~std::uint64_t{0};
                sliced.encode(data, codeword);
                for (std::size_t j = 0; j < p; ++j) {
                    std::uint64_t expected = 0;
                    for (std::size_t w = 0; w < lanes; ++w)
                        if ((codes[w].dataColumn(i) >> j) & 1)
                            expected |= std::uint64_t{1} << w;
                    ASSERT_EQ(codeword.lane(k + j) & live, expected)
                        << "lanes " << lanes << ", k " << k
                        << ", column " << i << ", bit " << j;
                }
            }
        }
    }
}

TEST(SlicedHamming, RejectsMismatchedLanes)
{
    common::Xoshiro256 rng(1);
    const HammingCode a = HammingCode::randomSec(64, rng);
    const HammingCode b = HammingCode::randomSec(128, rng);
    EXPECT_THROW(SlicedHammingCode({&a, &b}), std::invalid_argument);
    EXPECT_THROW(SlicedHammingCode(std::vector<const HammingCode *>{}),
                 std::invalid_argument);
}

} // namespace
} // namespace harp::ecc
