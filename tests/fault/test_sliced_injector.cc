/**
 * @file
 * Equivalence tests for the bit-sliced CRN fault injector: with each
 * lane's RNG seeded identically to a scalar reference, apply() must
 * reproduce WordFaultModel::injectErrorsCrn exactly — across mixed
 * fault models, probabilities, cell technologies and repeated
 * application within a round (the common-random-number contract).
 */

#include <gtest/gtest.h>

#include "fault/sliced_injector.hh"
#include "support/property.hh"

namespace harp::fault {
namespace {

using test::forEachSeed;

/** The scalar reference: the per-word uniforms buffer the scalar round
 *  engine feeds injectErrorsCrn. */
std::vector<double>
drawUniforms(const WordFaultModel &model, common::Xoshiro256 &rng)
{
    std::vector<double> uniforms(model.numFaults());
    for (double &u : uniforms)
        u = rng.nextDouble();
    return uniforms;
}

TEST(SlicedCrnInjector, MatchesScalarInjectErrorsCrn)
{
    forEachSeed(6, [](std::uint64_t seed, common::Xoshiro256 &rng) {
        const std::size_t word_bits = 71;
        const std::size_t lanes = 37;

        // Heterogeneous lane population: varying cell counts,
        // probabilities and technologies, including fault-free lanes.
        std::vector<WordFaultModel> models;
        for (std::size_t w = 0; w < lanes; ++w) {
            const std::size_t count = w % 7; // 0..6 at-risk cells
            const double probability = 0.25 * static_cast<double>(w % 5);
            WordFaultModel base = WordFaultModel::makeUniformFixedCount(
                word_bits, count, probability, rng);
            const CellTechnology tech = (w % 3 == 0)
                                            ? CellTechnology::AntiCell
                                            : CellTechnology::TrueCell;
            models.emplace_back(word_bits, base.faults(), tech);
        }
        std::vector<const WordFaultModel *> ptrs;
        for (const WordFaultModel &model : models)
            ptrs.push_back(&model);
        SlicedCrnInjector injector(ptrs);
        ASSERT_EQ(injector.wordBits(), word_bits);

        // Per-lane RNGs, plus identically seeded scalar references.
        std::vector<common::Xoshiro256> lane_rngs;
        std::vector<common::Xoshiro256> ref_rngs;
        for (std::size_t w = 0; w < lanes; ++w) {
            const std::uint64_t s = common::deriveSeed(seed, {w});
            lane_rngs.emplace_back(s);
            ref_rngs.emplace_back(s);
        }

        for (std::size_t round = 0; round < 8; ++round) {
            injector.drawRound(lane_rngs);
            std::vector<std::vector<double>> uniforms;
            for (std::size_t w = 0; w < lanes; ++w)
                uniforms.push_back(drawUniforms(models[w], ref_rngs[w]));

            // The CRN contract: the same trials apply to *different*
            // stored codewords (one per profiler) within one round.
            for (std::size_t use = 0; use < 3; ++use) {
                std::vector<gf2::BitVector> stored;
                for (std::size_t w = 0; w < lanes; ++w)
                    stored.push_back(
                        gf2::BitVector::random(word_bits, rng));
                gf2::BitSlice64 stored_slice(word_bits);
                stored_slice.gather(stored);
                gf2::BitSlice64 received = stored_slice;
                injector.apply(stored_slice, received);

                std::vector<gf2::BitVector> out(
                    lanes, gf2::BitVector(word_bits));
                received.scatter(out);
                for (std::size_t w = 0; w < lanes; ++w) {
                    gf2::BitVector expected = stored[w];
                    expected ^= models[w].injectErrorsCrn(stored[w],
                                                          uniforms[w]);
                    ASSERT_EQ(out[w], expected)
                        << "round " << round << ", use " << use
                        << ", lane " << w;
                }
            }
        }
    });
}

/**
 * The injector is code-agnostic over the word length: BCH codewords
 * are longer than the Hamming (71, 64) shape (t = 3 over k = 64 gives
 * n = 85), and the sliced engine feeds it whatever n the SlicedCode
 * reports. Check the scalar-equivalence contract at a BCH geometry
 * with cells concentrated in the (wide) parity region.
 */
TEST(SlicedCrnInjector, MatchesScalarAtBchWordLengths)
{
    forEachSeed(2, [](std::uint64_t seed, common::Xoshiro256 &rng) {
        const std::size_t word_bits = 85; // (85, 64) t = 3 BCH shape
        const std::size_t lanes = 9;
        std::vector<WordFaultModel> models;
        for (std::size_t w = 0; w < lanes; ++w) {
            // Bias at-risk cells into the parity tail [64, 85).
            std::vector<CellFault> cells;
            for (std::size_t c = 0; c < 1 + w % 4; ++c)
                cells.push_back(
                    {64 + (w * 5 + c) % 21, 0.25 * (1 + w % 3)});
            models.emplace_back(word_bits, cells);
        }
        std::vector<const WordFaultModel *> ptrs;
        for (const WordFaultModel &model : models)
            ptrs.push_back(&model);
        SlicedCrnInjector injector(ptrs);
        ASSERT_EQ(injector.wordBits(), word_bits);

        std::vector<common::Xoshiro256> lane_rngs;
        std::vector<common::Xoshiro256> ref_rngs;
        for (std::size_t w = 0; w < lanes; ++w) {
            const std::uint64_t s = common::deriveSeed(seed, {w});
            lane_rngs.emplace_back(s);
            ref_rngs.emplace_back(s);
        }
        for (std::size_t round = 0; round < 6; ++round) {
            injector.drawRound(lane_rngs);
            std::vector<gf2::BitVector> stored;
            for (std::size_t w = 0; w < lanes; ++w)
                stored.push_back(gf2::BitVector::random(word_bits, rng));
            gf2::BitSlice64 stored_slice(word_bits);
            stored_slice.gather(stored);
            gf2::BitSlice64 received = stored_slice;
            injector.apply(stored_slice, received);
            for (std::size_t w = 0; w < lanes; ++w) {
                gf2::BitVector expected = stored[w];
                expected ^= models[w].injectErrorsCrn(
                    stored[w], drawUniforms(models[w], ref_rngs[w]));
                ASSERT_EQ(received.extractWord(w), expected)
                    << "round " << round << ", lane " << w;
            }
        }
    });
}

TEST(SlicedCrnInjector, RejectsMismatchedLanes)
{
    common::Xoshiro256 rng(1);
    const WordFaultModel a =
        WordFaultModel::makeUniformFixedCount(71, 2, 0.5, rng);
    const WordFaultModel b =
        WordFaultModel::makeUniformFixedCount(72, 2, 0.5, rng);
    EXPECT_THROW(SlicedCrnInjector({&a, &b}), std::invalid_argument);
    EXPECT_THROW(
        SlicedCrnInjector(std::vector<const WordFaultModel *>{}),
        std::invalid_argument);
}

} // namespace
} // namespace harp::fault
