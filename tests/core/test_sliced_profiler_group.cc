/**
 * @file
 * Unit tests for the lane-native observation subsystem
 * (core/sliced_profiler_group.hh): group formation rules, lazy
 * flush-on-read semantics, equivalence with scalar observe() calls for
 * every lane-native profiler kind, and flush-and-detach on group
 * destruction.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/beep_profiler.hh"
#include "core/harp_a_beep_profiler.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/sliced_profiler_group.hh"
#include "ecc/hamming_code.hh"
#include "gf2/bit_slice.hh"

namespace harp::core {
namespace {

constexpr std::size_t kBits = 16;

/** Gather per-lane words into (written, post, received) slices. */
struct LaneRound
{
    explicit LaneRound(std::size_t n)
        : written(kBits), post(kBits), received(n)
    {
    }

    void load(const std::vector<gf2::BitVector> &w,
              const std::vector<gf2::BitVector> &p,
              const std::vector<gf2::BitVector> &r)
    {
        written.gather(w);
        post.gather(p);
        received.gather(r);
    }

    RoundLaneObservation obs() const { return {written, post, received}; }

    gf2::BitSlice written;
    gf2::BitSlice post;
    gf2::BitSlice received;
};

TEST(SlicedProfilerGroup, FormationRules)
{
    common::Xoshiro256 rng(1);
    const ecc::HammingCode code = ecc::HammingCode::randomSec(kBits, rng);

    NaiveProfiler naive_a(kBits), naive_b(kBits);
    HarpUProfiler harp_u(kBits);
    HarpAProfiler harp_a(code);
    BeepProfiler beep(code);
    HarpABeepProfiler hybrid(code);
    NaiveProfiler short_k(kBits / 2);

    // Same-kind slots form; kind is carried through.
    auto naive_group = SlicedProfilerGroup::tryMake(
        {&naive_a, &naive_b}, kBits);
    ASSERT_NE(naive_group, nullptr);
    EXPECT_EQ(naive_group->kind(), LaneObserveKind::PostCorrection);
    naive_group.reset();

    auto aware_group = SlicedProfilerGroup::tryMake({&harp_a}, kBits);
    ASSERT_NE(aware_group, nullptr);
    EXPECT_EQ(aware_group->kind(), LaneObserveKind::BypassAware);
    aware_group.reset();

    // Crafting profilers never form groups.
    EXPECT_EQ(SlicedProfilerGroup::tryMake({&beep}, kBits), nullptr);
    EXPECT_EQ(SlicedProfilerGroup::tryMake({&hybrid}, kBits), nullptr);
    // Mixed kinds across lanes do not form.
    EXPECT_EQ(SlicedProfilerGroup::tryMake({&naive_a, &harp_u}, kBits),
              nullptr);
    EXPECT_EQ(SlicedProfilerGroup::tryMake({&harp_u, &harp_a}, kBits),
              nullptr);
    // Dataword-length mismatches do not form.
    EXPECT_EQ(SlicedProfilerGroup::tryMake({&naive_a, &short_k}, kBits),
              nullptr);
    // Empty slots do not form.
    EXPECT_EQ(SlicedProfilerGroup::tryMake({}, kBits), nullptr);
}

TEST(SlicedProfilerGroup, FlushOnReadMatchesScalarObserve)
{
    // Two lanes of every lane-native kind driven through the group,
    // with twin profilers driven through scalar observe() as the
    // reference; reading identified() mid-run must already flush.
    common::Xoshiro256 rng(2);
    const ecc::HammingCode code_a =
        ecc::HammingCode::randomSec(kBits, rng);
    const ecc::HammingCode code_b =
        ecc::HammingCode::randomSec(kBits, rng);
    const std::size_t n = code_a.n();

    NaiveProfiler naive_lane0(kBits), naive_lane1(kBits);
    NaiveProfiler naive_ref0(kBits), naive_ref1(kBits);
    HarpUProfiler harpu_lane0(kBits), harpu_lane1(kBits);
    HarpUProfiler harpu_ref0(kBits), harpu_ref1(kBits);
    HarpAProfiler harpa_lane0(code_a), harpa_lane1(code_b);
    HarpAProfiler harpa_ref0(code_a), harpa_ref1(code_b);

    auto naive_group = SlicedProfilerGroup::tryMake(
        {&naive_lane0, &naive_lane1}, kBits);
    auto harpu_group = SlicedProfilerGroup::tryMake(
        {&harpu_lane0, &harpu_lane1}, kBits);
    auto harpa_group = SlicedProfilerGroup::tryMake(
        {&harpa_lane0, &harpa_lane1}, kBits);
    ASSERT_NE(naive_group, nullptr);
    ASSERT_NE(harpu_group, nullptr);
    ASSERT_NE(harpa_group, nullptr);

    LaneRound lanes(n);
    for (std::size_t round = 0; round < 24; ++round) {
        std::vector<gf2::BitVector> written, post, received;
        for (std::size_t w = 0; w < 2; ++w) {
            written.push_back(gf2::BitVector::random(kBits, rng));
            // Post and raw each differ from written in a few random
            // positions (incl. none), exercising growth and repeats.
            gf2::BitVector p = written.back();
            gf2::BitVector r(n);
            r.assignAt(0, written.back());
            for (std::size_t e = rng.nextBelow(3); e > 0; --e)
                p.flip(rng.nextBelow(kBits));
            for (std::size_t e = rng.nextBelow(3); e > 0; --e)
                r.flip(rng.nextBelow(kBits));
            post.push_back(std::move(p));
            received.push_back(std::move(r));
        }
        lanes.load(written, post, received);
        naive_group->observeLanes(lanes.obs());
        harpu_group->observeLanes(lanes.obs());
        harpa_group->observeLanes(lanes.obs());

        std::vector<gf2::BitVector> raw;
        for (std::size_t w = 0; w < 2; ++w)
            raw.push_back(received[w].slice(0, kBits));
        for (std::size_t w = 0; w < 2; ++w) {
            const RoundObservation obs{written[w], post[w], raw[w]};
            (w == 0 ? naive_ref0 : naive_ref1).observe(obs);
            (w == 0 ? harpu_ref0 : harpu_ref1).observe(obs);
            (w == 0 ? harpa_ref0 : harpa_ref1).observe(obs);
        }

        // identified() flushes pending lane state transparently.
        EXPECT_EQ(naive_lane0.identified(), naive_ref0.identified());
        EXPECT_EQ(naive_lane1.identified(), naive_ref1.identified());
        EXPECT_EQ(harpu_lane0.identified(), harpu_ref0.identified());
        EXPECT_EQ(harpu_lane1.identified(), harpu_ref1.identified());
        EXPECT_EQ(harpa_lane0.identified(), harpa_ref0.identified());
        EXPECT_EQ(harpa_lane1.identified(), harpa_ref1.identified());
        // Direct profiles flush through the same path.
        EXPECT_EQ(harpu_lane0.identifiedDirect(),
                  harpu_ref0.identifiedDirect());
        EXPECT_EQ(harpa_lane1.identifiedDirect(),
                  harpa_ref1.identifiedDirect());
        EXPECT_FALSE(naive_group->dirty());
    }
}

TEST(SlicedProfilerGroup, LazyFlushOnlyOnRead)
{
    common::Xoshiro256 rng(3);
    NaiveProfiler lane(kBits);
    auto group = SlicedProfilerGroup::tryMake({&lane}, kBits);
    ASSERT_NE(group, nullptr);
    EXPECT_FALSE(group->dirty());

    LaneRound lanes(kBits + 5);
    gf2::BitVector written = gf2::BitVector::random(kBits, rng);
    gf2::BitVector post = written;
    post.flip(7);
    gf2::BitVector received(kBits + 5);
    lanes.load({written}, {post}, {received});
    group->observeLanes(lanes.obs());
    EXPECT_TRUE(group->dirty());

    // Reading the profile flushes; the flushed state sticks.
    EXPECT_TRUE(lane.identified().get(7));
    EXPECT_FALSE(group->dirty());
    EXPECT_EQ(lane.identified().popcount(), 1u);
}

/** A mismatch at a cell the lane already identified grows no profile:
 *  the group stays clean and every profile keeps its state. */
TEST(SlicedProfilerGroup, RepeatedMismatchAtIdentifiedCellStaysClean)
{
    common::Xoshiro256 rng(5);
    const ecc::HammingCode code = ecc::HammingCode::randomSec(kBits, rng);
    NaiveProfiler naive(kBits);
    HarpUProfiler harp_u(kBits);
    HarpAProfiler harp_a(code);
    const std::vector<Profiler *> lanes_of = {&naive, &harp_u, &harp_a};
    std::vector<std::unique_ptr<SlicedProfilerGroup>> groups;
    for (Profiler *p : lanes_of) {
        groups.push_back(SlicedProfilerGroup::tryMake({p}, kBits));
        ASSERT_NE(groups.back(), nullptr);
    }

    const gf2::BitVector written = gf2::BitVector::random(kBits, rng);
    gf2::BitVector flipped = written;
    flipped.flip(7);
    gf2::BitVector received(code.n());
    received.assignAt(0, flipped);
    LaneRound lanes(code.n());
    lanes.load({written}, {flipped}, {received});

    std::vector<gf2::BitVector> first;
    for (std::size_t round = 0; round < 3; ++round) {
        for (auto &group : groups)
            group->observeLanes(lanes.obs());
        for (std::size_t g = 0; g < groups.size(); ++g) {
            EXPECT_EQ(groups[g]->dirty(), round == 0) << "group " << g;
            if (round == 0)
                first.push_back(lanes_of[g]->identified());
            else
                EXPECT_EQ(lanes_of[g]->identified(), first[g]);
        }
        EXPECT_EQ(harp_u.identifiedDirect().popcount(), 1u);
        EXPECT_EQ(harp_a.identifiedDirect().popcount(), 1u);
    }
    EXPECT_TRUE(first[0].get(7));
}

/** HARP-A: a cell first identified by prediction and later observed
 *  directly grows only the direct set. The group must still flush, or
 *  identifiedDirect() would miss the cell. */
TEST(SlicedProfilerGroup, PredictedCellObservedDirectlyFlushesDirectSet)
{
    common::Xoshiro256 rng(6);
    const ecc::HammingCode code = ecc::HammingCode::randomSec(kBits, rng);
    // Data cells a, b whose double error miscorrects data bit c.
    std::size_t a = 0, b = 0, c = kBits;
    for (std::size_t i = 0; i < kBits && c == kBits; ++i) {
        for (std::size_t j = i + 1; j < kBits; ++j) {
            const auto target = code.syndromeToPosition(
                code.dataColumn(i) ^ code.dataColumn(j));
            if (target && code.isDataPosition(*target)) {
                a = i, b = j, c = *target;
                break;
            }
        }
    }
    ASSERT_LT(c, kBits);

    HarpAProfiler lane(code), ref(code);
    auto group = SlicedProfilerGroup::tryMake({&lane}, kBits);
    ASSERT_NE(group, nullptr);
    LaneRound lanes(code.n());
    const gf2::BitVector written(kBits);
    for (const std::vector<std::size_t> &cells :
         {std::vector<std::size_t>{a, b}, std::vector<std::size_t>{c}}) {
        gf2::BitVector raw = written;
        for (const std::size_t cell : cells)
            raw.flip(cell);
        gf2::BitVector received(code.n());
        received.assignAt(0, raw);
        lanes.load({written}, {written}, {received});
        group->observeLanes(lanes.obs());
        ref.observe({written, written, raw});
        EXPECT_TRUE(group->dirty());
        EXPECT_EQ(lane.identifiedDirect(), ref.identifiedDirect());
        EXPECT_EQ(lane.identified(), ref.identified());
    }
    EXPECT_TRUE(lane.identifiedDirect().get(c));
}

TEST(SlicedProfilerGroup, GroupDestructionFlushesAndDetaches)
{
    common::Xoshiro256 rng(4);
    NaiveProfiler lane(kBits);
    {
        auto group = SlicedProfilerGroup::tryMake({&lane}, kBits);
        ASSERT_NE(group, nullptr);
        LaneRound lanes(kBits);
        gf2::BitVector written = gf2::BitVector::random(kBits, rng);
        gf2::BitVector post = written;
        post.flip(3);
        lanes.load({written}, {post}, {written});
        group->observeLanes(lanes.obs());
        // No read before destruction: the dtor must flush.
    }
    EXPECT_TRUE(lane.identified().get(3));
}

} // namespace
} // namespace harp::core
