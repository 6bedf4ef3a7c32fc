/**
 * @file
 * Concurrency and sharing tests for the sliced-BCH syndrome memo.
 *
 * The memo is the one piece of shared mutable state on the sliced BCH
 * datapath; SlicedBchCode instances are *not* safe to share across
 * pool workers (mutable scratch), but copies are — they share the memo
 * through ecc/sliced_bch_memo.hh and own private scratch. The
 * ConcurrentCopiesHammerSharedMemo test drives exactly that pattern
 * from the thread pool with overlapping syndromes, so a TSan build
 * (cmake -DHARP_SANITIZE=thread, run by scripts/verify.sh --full)
 * witnesses the insertOrGet/find locking race-free; a regression to
 * unsynchronized memo access fails there deterministically.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "ecc/bch_general.hh"
#include "ecc/sliced_bch.hh"
#include "ecc/sliced_bch_memo.hh"
#include "gf2/bit_slice.hh"

namespace harp::ecc {
namespace {

TEST(SlicedBchMemo, CopiesShareTheMemo)
{
    common::Xoshiro256 rng(11);
    const BchCode code(64, 2);
    const SlicedBchCode original(code, 8);
    const SlicedBchCode copy(original);
    EXPECT_EQ(copy.memo(), original.memo());

    // Decodes through the copy populate the original's statistics.
    std::vector<gf2::BitVector> received;
    for (std::size_t w = 0; w < 8; ++w) {
        gf2::BitVector c =
            code.encode(gf2::BitVector::random(code.k(), rng));
        c.flip(rng.nextBelow(code.n()));
        received.push_back(std::move(c));
    }
    gf2::BitSlice received_slice(code.n());
    gf2::BitSlice data_out(code.k());
    received_slice.gather(received);
    copy.decodeData(received_slice, data_out);
    EXPECT_GT(original.memoMisses(), 0u);
    EXPECT_EQ(original.memoEntries(), copy.memoEntries());
}

TEST(SlicedBchMemo, CopyMadeAfterFillReusesEveryEntry)
{
    common::Xoshiro256 rng(13);
    const BchCode code(64, 2);
    const SlicedBchCode first(code, 16);
    std::vector<gf2::BitVector> received;
    for (std::size_t w = 0; w < 16; ++w) {
        gf2::BitVector c =
            code.encode(gf2::BitVector::random(code.k(), rng));
        c.flip(rng.nextBelow(code.n()));
        c.flip(rng.nextBelow(code.n()));
        received.push_back(std::move(c));
    }
    gf2::BitSlice received_slice(code.n());
    gf2::BitSlice data_out(code.k());
    received_slice.gather(received);
    first.decodeData(received_slice, data_out);
    const std::uint64_t misses = first.memoMisses();
    ASSERT_GT(misses, 0u);

    // A copy taken after the fill shares the filled table: the same
    // block through it is all hits.
    const SlicedBchCode second(first);
    EXPECT_EQ(second.memoEntries(), first.memoEntries());
    second.decodeData(received_slice, data_out);
    EXPECT_EQ(second.memoMisses(), misses);
    for (std::size_t w = 0; w < 16; ++w)
        EXPECT_EQ(data_out.extractWord(w), code.decode(received[w]).dataword);
}

TEST(SlicedBchMemo, ConcurrentCopiesHammerSharedMemo)
{
    // The TSan regression: many pool workers decode through per-worker
    // *copies* of one fresh (empty-memo) datapath. Tasks intentionally repeat
    // error patterns so distinct workers race find/insertOrGet on the
    // same keys; memoization is exact, so racing winners are
    // interchangeable and every lane must still decode bit-identically
    // to the scalar decoder.
    const BchCode code(64, 2);
    const std::size_t lanes = 32;
    const std::size_t tasks = 24;
    const std::size_t threads = 8;
    const SlicedBchCode base(code, lanes);

    // Pre-generate every task's block (and its scalar reference)
    // single-threaded; the parallel section touches only the datapath.
    std::vector<std::vector<gf2::BitVector>> blocks(tasks);
    std::vector<std::vector<gf2::BitVector>> expected(tasks);
    common::Xoshiro256 rng(17);
    for (std::size_t task = 0; task < tasks; ++task) {
        // Three distinct seeds cycled across tasks: every pattern is
        // decoded by several workers concurrently.
        common::Xoshiro256 task_rng(100 + task % 3);
        for (std::size_t w = 0; w < lanes; ++w) {
            gf2::BitVector c = code.encode(
                gf2::BitVector::random(code.k(), task_rng));
            const std::size_t weight = task_rng.nextBelow(4); // 0..3
            for (std::size_t e = 0; e < weight; ++e)
                c.flip(task_rng.nextBelow(code.n()));
            expected[task].push_back(code.decode(c).dataword);
            blocks[task].push_back(std::move(c));
        }
    }

    std::vector<char> ok(tasks, 0);
    common::parallelFor(tasks, [&](std::size_t task) {
        const SlicedBchCode datapath(base); // shares memo, owns scratch
        gf2::BitSlice received_slice(code.n());
        gf2::BitSlice data_out(code.k());
        received_slice.gather(blocks[task]);
        datapath.decodeData(received_slice, data_out);
        bool all = true;
        for (std::size_t w = 0; w < lanes; ++w)
            all = all &&
                  data_out.extractWord(w) == expected[task][w];
        ok[task] = all ? 1 : 0;
    }, threads);

    for (std::size_t task = 0; task < tasks; ++task)
        EXPECT_TRUE(ok[task]) << "task " << task;

    // Raced insertions of the same key collapse to one entry, and the
    // relaxed hit/miss tallies still account for every lookup.
    EXPECT_GT(base.memoEntries(), 0u);
    EXPECT_GE(base.memoHits() + base.memoMisses(), base.memoEntries());

    // Re-decoding any block now is pure hits: the winning entries are
    // complete, not torn.
    const std::uint64_t misses_before = base.memoMisses();
    gf2::BitSlice received_slice(code.n());
    gf2::BitSlice data_out(code.k());
    received_slice.gather(blocks[0]);
    base.decodeData(received_slice, data_out);
    EXPECT_EQ(base.memoMisses(), misses_before);
    for (std::size_t w = 0; w < lanes; ++w)
        EXPECT_EQ(data_out.extractWord(w), expected[0][w]);
}

} // namespace
} // namespace harp::ecc
