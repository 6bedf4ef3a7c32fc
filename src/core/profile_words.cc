#include "core/profile_words.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hh"
#include "core/sliced_round_engine.hh"
#include "ecc/sliced_bch.hh"

namespace harp::core {

namespace {

using RoundFn = std::function<void(std::size_t round)>;

/** One lane block's engine inputs, entry i describing its word i. */
struct WordLanes
{
    /** Per-word SEC codes; left empty for WordRun::bch words. */
    std::vector<const ecc::HammingCode *> codes;
    std::vector<const fault::WordFaultModel *> faults;
    std::vector<std::uint64_t> seeds;
    std::vector<std::vector<Profiler *>> profilers;
};

/** Run every round of one lane block on its own engine, which is gone
 *  on return. */
void
runBlock(const WordRun &run, const std::optional<ecc::SlicedBchCode> &bch,
         const WordLanes &lanes, const RoundFn &round)
{
    // A BCH block decodes through its own copy of the run's datapath:
    // the copy shares the memo thread-safely and owns its scratch.
    const std::optional<ecc::SlicedBchCode> datapath = bch;
    SlicedRoundEngine engine =
        datapath ? SlicedRoundEngine(*datapath, lanes.faults, run.pattern,
                                     lanes.seeds, lanes.profilers)
                 : SlicedRoundEngine(lanes.codes, lanes.faults, run.pattern,
                                     lanes.seeds, lanes.profilers);
    for (std::size_t r = 0; r < run.rounds; ++r) {
        engine.runRound();
        round(r);
    }
}

} // namespace

void
detail::profileWords(
    const WordRun &run,
    const std::function<OwnedWord(std::size_t, WordInputs &)> &make,
    const std::function<void(void *, std::size_t)> &afterRound,
    const std::function<void(void *)> &finish)
{
    constexpr std::size_t lanes = gf2::BitSlice::laneCount;
    // One BCH datapath for the whole run, built from the caller's code
    // before any callback runs: every block's copy reads and fills the
    // same syndrome memo (see ecc/sliced_bch.hh).
    std::optional<ecc::SlicedBchCode> bch;
    if (run.bch != nullptr && run.words > 0)
        bch.emplace(*run.bch, std::min(lanes, run.words));

    const std::size_t blocks = (run.words + lanes - 1) / lanes;
    const std::size_t workers = std::min<std::size_t>(
        run.threads != 0 ? run.threads
                         : std::max(1u, std::thread::hardware_concurrency()),
        blocks);

    // Blocks go out in ascending order and are finished in that order:
    // a worker whose block is done waits for its turn before it takes
    // another, so each worker holds at most one block.
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable turn;
    std::size_t finished = 0; // blocks finished so far
    bool failed = false;
    const auto profileBlock = [&](std::size_t block) {
        const std::size_t begin = block * lanes;
        const std::size_t end = std::min(begin + lanes, run.words);
        std::vector<OwnedWord> words;
        WordLanes inputs;
        for (std::size_t w = begin; w < end; ++w) {
            WordInputs word;
            words.push_back(make(w, word));
            if ((word.code != nullptr) == (run.bch != nullptr))
                throw std::invalid_argument(
                    "profileWords: a word has a SEC code iff no run.bch");
            if (word.code != nullptr)
                inputs.codes.push_back(word.code);
            inputs.faults.push_back(word.faults);
            inputs.seeds.push_back(word.seed);
            inputs.profilers.push_back(std::move(word.profilers));
        }
        const RoundFn round = [&](std::size_t r) {
            for (const OwnedWord &word : words)
                afterRound(word.get(), r);
        };
        // The block's engine is gone before its words finish: its
        // destructor flushes lane-native observer groups through raw
        // Profiler pointers, and finish may read those profilers.
        runBlock(run, bch, inputs, round);

        {
            std::unique_lock<std::mutex> lock(mutex);
            turn.wait(lock, [&] { return finished == block || failed; });
            if (failed)
                return;
        }
        // No other worker passes its wait until finished moves on, so
        // the finish calls run serialized without the lock.
        for (const OwnedWord &word : words)
            finish(word.get());
        {
            const std::lock_guard<std::mutex> lock(mutex);
            ++finished;
        }
        turn.notify_all();
    };
    common::parallelFor(workers, [&](std::size_t) {
        for (std::size_t block; (block = next++) < blocks;) {
            try {
                profileBlock(block);
            } catch (...) {
                // Wake the workers waiting for their turn and hand out
                // no further blocks; parallelFor rethrows.
                next = blocks;
                {
                    const std::lock_guard<std::mutex> lock(mutex);
                    failed = true;
                }
                turn.notify_all();
                throw;
            }
        }
    }, workers);
}

} // namespace harp::core
