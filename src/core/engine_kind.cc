#include "core/engine_kind.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "common/ordered_merger.hh"
#include "common/thread_pool.hh"
#include "core/round_engine.hh"
#include "core/sliced_round_engine.hh"
#include "ecc/sliced_bch.hh"

namespace harp::core {

EngineKind
engineKindFromName(const std::string &name)
{
    if (name == "scalar")
        return EngineKind::Scalar;
    if (name == "sliced64")
        return EngineKind::Sliced64;
    throw std::invalid_argument("unknown engine kind: " + name +
                                " (expected scalar | sliced64)");
}

namespace {

using RoundFn = std::function<void(std::size_t round)>;

std::size_t
laneCount(EngineKind kind)
{
    return kind == EngineKind::Scalar ? 1 : gf2::BitSlice::laneCount;
}

/** Run every round on @p engine (a temporary: it dies on return). */
template <typename Engine>
void
runRounds(Engine &&engine, std::size_t rounds, const RoundFn &round)
{
    for (std::size_t r = 0; r < rounds; ++r) {
        engine.runRound();
        round(r);
    }
}

void
runScalar(const WordRun &run, const std::optional<ecc::BchCode> &bch,
          const WordLanes &lanes, const RoundFn &round)
{
    const fault::WordFaultModel &faults = *lanes.faults.front();
    const std::uint64_t seed = lanes.seeds.front();
    if (bch) {
        // BchCode decodes through per-instance scratch, so words that
        // may run concurrently each get a copy.
        const ecc::BchCode code = *bch;
        runRounds(RoundEngine(code, faults, run.pattern, seed,
                              lanes.profilers.front()),
                  run.rounds, round);
    } else {
        runRounds(RoundEngine(*lanes.codes.front(), faults, run.pattern,
                              seed, lanes.profilers.front()),
                  run.rounds, round);
    }
}

void
runSliced(const WordRun &run, const std::optional<ecc::SlicedBchCode> &bch,
          const WordLanes &lanes, const RoundFn &round)
{
    if (bch) {
        // The copy shares the memo thread-safely and owns its scratch;
        // engines never share one datapath instance across workers.
        const ecc::SlicedBchCode datapath(*bch);
        runRounds(SlicedRoundEngine(datapath, lanes.faults, run.pattern,
                                    lanes.seeds, lanes.profilers),
                  run.rounds, round);
    } else {
        runRounds(SlicedRoundEngine(lanes.codes, lanes.faults, run.pattern,
                                    lanes.seeds, lanes.profilers),
                  run.rounds, round);
    }
}

} // namespace

std::size_t
wordBlockCount(const WordRun &run)
{
    const std::size_t lanes = laneCount(run.engine);
    return (run.words + lanes - 1) / lanes;
}

void
profileWords(const WordRun &run, const BuildWordsFn &build,
             const WordRoundFn &afterRound, const FinishWordsFn &finish)
{
    const std::size_t lanes = laneCount(run.engine);
    // Blocks copy the BCH code concurrently, so they copy a private
    // instance: the callbacks may decode through *run.bch meanwhile.
    std::optional<ecc::BchCode> bch;
    if (run.bch != nullptr)
        bch.emplace(*run.bch);
    // One BCH datapath for the whole run: every block's copy reads and
    // fills the same syndrome memo (see ecc/sliced_bch.hh).
    std::optional<ecc::SlicedBchCode> slicedBch;
    if (bch && run.engine == EngineKind::Sliced64 && run.words > 0)
        slicedBch.emplace(*bch, std::min(lanes, run.words));

    const std::size_t blocks = wordBlockCount(run);
    common::OrderedMerger<std::size_t> released(blocks);
    common::parallelFor(blocks, [&](std::size_t block) {
        const std::size_t begin = block * lanes;
        WordLanes words;
        build(block, begin, std::min(begin + lanes, run.words), words);
        const RoundFn round = [&](std::size_t r) {
            if (afterRound)
                afterRound(block, r);
        };
        // The block's engine is gone before the release: its destructor
        // flushes lane-native observer groups through raw Profiler
        // pointers, and finish may free those profilers on another
        // thread.
        if (run.engine == EngineKind::Scalar)
            runScalar(run, bch, words, round);
        else
            runSliced(run, slicedBch, words, round);
        released.deposit(block, block,
                         [&](std::size_t done) { finish(done); });
    }, run.threads);
}

} // namespace harp::core
