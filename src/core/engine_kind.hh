/**
 * @file
 * Selection between the scalar and bit-sliced profiling-round engines,
 * and the one driver that runs a word set through the selected engine.
 *
 * Both engines execute the exact same simulation — identical seed
 * derivation, RNG stream consumption and GF(2) arithmetic — so a
 * seed-fixed experiment produces byte-identical results under either.
 * The sliced engine simply retires 64 ECC words per word-op on the
 * encode/inject/decode hot path (core/sliced_round_engine.hh).
 *
 * Callers hand the driver words one at a time; which words share a
 * lane block, where they live and which worker runs them is its own.
 */

#ifndef HARP_CORE_ENGINE_KIND_HH
#define HARP_CORE_ENGINE_KIND_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/data_pattern.hh"

namespace harp::ecc {
class BchCode;
class HammingCode;
} // namespace harp::ecc

namespace harp::fault {
class WordFaultModel;
} // namespace harp::fault

namespace harp::core {

class Profiler;

/** Profiling-round engine implementation. */
enum class EngineKind
{
    Scalar,   ///< One ECC word at a time (core/round_engine.hh).
    Sliced64, ///< 64 ECC words per lane-op (core/sliced_round_engine.hh).
};

/** Parse an engine name ("scalar" or "sliced64"); throws
 *  std::invalid_argument naming both on bad input. */
EngineKind engineKindFromName(const std::string &name);

/** A word set to profile: which engine, how many words and rounds. */
struct WordRun
{
    EngineKind engine = EngineKind::Sliced64;
    std::size_t words = 0;
    std::size_t rounds = 0;
    PatternKind pattern = PatternKind::Random;
    /** Workers the words shard across (0 = hardware). */
    std::size_t threads = 1;
    /** The words' shared t-error BCH code, copied before any word is
     *  made (so callbacks may decode through it); null when every word
     *  brings its own SEC code. */
    const ecc::BchCode *bch = nullptr;
};

/** What the engine reads of one word. The pointees belong to the word
 *  and live as long as it does. */
struct WordInputs
{
    /** The word's SEC code; null for WordRun::bch words. */
    const ecc::HammingCode *code = nullptr;
    const fault::WordFaultModel *faults = nullptr;
    std::uint64_t seed = 0;
    /** Every word passes the same number of profilers. */
    std::vector<Profiler *> profilers;
};

namespace detail {

/** A made word with its type erased: the driver only frees it. */
using OwnedWord = std::unique_ptr<void, void (*)(void *)>;

/** profileWords over type-erased words: make returns the word and
 *  fills its inputs; every callback is set. */
void profileWords(
    const WordRun &run,
    const std::function<OwnedWord(std::size_t w, WordInputs &inputs)> &make,
    const std::function<void(void *word, std::size_t round)> &afterRound,
    const std::function<void(void *word)> &finish);

} // namespace detail

/**
 * Profile run.words words through run.engine:
 *
 *  - make(w) builds word w, whose inputs() names what the engine reads
 *    (see WordInputs); it may run on any worker, concurrently;
 *  - afterRound(word, r), if set, runs after each round r of the word,
 *    on the worker profiling it;
 *  - finish(word) runs once per word, serialized and in ascending word
 *    order, after the word's engine is gone (which flushes every
 *    profiler's identified()). The driver frees the word afterwards.
 *
 * Words run in lane blocks of 1 (scalar) or 64 (sliced) consecutive
 * words, the blocks sharded over run.threads workers. A worker keeps
 * one block at a time, so at most lanes × threads words are alive.
 * BCH words share one sliced datapath whose syndrome memo every
 * block's copy reads and extends on a miss. Per-word seeds fix every
 * outcome, so results are byte-identical under any engine and thread
 * count. An exception from a callback fails the whole call.
 */
template <typename Word>
void
profileWords(const WordRun &run,
             const std::function<std::unique_ptr<Word>(std::size_t w)> &make,
             const std::function<void(Word &word, std::size_t round)>
                 &afterRound,
             const std::function<void(Word &word)> &finish)
{
    detail::profileWords(
        run,
        [&](std::size_t w, WordInputs &inputs) -> detail::OwnedWord {
            std::unique_ptr<Word> word = make(w);
            inputs = word->inputs();
            return {word.release(),
                    [](void *p) { delete static_cast<Word *>(p); }};
        },
        [&](void *word, std::size_t r) {
            if (afterRound)
                afterRound(*static_cast<Word *>(word), r);
        },
        [&](void *word) { finish(*static_cast<Word *>(word)); });
}

} // namespace harp::core

#endif // HARP_CORE_ENGINE_KIND_HH
