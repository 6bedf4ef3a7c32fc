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
 */

#ifndef HARP_CORE_ENGINE_KIND_HH
#define HARP_CORE_ENGINE_KIND_HH

#include <cstddef>
#include <cstdint>
#include <functional>
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
    /** Block shards across this many workers (0 = hardware). */
    std::size_t threads = 1;
    /** The words' shared t-error BCH code, copied before any block
     *  starts (so callbacks may decode through it); null when every
     *  word brings its own SEC code in WordLanes::codes. */
    const ecc::BchCode *bch = nullptr;
};

/** One block's engine inputs, entry i describing word begin + i. */
struct WordLanes
{
    /** Per-word SEC codes; left empty for WordRun::bch words. */
    std::vector<const ecc::HammingCode *> codes;
    std::vector<const fault::WordFaultModel *> faults;
    std::vector<std::uint64_t> seeds;
    /** Every word passes the same number of profilers. */
    std::vector<std::vector<Profiler *>> profilers;
};

/** @name profileWords callbacks (see there)
 * @{ */
using BuildWordsFn = std::function<void(std::size_t block, std::size_t begin,
                                        std::size_t end, WordLanes &lanes)>;
using WordRoundFn = std::function<void(std::size_t block, std::size_t round)>;
using FinishWordsFn = std::function<void(std::size_t block)>;
/** @} */

/** Blocks profileWords splits @p run into: one per word (scalar) or
 *  per 64 words (sliced), the last one ragged. */
std::size_t wordBlockCount(const WordRun &run);

/**
 * Profile run.words words through run.engine, one lane block at a
 * time, blocks sharded over run.threads workers:
 *
 *  - build(block, begin, end, lanes) creates words [begin, end) and
 *    fills @p lanes (the words' state stays the caller's, typically in
 *    a per-block slot, so only in-flight blocks are resident);
 *  - afterRound(block, r), if set, runs after each round r;
 *  - finish(block) runs once per block, in ascending block order and
 *    serialized, after the block's engine is destroyed (which flushes
 *    every profiler's identified()); it merges and frees the block.
 *
 * BCH words share one sliced datapath whose syndrome memo every
 * block's copy reads and extends on a miss. Per-word seeds fix every
 * outcome, so results are byte-identical under any engine and thread
 * count. An exception from a callback fails the whole call.
 */
void profileWords(const WordRun &run, const BuildWordsFn &build,
                  const WordRoundFn &afterRound,
                  const FinishWordsFn &finish);

} // namespace harp::core

#endif // HARP_CORE_ENGINE_KIND_HH
