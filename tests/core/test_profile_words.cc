/**
 * @file
 * Contract tests for core::profileWords, the one driver behind every
 * engine-selectable experiment: for each engine, ragged and exact word
 * counts, and serial and sharded runs, every block is finished exactly
 * once in block order after all of its rounds, and every profiler's
 * identified() read inside finish equals a hand-rolled per-word scalar
 * RoundEngine loop over the same seeds — for per-word SEC Hamming codes
 * and for one shared BCH code.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/rng.hh"
#include "core/beep_profiler.hh"
#include "core/engine_kind.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/round_engine.hh"
#include "ecc/bch_general.hh"
#include "ecc/hamming_code.hh"
#include "fault/fault_model.hh"

namespace harp::core {
namespace {

constexpr std::uint64_t kSeed = 0x9E1D;
constexpr std::size_t kK = 32;
constexpr std::size_t kRounds = 3;
constexpr std::size_t kMaxWords = 257;

/** One word's state; BCH words leave code null and use the shared code. */
struct Word
{
    std::unique_ptr<ecc::HammingCode> code;
    fault::WordFaultModel faults;
    std::uint64_t seed = 0;
    std::vector<std::unique_ptr<Profiler>> profilers;
    std::vector<Profiler *> raw;
};

std::unique_ptr<Word>
makeWord(std::size_t w, const ecc::BchCode *bch)
{
    auto word = std::make_unique<Word>();
    std::size_t n = 0;
    if (bch == nullptr) {
        common::Xoshiro256 code_rng(common::deriveSeed(kSeed, {1, w}));
        word->code = std::make_unique<ecc::HammingCode>(
            ecc::HammingCode::randomSec(kK, code_rng));
        n = word->code->n();
    } else {
        n = bch->n();
    }
    common::Xoshiro256 fault_rng(common::deriveSeed(kSeed, {2, w}));
    word->faults = fault::WordFaultModel::makeUniformFixedCount(
        n, 1 + w % 4, 0.5, fault_rng);
    word->seed = common::deriveSeed(kSeed, {3, w});
    word->profilers.push_back(std::make_unique<NaiveProfiler>(kK));
    word->profilers.push_back(std::make_unique<HarpUProfiler>(kK));
    if (word->code) {
        // A crafting profiler: the per-lane scalar observe path.
        const ecc::HammingCode &code = *word->code;
        word->profilers.push_back(std::make_unique<BeepProfiler>(code));
        word->profilers.push_back(std::make_unique<HarpAProfiler>(code));
    }
    for (const auto &p : word->profilers)
        word->raw.push_back(p.get());
    return word;
}

using Blocks = std::vector<std::vector<std::unique_ptr<Word>>>;

/** A build callback body: create words [begin, end) into @p state. */
void
buildWords(Blocks &state, std::size_t block, std::size_t begin,
           std::size_t end, WordLanes &lanes, const ecc::BchCode *bch)
{
    for (std::size_t w = begin; w < end; ++w) {
        const Word &word = *state[block].emplace_back(makeWord(w, bch));
        if (word.code)
            lanes.codes.push_back(word.code.get());
        lanes.faults.push_back(&word.faults);
        lanes.seeds.push_back(word.seed);
        lanes.profilers.push_back(word.raw);
    }
}

/** Per-word, per-profiler identified() after a scalar RoundEngine loop. */
std::vector<std::vector<gf2::BitVector>>
scalarReference(const ecc::BchCode *bch)
{
    std::vector<std::vector<gf2::BitVector>> reference;
    for (std::size_t w = 0; w < kMaxWords; ++w) {
        const auto word = makeWord(w, bch);
        RoundEngine engine =
            bch != nullptr
                ? RoundEngine(*bch, word->faults, PatternKind::Random,
                              word->seed)
                : RoundEngine(*word->code, word->faults,
                              PatternKind::Random, word->seed);
        for (std::size_t r = 0; r < kRounds; ++r)
            engine.runRound(word->raw);
        auto &profiles = reference.emplace_back();
        for (const Profiler *p : word->raw)
            profiles.push_back(p->identified());
    }
    return reference;
}

std::size_t
lanesOf(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Scalar:
        return 1;
      case EngineKind::Sliced64:
        return 64;
      case EngineKind::Sliced256:
        return 256;
    }
    return 0;
}

void
checkDriver(const ecc::BchCode *bch)
{
    const auto reference = scalarReference(bch);
    for (const EngineKind kind : {EngineKind::Scalar, EngineKind::Sliced64,
                                  EngineKind::Sliced256}) {
        for (const std::size_t words : {0, 1, 63, 64, 65, 256, 257}) {
            for (const std::size_t threads : {1, 4}) {
                SCOPED_TRACE("engine=" +
                             std::to_string(static_cast<int>(kind)) +
                             " words=" +
                             std::to_string(words) + " threads=" +
                             std::to_string(threads));
                const WordRun run{kind, words, kRounds, PatternKind::Random,
                                  threads, bch};
                const std::size_t lanes = lanesOf(kind);
                const std::size_t blocks = wordBlockCount(run);
                ASSERT_EQ(blocks, (words + lanes - 1) / lanes);

                Blocks state(blocks);
                std::vector<std::size_t> first(blocks, 0);
                std::vector<std::size_t> rounds_seen(blocks, 0);
                std::vector<char> finished_flag(blocks, 0);
                std::vector<std::size_t> finished;
                std::vector<int> covered(words, 0);

                const auto build = [&](std::size_t block,
                                       std::size_t begin, std::size_t end,
                                       WordLanes &l) {
                    EXPECT_EQ(begin, block * lanes);
                    EXPECT_EQ(end, std::min(begin + lanes, words));
                    first[block] = begin;
                    buildWords(state, block, begin, end, l, bch);
                };
                const auto after_round = [&](std::size_t block,
                                             std::size_t r) {
                    EXPECT_EQ(r, rounds_seen[block]);
                    EXPECT_EQ(finished_flag[block], 0);
                    ++rounds_seen[block];
                };
                const auto finish = [&](std::size_t block) {
                    // Decoding through the caller's BCH code while
                    // other blocks run must not race with them.
                    if (bch != nullptr)
                        bch->decodeErrorPattern({0, 1});
                    EXPECT_EQ(rounds_seen[block], kRounds);
                    finished.push_back(block);
                    finished_flag[block] = 1;
                    for (std::size_t i = 0; i < state[block].size();
                         ++i) {
                        const std::size_t w = first[block] + i;
                        ++covered[w];
                        const Word &word = *state[block][i];
                        for (std::size_t p = 0; p < word.raw.size(); ++p)
                            EXPECT_EQ(word.raw[p]->identified(),
                                      reference[w][p])
                                << "word " << w << " profiler " << p;
                    }
                    state[block].clear();
                };
                profileWords(run, build, after_round, finish);

                ASSERT_EQ(finished.size(), blocks);
                for (std::size_t b = 0; b < blocks; ++b)
                    EXPECT_EQ(finished[b], b);
                for (std::size_t w = 0; w < words; ++w)
                    EXPECT_EQ(covered[w], 1) << "word " << w;
            }
        }
    }
}

TEST(ProfileWords, HammingWordsMatchScalarLoopInBlockOrder)
{
    checkDriver(nullptr);
}

TEST(ProfileWords, SharedBchWordsMatchScalarLoopInBlockOrder)
{
    const ecc::BchCode bch(kK, 2);
    checkDriver(&bch);
}

TEST(ProfileWords, AfterRoundIsOptional)
{
    const WordRun run{EngineKind::Sliced64, 70, kRounds,
                      PatternKind::Random, 2};
    Blocks state(wordBlockCount(run));
    std::size_t finished = 0;
    profileWords(
        run,
        [&](std::size_t block, std::size_t begin, std::size_t end,
            WordLanes &lanes) {
            buildWords(state, block, begin, end, lanes, nullptr);
        },
        nullptr, [&](std::size_t) { ++finished; });
    EXPECT_EQ(finished, 2u);
}

TEST(ProfileWords, CallbackExceptionFailsTheCall)
{
    for (const std::size_t threads : {1, 4}) {
        const WordRun run{EngineKind::Scalar, 16, kRounds,
                          PatternKind::Random, threads};
        Blocks state(wordBlockCount(run));
        EXPECT_THROW(profileWords(
                         run,
                         [&](std::size_t block, std::size_t begin,
                             std::size_t end, WordLanes &lanes) {
                             if (block == 5)
                                 throw std::invalid_argument("block 5");
                             buildWords(state, block, begin, end, lanes,
                                        nullptr);
                         },
                         nullptr, [](std::size_t) {}),
                     std::invalid_argument)
            << threads << " threads";
    }
}

} // namespace
} // namespace harp::core
