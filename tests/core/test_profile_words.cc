/**
 * @file
 * Contract tests for core::profileWords, the one driver behind every
 * engine-selectable experiment: for each engine, ragged and exact word
 * counts, and serial and sharded runs, every word is made once and
 * finished once in ascending word order after all of its rounds, at
 * most lanes × threads words are alive at once, and every profiler's
 * identified() read inside finish equals a hand-rolled per-word scalar
 * RoundEngine loop over the same seeds — for per-word SEC Hamming codes
 * and for one shared BCH code.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

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

/** Counts the words alive at once, from make until the driver frees
 *  them, and the most ever alive. */
struct Census
{
    std::atomic<std::size_t> live{0};
    std::atomic<std::size_t> peak{0};

    void enter()
    {
        const std::size_t now = ++live;
        std::size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
    }
};

/** One word's state; BCH words leave code null and use the shared code. */
struct Word
{
    Word(std::size_t w, Census *census) : index(w), census(census)
    {
        if (census != nullptr)
            census->enter();
    }
    ~Word()
    {
        if (census != nullptr)
            --census->live;
    }
    Word(const Word &) = delete;
    Word &operator=(const Word &) = delete;

    WordInputs inputs() const { return {code.get(), &faults, seed, raw}; }

    std::size_t index;
    Census *census;
    std::unique_ptr<ecc::HammingCode> code;
    fault::WordFaultModel faults;
    std::uint64_t seed = 0;
    std::vector<std::unique_ptr<Profiler>> profilers;
    std::vector<Profiler *> raw;
    /** Rounds afterRound reported so far. */
    std::size_t roundsSeen = 0;
};

std::unique_ptr<Word>
makeWord(std::size_t w, const ecc::BchCode *bch, Census *census = nullptr)
{
    auto word = std::make_unique<Word>(w, census);
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
                              word->seed, word->raw)
                : RoundEngine(*word->code, word->faults,
                              PatternKind::Random, word->seed, word->raw);
        for (std::size_t r = 0; r < kRounds; ++r)
            engine.runRound();
        auto &profiles = reference.emplace_back();
        for (const Profiler *p : word->raw)
            profiles.push_back(p->identified());
    }
    return reference;
}

void
checkDriver(const ecc::BchCode *bch)
{
    const auto reference = scalarReference(bch);
    for (const EngineKind kind : {EngineKind::Scalar, EngineKind::Sliced64}) {
        for (const std::size_t words : {0, 1, 63, 64, 65, 256, 257}) {
            for (const std::size_t threads : {1, 4}) {
                SCOPED_TRACE("engine=" +
                             std::to_string(static_cast<int>(kind)) +
                             " words=" +
                             std::to_string(words) + " threads=" +
                             std::to_string(threads));
                const WordRun run{kind, words, kRounds, PatternKind::Random,
                                  threads, bch};
                const std::size_t lanes =
                    kind == EngineKind::Scalar ? 1 : 64;

                Census census;
                std::vector<std::atomic<int>> made(words);
                std::size_t finished = 0;
                profileWords<Word>(
                    run,
                    [&](std::size_t w) {
                        EXPECT_LT(w, words);
                        ++made[w];
                        return makeWord(w, bch, &census);
                    },
                    [&](Word &word, std::size_t r) {
                        EXPECT_EQ(r, word.roundsSeen);
                        ++word.roundsSeen;
                    },
                    [&](Word &word) {
                        // Decoding through the caller's BCH code while
                        // other words run must not race with them.
                        if (bch != nullptr)
                            bch->decodeErrorPattern({0, 1});
                        EXPECT_EQ(word.index, finished);
                        ++finished;
                        EXPECT_EQ(word.roundsSeen, kRounds);
                        for (std::size_t p = 0; p < word.raw.size(); ++p)
                            EXPECT_EQ(word.raw[p]->identified(),
                                      reference[word.index][p])
                                << "word " << word.index << " profiler "
                                << p;
                    });

                EXPECT_EQ(finished, words);
                for (std::size_t w = 0; w < words; ++w)
                    EXPECT_EQ(made[w].load(), 1) << "word " << w;
                EXPECT_EQ(census.live.load(), 0u);
                EXPECT_LE(census.peak.load(), lanes * threads);
            }
        }
    }
}

TEST(ProfileWords, HammingWordsMatchScalarLoopInWordOrder)
{
    checkDriver(nullptr);
}

TEST(ProfileWords, SharedBchWordsMatchScalarLoopInWordOrder)
{
    const ecc::BchCode bch(kK, 2);
    checkDriver(&bch);
}

TEST(ProfileWords, AfterRoundIsOptional)
{
    const WordRun run{EngineKind::Sliced64, 70, kRounds,
                      PatternKind::Random, 2};
    std::size_t finished = 0;
    profileWords<Word>(
        run, [](std::size_t w) { return makeWord(w, nullptr); }, nullptr,
        [&](Word &) { ++finished; });
    EXPECT_EQ(finished, 70u);
}

/**
 * Holds a failing callback until another worker has made a word of a
 * later block, so that block's worker is waiting for its turn when the
 * failure lands (serial runs have no such worker and do not wait).
 */
class LaterBlockLatch
{
  public:
    LaterBlockLatch(std::size_t failing_word, EngineKind kind,
                    std::size_t threads)
        : nextBlock_((failing_word / (kind == EngineKind::Scalar ? 1 : 64) +
                      1) *
                     (kind == EngineKind::Scalar ? 1 : 64)),
          wait_(threads > 1)
    {
    }

    void made(std::size_t w)
    {
        if (w >= nextBlock_)
            later_ = true;
    }

    void await() const
    {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (wait_ && !later_ && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    }

  private:
    std::size_t nextBlock_;
    bool wait_;
    std::atomic<bool> later_{false};
};

TEST(ProfileWords, CallbackExceptionFailsTheCall)
{
    for (const EngineKind kind : {EngineKind::Scalar, EngineKind::Sliced64}) {
        for (const std::size_t threads : {1, 4}) {
            SCOPED_TRACE(std::to_string(threads) + " threads");
            const WordRun run{kind, 200, kRounds, PatternKind::Random,
                              threads};
            Census census;
            LaterBlockLatch make_latch(130, kind, threads);
            EXPECT_THROW(profileWords<Word>(
                             run,
                             [&](std::size_t w) {
                                 make_latch.made(w);
                                 if (w == 130) {
                                     make_latch.await();
                                     throw std::invalid_argument("word 130");
                                 }
                                 return makeWord(w, nullptr, &census);
                             },
                             nullptr, [](Word &) {}),
                         std::invalid_argument);
            LaterBlockLatch finish_latch(70, kind, threads);
            EXPECT_THROW(profileWords<Word>(
                             run,
                             [&](std::size_t w) {
                                 finish_latch.made(w);
                                 return makeWord(w, nullptr, &census);
                             },
                             nullptr,
                             [&](Word &word) {
                                 if (word.index == 70) {
                                     finish_latch.await();
                                     throw std::runtime_error("word 70");
                                 }
                             }),
                         std::runtime_error);
            // Every word made is freed, the failed blocks' words too.
            EXPECT_EQ(census.live.load(), 0u);
        }
    }
}

TEST(ProfileWords, CodeMustMatchTheRunsBch)
{
    const ecc::BchCode bch(kK, 2);
    const WordRun bch_run{EngineKind::Scalar, 1, kRounds,
                          PatternKind::Random, 1, &bch};
    // A word that brings a SEC code into a shared-BCH run...
    EXPECT_THROW(profileWords<Word>(
                     bch_run,
                     [](std::size_t w) { return makeWord(w, nullptr); },
                     nullptr, [](Word &) {}),
                 std::invalid_argument);
    // ... and one that brings none into a SEC run.
    const WordRun sec_run{EngineKind::Sliced64, 1, kRounds,
                          PatternKind::Random, 1};
    EXPECT_THROW(profileWords<Word>(
                     sec_run,
                     [&](std::size_t w) { return makeWord(w, &bch); },
                     nullptr, [](Word &) {}),
                 std::invalid_argument);
}

} // namespace
} // namespace harp::core
