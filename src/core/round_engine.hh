/**
 * @file
 * Round-based profiling engine for one ECC word.
 *
 * Drives any number of profilers through identical profiling rounds with
 * common random numbers: each round draws one uniform variate per at-risk
 * cell, and a cell fails for a given profiler iff it is charged under that
 * profiler's pattern and the shared variate is below the cell's failure
 * probability. This realizes the paper's fairness requirement (section
 * 7.1.2: "the exact same set of ECC words, pre-correction error patterns,
 * and data patterns") even though profilers may write different patterns.
 *
 * The engine is code-agnostic: it drives any ecc::WordCodec (SEC
 * Hamming or general t-error BCH out of the box), with convenience
 * constructors for the concrete code classes. The encode/decode hot
 * path runs on reused member scratch — no per-round allocation beyond
 * the fault model's error-mask sample.
 */

#ifndef HARP_CORE_ROUND_ENGINE_HH
#define HARP_CORE_ROUND_ENGINE_HH

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "core/data_pattern.hh"
#include "core/engine_phase.hh"
#include "core/profiler.hh"
#include "ecc/bch_general.hh"
#include "ecc/hamming_code.hh"
#include "ecc/word_codec.hh"
#include "fault/fault_model.hh"

namespace harp::core {

/**
 * Executes profiling rounds for a set of profilers over one simulated
 * ECC word.
 */
class RoundEngine
{
  public:
    /**
     * @param codec     The word's on-die ECC code, behind the scalar
     *                  codec interface (the engine takes ownership of
     *                  the adapter; the underlying code must outlive
     *                  the engine).
     * @param faults    The word's fault model (word length n).
     * @param pattern   Shared data-pattern policy for non-crafting
     *                  profilers.
     * @param seed      Seed for patterns and common random numbers.
     * @param profilers The profilers every round drives, in order;
     *                  each must have the code's k and outlive the
     *                  engine. Throws std::invalid_argument on a null
     *                  codec or a mismatched fault model or profiler.
     */
    RoundEngine(std::unique_ptr<const ecc::WordCodec> codec,
                const fault::WordFaultModel &faults, PatternKind pattern,
                std::uint64_t seed, std::vector<Profiler *> profilers);

    /** Convenience over a SEC Hamming word. */
    RoundEngine(const ecc::HammingCode &code,
                const fault::WordFaultModel &faults, PatternKind pattern,
                std::uint64_t seed, std::vector<Profiler *> profilers);

    /** Convenience over a general t-error BCH word. */
    RoundEngine(const ecc::BchCode &code,
                const fault::WordFaultModel &faults, PatternKind pattern,
                std::uint64_t seed, std::vector<Profiler *> profilers);

    /** Run one profiling round for every bound profiler. */
    void runRound();

    /** Number of rounds executed so far. */
    std::size_t roundsRun() const { return round_; }

    /** Attach a per-phase wall-time sink (null disables; the default).
     *  See core/engine_phase.hh. */
    void setPhaseSink(EnginePhaseSeconds *sink) { phases_ = sink; }

  private:
    std::unique_ptr<const ecc::WordCodec> codec_;
    const fault::WordFaultModel &faults_;
    PatternGenerator patterns_;
    common::Xoshiro256 crnRng_;
    std::vector<Profiler *> profilers_;
    // Round-persistent scratch (capacity reused across rounds).
    gf2::BitVector written_;
    gf2::BitVector stored_;
    gf2::BitVector received_;
    gf2::BitVector post_;
    gf2::BitVector raw_;
    std::vector<double> uniforms_;
    EnginePhaseSeconds *phases_ = nullptr;
    std::size_t round_ = 0;
};

} // namespace harp::core

#endif // HARP_CORE_ROUND_ENGINE_HH
