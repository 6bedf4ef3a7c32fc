#include "core/round_engine.hh"

#include <stdexcept>

namespace harp::core {

namespace {

/** Reject a null codec before the member initializers dereference it. */
std::unique_ptr<const ecc::WordCodec>
requireCodec(std::unique_ptr<const ecc::WordCodec> codec)
{
    if (codec == nullptr)
        throw std::invalid_argument("RoundEngine: null codec");
    return codec;
}

} // namespace

RoundEngine::RoundEngine(std::unique_ptr<const ecc::WordCodec> codec,
                         const fault::WordFaultModel &faults,
                         PatternKind pattern, std::uint64_t seed,
                         std::vector<Profiler *> profilers)
    : codec_(requireCodec(std::move(codec))),
      faults_(faults),
      patterns_(pattern, codec_->k(),
                common::deriveSeed(seed, {0x9A77E2u})),
      crnRng_(common::deriveSeed(seed, {0xC28Bu})),
      profilers_(std::move(profilers)),
      stored_(codec_->n()),
      received_(codec_->n()),
      post_(codec_->k()),
      raw_(codec_->k())
{
    if (faults_.wordBits() != codec_->n())
        throw std::invalid_argument(
            "RoundEngine: fault model must cover n cells");
    for (const Profiler *profiler : profilers_)
        if (profiler->k() != codec_->k())
            throw std::invalid_argument(
                "RoundEngine: profiler dataword length differs from k");
}

RoundEngine::RoundEngine(const ecc::HammingCode &code,
                         const fault::WordFaultModel &faults,
                         PatternKind pattern, std::uint64_t seed,
                         std::vector<Profiler *> profilers)
    : RoundEngine(std::make_unique<ecc::HammingWordCodec>(code), faults,
                  pattern, seed, std::move(profilers))
{
}

RoundEngine::RoundEngine(const ecc::BchCode &code,
                         const fault::WordFaultModel &faults,
                         PatternKind pattern, std::uint64_t seed,
                         std::vector<Profiler *> profilers)
    : RoundEngine(std::make_unique<ecc::BchWordCodec>(code), faults,
                  pattern, seed, std::move(profilers))
{
}

void
RoundEngine::runRound()
{
    double *const ph_setup = phases_ ? &phases_->setup : nullptr;
    double *const ph_datapath = phases_ ? &phases_->datapath : nullptr;
    double *const ph_observe = phases_ ? &phases_->observe : nullptr;

    const gf2::BitVector *suggested;
    {
        PhaseScope t(ph_setup);
        suggested = &patterns_.patternView(round_);
        // One shared uniform variate per at-risk cell (common random
        // numbers).
        uniforms_.resize(faults_.numFaults());
        for (double &u : uniforms_)
            u = crnRng_.nextDouble();
    }

    for (Profiler *profiler : profilers_) {
        bool crafted;
        {
            PhaseScope t(ph_setup);
            crafted = profiler->craftDataword(written_);
        }
        const gf2::BitVector &written = crafted ? written_ : *suggested;
        {
            PhaseScope t(ph_datapath);
            codec_->encodeInto(written, stored_);
            received_.assignPrefix(stored_);
            faults_.injectErrorsCrn(stored_, uniforms_, received_);

            codec_->decodeDataInto(received_, post_);
            raw_.assignPrefix(received_);
        }

        PhaseScope t(ph_observe);
        profiler->observe({written, post_, raw_});
    }
    ++round_;
}

} // namespace harp::core
