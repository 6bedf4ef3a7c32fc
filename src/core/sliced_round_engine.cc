#include "core/sliced_round_engine.hh"

#include <stdexcept>

#include "common/bits.hh"
#include "ecc/sliced_hamming.hh"

namespace harp::core {

SlicedRoundEngine::SlicedRoundEngine(
    const ecc::SlicedCode &code,
    const std::vector<const fault::WordFaultModel *> &faults,
    PatternKind pattern, const std::vector<std::uint64_t> &seeds,
    std::vector<std::vector<Profiler *>> profilers)
    : code_(&code),
      lanes_(faults.size()),
      k_(code.k()),
      injector_(faults),
      profilers_(std::move(profilers)),
      written_(k_),
      stored_(code.n()),
      received_(code.n()),
      post_(k_),
      sWritten_(k_),
      sReceived_(code.n()),
      sPost_(k_)
{
    if (seeds.size() != lanes_ || profilers_.size() != lanes_ ||
        lanes_ > code.lanes())
        throw std::invalid_argument("SlicedRoundEngine: "
                                    "codes/faults/seeds/profilers lane "
                                    "counts differ");
    if (injector_.wordBits() != code.n())
        throw std::invalid_argument(
            "SlicedRoundEngine: fault models must cover n cells");
    const std::size_t slots = profilers_.empty() ? 0 : profilers_[0].size();
    for (const std::vector<Profiler *> &lane : profilers_) {
        if (lane.size() != slots)
            throw std::invalid_argument(
                "SlicedRoundEngine: lanes pass different profiler counts");
        for (const Profiler *profiler : lane)
            if (profiler->k() != k_)
                throw std::invalid_argument(
                    "SlicedRoundEngine: profiler dataword length "
                    "differs from k");
    }

    patterns_.reserve(lanes_);
    crnRngs_.reserve(lanes_);
    for (std::size_t w = 0; w < lanes_; ++w) {
        // Identical child-stream derivation to RoundEngine's members.
        patterns_.emplace_back(pattern, k_,
                               common::deriveSeed(seeds[w], {0x9A77E2u}));
        crnRngs_.emplace_back(common::deriveSeed(seeds[w], {0xC28Bu}));
    }
    liveMask_ = common::laneMask(lanes_);
    suggestedViews_.assign(lanes_, nullptr);
    writtenVec_.resize(lanes_);
    for (const gf2::BitVector &written : writtenVec_)
        writtenViews_.push_back(&written);
    postVec_.assign(lanes_, gf2::BitVector(k_));
    rawVec_.assign(lanes_, gf2::BitVector(k_));
    postSuggestedVec_.assign(lanes_, gf2::BitVector(k_));
    rawSuggestedVec_.assign(lanes_, gf2::BitVector(k_));

    groups_.resize(slots);
    slotCleanNoOp_.assign(slots, 1);
    slotNeedsRaw_.assign(slots, 0);
    std::vector<Profiler *> slot_profilers(lanes_);
    for (std::size_t s = 0; s < slots; ++s) {
        for (std::size_t w = 0; w < lanes_; ++w) {
            slot_profilers[w] = profilers_[w][s];
            if (!slot_profilers[w]->cleanObserveIsNoOp())
                slotCleanNoOp_[s] = 0;
            if (slot_profilers[w]->usesBypassPath())
                slotNeedsRaw_[s] = 1;
        }
        groups_[s] = SlicedProfilerGroup::tryMake(slot_profilers, k_);
    }
}

SlicedRoundEngine::SlicedRoundEngine(
    const std::vector<const ecc::HammingCode *> &codes,
    const std::vector<const fault::WordFaultModel *> &faults,
    PatternKind pattern, const std::vector<std::uint64_t> &seeds,
    std::vector<std::vector<Profiler *>> profilers)
    : SlicedRoundEngine(std::make_unique<ecc::SlicedHammingCode>(codes),
                        faults, pattern, seeds, std::move(profilers))
{
}

SlicedRoundEngine::SlicedRoundEngine(
    std::unique_ptr<const ecc::SlicedCode> hamming,
    const std::vector<const fault::WordFaultModel *> &faults,
    PatternKind pattern, const std::vector<std::uint64_t> &seeds,
    std::vector<std::vector<Profiler *>> profilers)
    : SlicedRoundEngine(*hamming, faults, pattern, seeds,
                        std::move(profilers))
{
    if (faults.size() != hamming->lanes())
        throw std::invalid_argument("SlicedRoundEngine: "
                                    "codes/faults/seeds/profilers lane "
                                    "counts differ");
    hamming_ = std::move(hamming);
}

void
SlicedRoundEngine::runDatapath(const std::vector<gf2::BitVector> &written)
{
    written_.gather(written);
    code_->encode(written_, stored_);
    received_ = stored_;
    injector_.apply(stored_, received_);
    code_->decodeData(received_, post_);
    ++stats_.mixedDatapathRuns;
}

void
SlicedRoundEngine::runSuggestedDatapath()
{
    sWritten_.gather(suggestedViews_.data(), lanes_);
    code_->encode(sWritten_, stored_);
    sReceived_ = stored_;
    injector_.apply(stored_, sReceived_);
    code_->decodeData(sReceived_, sPost_);
    ++stats_.suggestedDatapathRuns;
}

void
SlicedRoundEngine::observeScalarSlot(std::size_t s, ScalarSource &src)
{
    const bool need_raw = slotNeedsRaw_[s] != 0;
    // Lanes whose read was clean observe nothing a clean-no-op
    // profiler would act on: when the whole slot is clean the scatters
    // are skipped outright.
    std::uint64_t dirty = liveMask_;
    if (slotCleanNoOp_[s] != 0) {
        dirty = src.written.diffLanesPrefix(src.post, k_);
        if (need_raw)
            dirty |= src.written.diffLanesPrefix(src.received, k_);
        dirty &= liveMask_;
    }
    if (dirty != 0) {
        if (!src.postScattered) {
            src.post.scatter(src.postVec);
            ++stats_.postScatters;
            src.postScattered = true;
        }
        if (need_raw && !src.rawScattered) {
            src.received.scatterPrefix(k_, src.rawVec);
            ++stats_.rawScatters;
            src.rawScattered = true;
        }
    }
    for (std::size_t w = 0; w < lanes_; ++w) {
        if (((dirty >> w) & 1) == 0) {
            ++stats_.cleanObserveSkips;
            continue;
        }
        profilers_[w][s]->observe(
            {*src.writtenViews[w], src.postVec[w], src.rawVec[w]});
        ++stats_.scalarObserveCalls;
    }
}

void
SlicedRoundEngine::runRound()
{
    double *const ph_setup = phases_ ? &phases_->setup : nullptr;
    double *const ph_datapath = phases_ ? &phases_->datapath : nullptr;
    double *const ph_observe = phases_ ? &phases_->observe : nullptr;

    // Per-lane pattern generation and common-random-number draws, in
    // the same per-lane stream order as the scalar engine.
    {
        PhaseScope t(ph_setup);
        for (std::size_t w = 0; w < lanes_; ++w)
            suggestedViews_[w] = &patterns_[w].patternView(round_);
        injector_.drawRound(crnRngs_);
    }

    bool suggested_ready = false; // suggested slices valid
    ScalarSource suggested{sWritten_, sPost_, sReceived_, suggestedViews_,
                           postSuggestedVec_, rawSuggestedVec_};
    bool lane_crafted[gf2::BitSlice::laneCount];
    for (std::size_t s = 0; s < groups_.size(); ++s) {
        if (SlicedProfilerGroup *group = groups_[s].get()) {
            // Lane-native slot: its profilers never craft (the
            // LaneObserveKind contract), so the craft calls are
            // skipped and the observation never leaves transposed
            // form — no scatter, no virtual observe calls.
            if (!suggested_ready) {
                PhaseScope t(ph_datapath);
                runSuggestedDatapath();
                suggested_ready = true;
            }
            PhaseScope t(ph_observe);
            group->observeLanes({sWritten_, sPost_, sReceived_});
            ++stats_.laneObserveSlotRounds;
            continue;
        }

        bool verbatim = true;
        {
            PhaseScope t(ph_setup);
            for (std::size_t w = 0; w < lanes_; ++w) {
                lane_crafted[w] =
                    profilers_[w][s]->craftDataword(writtenVec_[w]);
                verbatim = verbatim && !lane_crafted[w];
            }
        }

        // Scalar slots that programmed the suggested pattern verbatim
        // in every lane see identical observations (common random
        // numbers fix the trials within a round): run their datapath
        // once per round and materialize the scalar post/raw views at
        // most once per round.
        if (verbatim) {
            if (!suggested_ready) {
                PhaseScope t(ph_datapath);
                runSuggestedDatapath();
                suggested_ready = true;
            }
            PhaseScope t(ph_observe);
            observeScalarSlot(s, suggested);
        } else {
            // Mixed slot: materialize the suggested word into the
            // lanes whose profiler did not craft one.
            for (std::size_t w = 0; w < lanes_; ++w)
                if (!lane_crafted[w])
                    writtenVec_[w] = *suggestedViews_[w];
            // The sliced datapath: 64 words per lane-op.
            {
                PhaseScope t(ph_datapath);
                runDatapath(writtenVec_);
            }
            PhaseScope t(ph_observe);
            ScalarSource mixed{written_,      post_,   received_,
                               writtenViews_, postVec_, rawVec_};
            observeScalarSlot(s, mixed);
        }
    }
    ++round_;
}

} // namespace harp::core
