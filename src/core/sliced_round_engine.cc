#include "core/sliced_round_engine.hh"

#include <cassert>
#include <stdexcept>

#include "common/bits.hh"
#include "ecc/sliced_hamming.hh"

namespace harp::core {

namespace {

/** Reject a null datapath before the delegating ctor dereferences it. */
template <std::size_t W>
const ecc::SlicedCodeW<W> &
requireCode(const std::unique_ptr<const ecc::SlicedCodeW<W>> &code)
{
    if (code == nullptr)
        throw std::invalid_argument("SlicedRoundEngine: null sliced code");
    return *code;
}

} // namespace

template <std::size_t W>
SlicedRoundEngineW<W>::SlicedRoundEngineW(
    const ecc::SlicedCodeW<W> &code,
    const std::vector<const fault::WordFaultModel *> &faults,
    PatternKind pattern, const std::vector<std::uint64_t> &seeds)
    : code_(&code),
      lanes_(faults.size()),
      k_(code.k()),
      injector_(faults),
      written_(k_),
      stored_(code.n()),
      received_(code.n()),
      post_(k_),
      sWritten_(k_),
      sReceived_(code.n()),
      sPost_(k_)
{
    if (seeds.size() != lanes_ || lanes_ > code.lanes())
        throw std::invalid_argument(
            "SlicedRoundEngine: codes/faults/seeds lane counts differ");
    if (injector_.wordBits() != code.n())
        throw std::invalid_argument(
            "SlicedRoundEngine: fault models must cover n cells");

    patterns_.reserve(lanes_);
    crnRngs_.reserve(lanes_);
    profilerRngs_.reserve(lanes_);
    for (std::size_t w = 0; w < lanes_; ++w) {
        // Identical child-stream derivation to RoundEngine's members.
        patterns_.emplace_back(pattern, k_,
                               common::deriveSeed(seeds[w], {0x9A77E2u}));
        crnRngs_.emplace_back(common::deriveSeed(seeds[w], {0xC28Bu}));
        profilerRngs_.emplace_back(
            common::deriveSeed(seeds[w], {0x9120F1u}));
    }
    liveMask_ = gf2::laneMaskOf<Lane>(lanes_);
    suggestedViews_.assign(lanes_, nullptr);
    writtenVec_.resize(lanes_);
    postVec_.assign(lanes_, gf2::BitVector(k_));
    rawVec_.assign(lanes_, gf2::BitVector(k_));
    postSuggestedVec_.assign(lanes_, gf2::BitVector(k_));
    rawSuggestedVec_.assign(lanes_, gf2::BitVector(k_));
}

template <std::size_t W>
SlicedRoundEngineW<W>::SlicedRoundEngineW(
    std::unique_ptr<const ecc::SlicedCodeW<W>> code,
    const std::vector<const fault::WordFaultModel *> &faults,
    PatternKind pattern, const std::vector<std::uint64_t> &seeds)
    : SlicedRoundEngineW(requireCode(code), faults, pattern, seeds)
{
    if (faults.size() != code->lanes())
        throw std::invalid_argument(
            "SlicedRoundEngine: codes/faults/seeds lane counts differ");
    owned_ = std::move(code);
}

template <std::size_t W>
SlicedRoundEngineW<W>::SlicedRoundEngineW(
    const std::vector<const ecc::HammingCode *> &codes,
    const std::vector<const fault::WordFaultModel *> &faults,
    PatternKind pattern, const std::vector<std::uint64_t> &seeds)
    : SlicedRoundEngineW(std::make_unique<ecc::SlicedHammingCodeW<W>>(codes),
                         faults, pattern, seeds)
{
}

template <std::size_t W>
void
SlicedRoundEngineW<W>::ensureGroups(
    const std::vector<std::vector<Profiler *>> &profilers)
{
    if (profilers == groupedFor_) {
        // Pointer identity alone is not proof of the same profiler
        // generation: a destroyed set reallocated at the same heap
        // addresses compares equal. Grouped slots detect this through
        // abandoned() (a destroyed profiler marks its group); scalar
        // slots revalidate their profilers' instance ids, which the
        // cached slotNeedsRaw_/slotCleanNoOp_ flags were computed for.
        bool stale = false;
        std::size_t id_idx = 0;
        for (std::size_t s = 0; s < groups_.size() && !stale; ++s) {
            if (groups_[s] != nullptr) {
                stale = groups_[s]->abandoned();
                continue;
            }
            for (std::size_t w = 0; w < lanes_ && !stale; ++w)
                stale = profilers[w][s]->instanceId() !=
                        scalarSlotIds_[id_idx++];
        }
        if (!stale)
            return;
    }
    // Group destruction flushes any pending lane state of a previous
    // profiler generation before the rebuild.
    groups_.clear();
    groupedFor_ = profilers;
    const std::size_t slots = profilers.empty() ? 0 : profilers[0].size();
    groups_.resize(slots);
    slotCleanNoOp_.assign(slots, 1);
    slotNeedsRaw_.assign(slots, 0);
    scalarSlotIds_.clear();
    std::vector<Profiler *> slot_profilers(lanes_);
    for (std::size_t s = 0; s < slots; ++s) {
        for (std::size_t w = 0; w < lanes_; ++w) {
            assert(profilers[w].size() == slots);
            slot_profilers[w] = profilers[w][s];
            if (!profilers[w][s]->cleanObserveIsNoOp())
                slotCleanNoOp_[s] = 0;
            if (profilers[w][s]->usesBypassPath())
                slotNeedsRaw_[s] = 1;
        }
        groups_[s] = SlicedProfilerGroupW<W>::tryMake(slot_profilers, k_);
        if (groups_[s] == nullptr)
            for (std::size_t w = 0; w < lanes_; ++w)
                scalarSlotIds_.push_back(
                    profilers[w][s]->instanceId());
    }
}

template <std::size_t W>
void
SlicedRoundEngineW<W>::runDatapath(const std::vector<gf2::BitVector> &written)
{
    written_.gather(written);
    code_->encode(written_, stored_);
    received_ = stored_;
    injector_.apply(stored_, received_);
    code_->decodeData(received_, post_);
    ++stats_.mixedDatapathRuns;
}

template <std::size_t W>
void
SlicedRoundEngineW<W>::runSuggestedDatapath()
{
    sWritten_.gather(suggestedViews_.data(), lanes_);
    code_->encode(sWritten_, stored_);
    sReceived_ = stored_;
    injector_.apply(stored_, sReceived_);
    code_->decodeData(sReceived_, sPost_);
    ++stats_.suggestedDatapathRuns;
}

template <std::size_t W>
void
SlicedRoundEngineW<W>::runRound(
    const std::vector<std::vector<Profiler *>> &profilers)
{
    assert(profilers.size() == lanes_);
    const std::size_t slots = profilers.empty() ? 0 : profilers[0].size();
    ensureGroups(profilers);

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
    bool suggested_post_scattered = false;
    bool suggested_raw_scattered = false;
    bool lane_verbatim[gf2::BitSliceW<W>::laneCount];
    for (std::size_t s = 0; s < slots; ++s) {
        if (SlicedProfilerGroupW<W> *group = groups_[s].get()) {
            // Lane-native slot: its profilers program the suggested
            // pattern verbatim and never draw profiler randomness (the
            // LaneObserveKind contract), so the choose calls are
            // skipped and the observation never leaves transposed
            // form — no scatter, no virtual observe calls.
            if (!suggested_ready) {
                PhaseScope t(ph_datapath);
                runSuggestedDatapath();
                suggested_ready = true;
            }
            PhaseScope t(ph_observe);
            group->observeLanes(
                {round_, sWritten_, sPost_, sReceived_});
            ++stats_.laneObserveSlotRounds;
            continue;
        }

        bool verbatim = true;
        {
            PhaseScope t(ph_setup);
            for (std::size_t w = 0; w < lanes_; ++w) {
                assert(profilers[w].size() == slots);
                lane_verbatim[w] = profilers[w][s]->chooseDatawordInto(
                    round_, *suggestedViews_[w], profilerRngs_[w],
                    writtenVec_[w]);
                verbatim = verbatim && lane_verbatim[w];
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
            const bool need_raw = slotNeedsRaw_[s] != 0;
            // Lanes whose read was clean observe nothing a
            // clean-no-op profiler would act on: when the whole slot
            // is clean the scatters are skipped outright.
            Lane dirty = liveMask_;
            if (slotCleanNoOp_[s] != 0) {
                dirty = sWritten_.diffLanesPrefix(sPost_, k_);
                if (need_raw)
                    dirty |= sWritten_.diffLanesPrefix(sReceived_, k_);
                dirty &= liveMask_;
            }
            if (gf2::laneAny(dirty)) {
                if (!suggested_post_scattered) {
                    sPost_.scatter(postSuggestedVec_);
                    ++stats_.postScatters;
                    suggested_post_scattered = true;
                }
                if (need_raw && !suggested_raw_scattered) {
                    sReceived_.scatterPrefix(k_, rawSuggestedVec_);
                    ++stats_.rawScatters;
                    suggested_raw_scattered = true;
                }
            }
            for (std::size_t w = 0; w < lanes_; ++w) {
                if (!gf2::laneTestBit(dirty, w)) {
                    ++stats_.cleanObserveSkips;
                    continue;
                }
                const RoundObservation obs{round_, *suggestedViews_[w],
                                           postSuggestedVec_[w],
                                           rawSuggestedVec_[w]};
                profilers[w][s]->observe(obs);
                ++stats_.scalarObserveCalls;
            }
        } else {
            // Mixed slot: materialize the suggested word into the
            // lanes whose profiler left the output buffer untouched.
            const bool need_raw = slotNeedsRaw_[s] != 0;
            for (std::size_t w = 0; w < lanes_; ++w)
                if (lane_verbatim[w])
                    writtenVec_[w] = *suggestedViews_[w];
            // The sliced datapath: W*64 words per lane-op.
            {
                PhaseScope t(ph_datapath);
                runDatapath(writtenVec_);
            }
            PhaseScope t(ph_observe);
            Lane dirty = liveMask_;
            if (slotCleanNoOp_[s] != 0) {
                dirty = written_.diffLanesPrefix(post_, k_);
                if (need_raw)
                    dirty |= written_.diffLanesPrefix(received_, k_);
                dirty &= liveMask_;
            }
            if (gf2::laneAny(dirty)) {
                post_.scatter(postVec_);
                ++stats_.postScatters;
                if (need_raw) {
                    received_.scatterPrefix(k_, rawVec_);
                    ++stats_.rawScatters;
                }
            }
            for (std::size_t w = 0; w < lanes_; ++w) {
                if (!gf2::laneTestBit(dirty, w)) {
                    ++stats_.cleanObserveSkips;
                    continue;
                }
                const RoundObservation obs{round_, writtenVec_[w],
                                           postVec_[w], rawVec_[w]};
                profilers[w][s]->observe(obs);
                ++stats_.scalarObserveCalls;
            }
        }
    }
    ++round_;
}

template class SlicedRoundEngineW<1>;
template class SlicedRoundEngineW<4>;

} // namespace harp::core
