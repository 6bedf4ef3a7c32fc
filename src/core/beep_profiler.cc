#include "core/beep_profiler.hh"

#include <bit>

#include "common/bits.hh"

namespace harp::core {

BeepProfiler::BeepProfiler(const ecc::HammingCode &code)
    : Profiler(code.k()), code_(code), suspectedMask_(code.n()),
      reach1_(common::wordsFor(std::size_t{1} << code.p()), 0),
      reach2_(common::wordsFor(std::size_t{1} << code.p()), 0)
{
}

void
BeepProfiler::addSuspectedCell(std::size_t codeword_position)
{
    if (!suspectedMask_.get(codeword_position)) {
        suspectedMask_.set(codeword_position, true);
        suspected_.insert(codeword_position);
        ++suspectsVersion_;
        pendingColumns_.push_back(code_.codewordColumn(codeword_position));
    }
    observedAnyError_ = true;
}

bool
BeepProfiler::craftDataword(gf2::BitVector &out)
{
    // Bootstrap phase: random patterns until the first confirmed error.
    if (!observedAnyError_ || suspected_.empty())
        return false;

    // Probe phase: cycle through non-suspected codeword positions and
    // craft a pattern for the first feasible probe target. Crafts are
    // pure functions of (suspect set, probe) — the shared base word
    // plus precomputed per-probe feasibility masks, rebuilt only when
    // the suspect set grows.
    const std::size_t n = code_.n();
    if (craftCacheVersion_ != suspectsVersion_ ||
        craftBase_.size() != k_) {
        rebuildCraftMasks();
        craftCacheVersion_ = suspectsVersion_;
    }
    for (std::size_t attempt = 0; attempt < n; ++attempt) {
        const std::size_t probe = probeCursor_;
        probeCursor_ = (probeCursor_ + 1) % n;
        if (suspectedMask_.get(probe))
            continue;
        if (probe < k_) {
            if (!craftFeasData_.get(probe))
                continue;
            out = craftBase_;
            out.set(probe, true);
            return true;
        }
        if (!craftFeasParity_.get(probe - k_))
            continue;
        out = craftBase_;
        return true;
    }
    return false;
}

void
BeepProfiler::rebuildCraftMasks()
{
    const std::size_t p = code_.n() - k_;
    if (craftBase_.size() != k_) {
        craftBase_ = gf2::BitVector(k_);
        craftFeasData_ = gf2::BitVector(k_);
        craftFeasParity_ = gf2::BitVector(p);
    } else {
        craftBase_.fill(false);
    }
    for (const std::size_t cell : suspected_)
        if (code_.isDataPosition(cell))
            craftBase_.set(cell, true);

    // Data probe i is feasible iff every parity suspect c stays
    // charged: parityRow(c-k) . (base ^ e_i) = dot(base) ^ row[i]
    // must be 1, so each parity suspect ANDs row or its complement.
    craftFeasData_.fill(true);
    bool all_parity_ok = true;
    for (const std::size_t cell : suspected_) {
        if (code_.isDataPosition(cell))
            continue;
        const gf2::BitVector &row = code_.parityRow(cell - k_);
        if (row.dot(craftBase_)) {
            craftFeasData_.andNot(row);
        } else {
            all_parity_ok = false;
            craftFeasData_ &= row;
        }
    }

    // Parity probe k+j programs the base word itself; it is feasible
    // iff the base already charges every parity suspect and cell k+j.
    craftFeasParity_.fill(false);
    if (all_parity_ok)
        for (std::size_t j = 0; j < p; ++j)
            if (code_.parityRow(j).dot(craftBase_))
                craftFeasParity_.set(j, true);
}

void
BeepProfiler::observe(const RoundObservation &obs)
{
    // One fused pass computes the mismatch and detects the clean-read
    // common case (nothing to learn).
    if (!scratchA_.assignXor(obs.writtenData, obs.postCorrectionData))
        return;
    observedAnyError_ = true;
    identified_ |= scratchA_;
    // Every observed post-correction error position becomes a suspected
    // pre-correction at-risk cell. Some of these are actually indirect
    // errors (miscorrections); charging them in later patterns is merely
    // wasteful, not harmful.
    scratchA_.forEachSetBit(
        [&](std::size_t pos) { addSuspectedCell(pos); });
    precomputeIfSuspectsChanged();
}

void
BeepProfiler::precomputeIfSuspectsChanged()
{
    if (precomputedVersion_ == suspectsVersion_)
        return;
    precomputedVersion_ = suspectsVersion_;
    precomputeFromSuspects();
}

void
BeepProfiler::precomputeFromSuspects()
{
    // BEEP knows H, so (like HARP-A) it can compute the miscorrection
    // target of every uncorrectable combination of suspected cells and
    // pre-add those bits to its profile. The XORs of all suspect
    // subsets of size >= 2 live in the 2^p syndrome space and are
    // maintained incrementally: folding in a new column v adds v to
    // every size>=2 subset (reach2 ^ v) and forms new pairs from every
    // single column (reach1 ^ v).
    const auto shiftXorInto = [](const std::vector<std::uint64_t> &from,
                                 std::uint32_t v,
                                 std::vector<std::uint64_t> &into) {
        for (std::size_t w = 0; w < from.size(); ++w) {
            std::uint64_t word = from[w];
            while (word != 0) {
                const std::uint32_t t = static_cast<std::uint32_t>(
                    w * common::wordBits +
                    static_cast<std::size_t>(std::countr_zero(word)));
                word &= word - 1;
                const std::uint32_t shifted = t ^ v;
                into[common::wordIndex(shifted)] |=
                    std::uint64_t{1} << common::bitOffset(shifted);
            }
        }
    };
    std::vector<std::uint64_t> snapshot;
    for (const std::uint32_t v : pendingColumns_) {
        snapshot = reach2_;
        shiftXorInto(snapshot, v, reach2_);
        shiftXorInto(reach1_, v, reach2_);
        reach1_[common::wordIndex(v)] |= std::uint64_t{1}
                                         << common::bitOffset(v);
    }
    pendingColumns_.clear();

    // Mark the data-position decode target of every achievable
    // uncorrectable syndrome.
    for (std::size_t w = 0; w < reach2_.size(); ++w) {
        std::uint64_t word = reach2_[w];
        while (word != 0) {
            const std::uint32_t syndrome = static_cast<std::uint32_t>(
                w * common::wordBits +
                static_cast<std::size_t>(std::countr_zero(word)));
            word &= word - 1;
            const auto target = code_.syndromeToPosition(syndrome);
            if (target && code_.isDataPosition(*target))
                identified_.set(*target, true);
        }
    }
}

} // namespace harp::core
