#include "core/harp_a_beep_profiler.hh"

namespace harp::core {

HarpABeepProfiler::HarpABeepProfiler(const ecc::HammingCode &code,
                                     std::size_t stability_window)
    : BeepProfiler(code),
      identifiedDirect_(code.k()),
      stabilityWindow_(stability_window)
{
}

bool
HarpABeepProfiler::craftDataword(gf2::BitVector &out)
{
    // Active phase: standard worst-case patterns until the direct profile
    // has been stable long enough to believe it is complete; afterwards
    // BEEP's crafted patterns hunt the remaining indirect errors.
    return craftingActive() && BeepProfiler::craftDataword(out);
}

void
HarpABeepProfiler::observe(const RoundObservation &obs)
{
    // Direct errors via the decode-bypass path, exactly as HARP-U; the
    // fused pass also detects the clean-bypass-read common case, where
    // only the stability window advances before BEEP's normal-path
    // step.
    if (!scratchA_.assignXor(obs.writtenData, obs.rawData)) {
        ++roundsSinceNewDirect_;
        BeepProfiler::observe(obs);
        return;
    }
    scratchB_ = scratchA_;
    scratchB_ &= identifiedDirect_;
    scratchA_ ^= scratchB_; // newly seen direct errors only
    if (!scratchA_.isZero()) {
        roundsSinceNewDirect_ = 0;
        identifiedDirect_ |= scratchA_;
        identified_ |= scratchA_;
        // Seed BEEP's crafting with the confirmed at-risk cells and
        // refresh the precomputed miscorrection targets (HARP-A's
        // prediction step, using BEEP's machinery).
        scratchA_.forEachSetBit([&](std::size_t pos) {
            addSuspectedCell(pos);
        });
        precomputeIfSuspectsChanged();
    } else {
        ++roundsSinceNewDirect_;
    }
    // Indirect errors via normal-path observation (BEEP's step). This
    // also picks up miscorrections caused by parity-cell errors.
    BeepProfiler::observe(obs);
}

} // namespace harp::core
