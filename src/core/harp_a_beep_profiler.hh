/**
 * @file
 * HARP-A+BEEP hybrid profiler (HARP section 7.3.1).
 *
 * Combines HARP's bypass-based direct-error identification with BEEP's
 * crafted patterns: the direct errors found through the bypass path seed
 * BEEP's suspect set, letting the crafted patterns immediately target
 * known at-risk cells and expose the remaining indirect errors (including
 * those caused by parity-cell errors, which HARP-A alone cannot predict).
 */

#ifndef HARP_CORE_HARP_A_BEEP_PROFILER_HH
#define HARP_CORE_HARP_A_BEEP_PROFILER_HH

#include "core/beep_profiler.hh"

namespace harp::core {

/**
 * BEEP crafting + bypass observation + parity-check-matrix prediction.
 *
 * Per the paper, BEEP takes over "once HARP-A has identified all bits at
 * risk of direct errors". Lacking an oracle for completeness, the hybrid
 * switches to crafted patterns once the direct profile has been stable
 * for a configurable number of rounds, and falls back to the standard
 * pattern whenever a new direct error appears (restarting the window).
 */
class HarpABeepProfiler : public BeepProfiler
{
  public:
    /**
     * @param code             On-die ECC code (parity-check knowledge).
     * @param stability_window Consecutive no-new-direct-error rounds
     *                         before crafted patterns engage.
     */
    explicit HarpABeepProfiler(const ecc::HammingCode &code,
                               std::size_t stability_window = 8);

    std::string name() const override { return "HARP-A+BEEP"; }
    bool usesBypassPath() const override { return true; }

    /** Clean reads are *not* no-ops here: the stability window that
     *  gates the switch to crafted patterns advances on every round
     *  without a new direct error. */
    bool cleanObserveIsNoOp() const override { return false; }

    bool craftDataword(gf2::BitVector &out) override;

    void observe(const RoundObservation &obs) override;

    /** Data cells identified as at risk of direct error (bypass path). */
    const gf2::BitVector &identifiedDirect() const
    {
        return identifiedDirect_;
    }

    /** True once crafted (BEEP) patterns are active. */
    bool craftingActive() const
    {
        return roundsSinceNewDirect_ >= stabilityWindow_;
    }

  private:
    gf2::BitVector identifiedDirect_;
    std::size_t stabilityWindow_;
    std::size_t roundsSinceNewDirect_ = 0;
};

} // namespace harp::core

#endif // HARP_CORE_HARP_A_BEEP_PROFILER_HH
