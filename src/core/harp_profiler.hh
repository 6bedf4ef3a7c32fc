/**
 * @file
 * HARP-U and HARP-A active profilers (HARP section 6).
 *
 * Both use the on-die ECC decode-bypass read path to observe raw data-bit
 * values, which reduces profiling a chip with on-die ECC to profiling one
 * without: every at-risk data cell is identified independently the first
 * time it fails, regardless of which other cells fail concurrently.
 *
 * HARP-A ("aware") additionally knows the on-die ECC parity-check matrix
 * and precomputes bits at risk of indirect error from the direct errors
 * identified so far (section 6.3.1). It cannot predict miscorrections
 * caused by parity-cell errors, because the bypass path does not expose
 * parity bits — exactly the limitation the paper notes in section 7.3.1.
 */

#ifndef HARP_CORE_HARP_PROFILER_HH
#define HARP_CORE_HARP_PROFILER_HH

#include <vector>

#include "core/profiler.hh"
#include "ecc/hamming_code.hh"

namespace harp::core {

/**
 * HARP-Unaware: bypass-based direct-error profiler.
 */
class HarpUProfiler : public Profiler
{
  public:
    explicit HarpUProfiler(std::size_t k);

    std::string name() const override { return "HARP-U"; }
    bool usesBypassPath() const override { return true; }

    void observe(const RoundObservation &obs) override;

    /** HARP-U's observe is pure positionwise accumulation over the
     *  bypass lanes: identified = direct |= written ^ raw. */
    LaneObserveKind laneObserveKind() const override
    {
        return LaneObserveKind::Bypass;
    }

    bool cleanObserveIsNoOp() const override { return true; }

    /** Data cells identified as at risk of *direct* error. Reading it
     *  flushes any pending lane-group state, like identified(). */
    const gf2::BitVector &identifiedDirect() const
    {
        if (laneGroup_ != nullptr)
            syncLaneState();
        return identifiedDirect_;
    }

    void absorbLaneDirect(const gf2::BitVector &bits) override
    {
        identifiedDirect_ |= bits;
    }

    const gf2::BitVector *laneDirectState() const override
    {
        return &identifiedDirect_;
    }

  protected:
    gf2::BitVector identifiedDirect_;
};

/**
 * HARP-Aware: HARP-U plus indirect-error precomputation from the known
 * parity-check matrix.
 */
class HarpAProfiler : public HarpUProfiler
{
  public:
    /**
     * @param code The on-die ECC code (parity-check matrix knowledge,
     *             e.g.\ from manufacturer support or BEER-style reverse
     *             engineering).
     */
    explicit HarpAProfiler(const ecc::HammingCode &code);

    std::string name() const override { return "HARP-A"; }

    void observe(const RoundObservation &obs) override;

    /** HARP-U's accumulation plus per-lane prediction refresh on
     *  direct-set growth (laneDirectGrew). */
    LaneObserveKind laneObserveKind() const override
    {
        return LaneObserveKind::BypassAware;
    }

    const gf2::BitVector *
    laneDirectGrew(const gf2::BitVector &direct) override;

    /** Data bits predicted to be at risk of indirect error. */
    const gf2::BitVector &predictedIndirect() const
    {
        return predictedIndirect_;
    }

  private:
    void recomputePredictions();

    const ecc::HammingCode &code_;
    gf2::BitVector predictedIndirect_;
    std::size_t lastDirectCount_ = 0;
};

} // namespace harp::core

#endif // HARP_CORE_HARP_PROFILER_HH
