/**
 * @file
 * Per-word fault model: which cells are at risk of pre-correction error and
 * with what probability, plus data-dependent error injection.
 *
 * Implements the three-property error model of HARP section 2.4:
 * (1) Bernoulli, (2) isolated, (3) data-dependent.
 */

#ifndef HARP_FAULT_FAULT_MODEL_HH
#define HARP_FAULT_FAULT_MODEL_HH

#include <cstddef>
#include <vector>

#include "common/rng.hh"
#include "fault/cell.hh"
#include "gf2/bit_vector.hh"

namespace harp::fault {

/** One at-risk cell: codeword position plus per-access failure probability
 *  (conditioned on the cell being charged). */
struct CellFault
{
    std::size_t position = 0;
    double probability = 0.0;

    bool operator==(const CellFault &o) const
    {
        return position == o.position && probability == o.probability;
    }
};

/**
 * Fault model for one ECC word (codeword of n = k + p cells).
 */
class WordFaultModel
{
  public:
    WordFaultModel() = default;

    /**
     * @param word_bits Codeword length n.
     * @param faults    At-risk cells (positions must be < n and distinct).
     * @param tech      Charge encoding shared by all cells of the word.
     */
    WordFaultModel(std::size_t word_bits, std::vector<CellFault> faults,
                   CellTechnology tech = CellTechnology::TrueCell);

    /**
     * Fixed-count generator: @p count distinct at-risk cells placed
     * uniformly at random, each failing with @p probability. This is the
     * paper's Fig. 4/6-9 workload ("n pre-correction errors per ECC word").
     */
    static WordFaultModel makeUniformFixedCount(std::size_t word_bits,
                                                std::size_t count,
                                                double probability,
                                                common::Xoshiro256 &rng);

    /**
     * RBER-driven generator: every cell is independently at risk with
     * probability @p rber; at-risk cells fail with @p probability. This is
     * the Fig. 10 data-retention workload.
     */
    static WordFaultModel makeUniformRber(std::size_t word_bits, double rber,
                                          double probability,
                                          common::Xoshiro256 &rng);

    std::size_t wordBits() const { return wordBits_; }
    CellTechnology technology() const { return tech_; }
    const std::vector<CellFault> &faults() const { return faults_; }
    std::size_t numFaults() const { return faults_.size(); }

    /**
     * Sample an error mask for one access.
     *
     * A cell flips iff it is at risk, currently charged given
     * @p stored_codeword, and its Bernoulli trial succeeds.
     *
     * @return n-bit mask; set bits are pre-correction errors.
     */
    gf2::BitVector injectErrors(const gf2::BitVector &stored_codeword,
                                common::Xoshiro256 &rng) const;

    /**
     * Common-random-numbers variant: the i-th at-risk cell flips iff it is
     * charged and @p uniforms[i] < its probability. Lets the evaluation
     * expose *identical* pre-correction randomness to every profiler
     * (HARP section 7.1.2's fairness requirement) even when profilers
     * write different data patterns.
     */
    gf2::BitVector injectErrorsCrn(const gf2::BitVector &stored_codeword,
                                   const std::vector<double> &uniforms) const;

  private:
    std::size_t wordBits_ = 0;
    std::vector<CellFault> faults_;
    CellTechnology tech_ = CellTechnology::TrueCell;
};

} // namespace harp::fault

#endif // HARP_FAULT_FAULT_MODEL_HH
