/**
 * @file
 * Exact ground-truth analysis of at-risk bits for one ECC word
 * (HARP sections 3.2, 4.1 and 7.1.2).
 *
 * Given the on-die ECC code and the word's fault model, the analyzer
 * enumerates every feasible pre-correction error pattern (every subset of
 * at-risk cells that some dataword can charge simultaneously) and pushes
 * it through syndrome decoding. From the resulting outcomes it derives:
 *
 *  - the set of bits at risk of direct error,
 *  - the set of bits at risk of indirect error (miscorrection targets),
 *  - per-bit post-correction error probabilities for a fixed data pattern
 *    (Fig. 4),
 *  - the maximum number of simultaneous post-correction errors possible
 *    given a repair profile (Fig. 9),
 *  - the bits that remain unsafe under a single-error-correcting
 *    secondary ECC (Fig. 10's "after reactive profiling" metric).
 *
 * The original artifact computed these quantities with the Z3 SAT solver.
 * Here, exhaustive enumeration with exact GF(2) feasibility gives the same
 * answers, and is affordable for the evaluated regime (<= ~16 at-risk
 * cells per word).
 *
 * Feasibility of a pattern is a linear system over the dataword: one row
 * per constrained cell (storedValueRows()), with the cell's required
 * stored value on the right. The rows are fixed per word, so the
 * analyzer eliminates them once (gf2::RowDependencies) to find the sets
 * of cells whose rows sum to zero. A pattern is then infeasible iff one
 * such set lies wholly among the constrained cells and requires an odd
 * number of them to store 1 — a mask test per dependency, and the rows
 * are almost always independent, so there is usually nothing to test.
 */

#ifndef HARP_CORE_AT_RISK_ANALYZER_HH
#define HARP_CORE_AT_RISK_ANALYZER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "ecc/hamming_code.hh"
#include "fault/fault_model.hh"
#include "gf2/bit_vector.hh"

namespace harp::core {

/** One feasible pre-correction error pattern and its decode outcome. */
struct ErrorPatternOutcome
{
    /** Bitmask over the word's at-risk cell list: which cells fail. */
    std::uint32_t failingMask = 0;
    /** Raw syndrome of the failing pattern. */
    std::uint32_t syndrome = 0;
    /** Position the decoder flips, if the syndrome matches a column. */
    std::optional<std::size_t> correctedPosition;
    /** Data positions in error after decoding (sorted). */
    std::vector<std::uint16_t> postErrors;
};

/**
 * Row i is the dataword functional of cell i's stored value: the unit
 * vector of a data cell's position, or the code's parity row for a
 * parity cell. Works for any systematic code with k(), isDataPosition()
 * and parityRow().
 */
template <typename Code>
std::vector<gf2::BitVector>
storedValueRows(const Code &code, const std::vector<fault::CellFault> &cells)
{
    std::vector<gf2::BitVector> rows;
    rows.reserve(cells.size());
    for (const fault::CellFault &cell : cells) {
        if (code.isDataPosition(cell.position)) {
            rows.emplace_back(code.k());
            rows.back().set(cell.position, true);
        } else {
            rows.push_back(code.parityRow(cell.position - code.k()));
        }
    }
    return rows;
}

/**
 * Ground-truth at-risk analysis for a single (code, fault model) pair.
 */
class AtRiskAnalyzer
{
  public:
    /**
     * @param code      The word's on-die ECC code.
     * @param faults    The word's fault model.
     * @param max_cells Enumeration guard; throws std::invalid_argument if
     *                  the fault model has more at-risk cells than this
     *                  (2^cells patterns are enumerated), or if it
     *                  exceeds the 31 cells a pattern mask can hold.
     */
    AtRiskAnalyzer(const ecc::HammingCode &code,
                   const fault::WordFaultModel &faults,
                   std::size_t max_cells = defaultMaxCells);

    /** The default enumeration guard: 2^16 failing patterns. */
    static constexpr std::size_t defaultMaxCells = 16;

    /** Every feasible failing pattern with its decode outcome. */
    const std::vector<ErrorPatternOutcome> &outcomes() const
    {
        return outcomes_;
    }

    /** Data cells at risk of pre-correction (direct) error. */
    const gf2::BitVector &directAtRisk() const { return directAtRisk_; }

    /** Data bits at risk of indirect error (possible miscorrection
     *  targets), which may overlap directAtRisk(). */
    const gf2::BitVector &indirectAtRisk() const { return indirectAtRisk_; }

    /** Union of all data bits that can appear erroneous post-correction. */
    const gf2::BitVector &postCorrectionAtRisk() const
    {
        return postCorrectionAtRisk_;
    }

    /**
     * Maximum number of simultaneous post-correction errors possible in
     * bits *not* covered by @p profile (Fig. 9's secondary-ECC sizing
     * metric). @p profile is a k-bit bitmap of repaired positions.
     */
    std::size_t
    maxSimultaneousErrors(const gf2::BitVector &profile) const;

    /**
     * Number of unprofiled bits that can appear in a pattern with >= 2
     * simultaneous unprofiled post-correction errors — the bits a
     * single-error-correcting secondary ECC cannot guarantee to mitigate
     * during reactive profiling (Fig. 10, "after" metric).
     */
    std::size_t unsafeBitsAfterReactive(const gf2::BitVector &profile) const;

    /** Count of post-correction-at-risk bits missing from @p profile. */
    std::size_t unidentifiedAtRisk(const gf2::BitVector &profile) const;

    /**
     * Exact per-bit post-correction error probability for data pattern
     * @p dataword (Fig. 4): index i holds P[post-correction error at data
     * bit i] under independent Bernoulli cell failures.
     */
    std::vector<double>
    perBitErrorProbability(const gf2::BitVector &dataword) const;

  private:
    /** Decode outcome of an arbitrary failing-cell mask (no feasibility
     *  check). */
    ErrorPatternOutcome computeOutcome(std::uint32_t mask) const;

    const ecc::HammingCode &code_;
    const fault::WordFaultModel &faults_;
    std::vector<fault::CellFault> cells_;

    std::vector<ErrorPatternOutcome> outcomes_;
    gf2::BitVector directAtRisk_;
    gf2::BitVector indirectAtRisk_;
    gf2::BitVector postCorrectionAtRisk_;
};

} // namespace harp::core

#endif // HARP_CORE_AT_RISK_ANALYZER_HH
