/**
 * @file
 * Solving linear systems A·x = b over GF(2).
 *
 * The HARP reproduction uses this for (a) data-pattern feasibility in the
 * at-risk ground-truth analysis — "does a dataword exist that charges this
 * set of cells?", asked of every subset of one word's cells through
 * RowDependencies — and (b) BEEP's pattern crafting, where target cell
 * charge states are affine functions of the dataword.
 */

#ifndef HARP_GF2_LINEAR_SOLVER_HH
#define HARP_GF2_LINEAR_SOLVER_HH

#include <bit>
#include <cstdint>
#include <optional>

#include "gf2/bit_matrix.hh"

namespace harp::gf2 {

/** Solution of a GF(2) linear system. */
struct LinearSolution
{
    /** One particular solution x with A·x = b. */
    BitVector particular;
    /** Basis of the nullspace of A; the full solution set is
     *  particular + span(nullspace). */
    std::vector<BitVector> nullspace;
};

/**
 * Solve A·x = b over GF(2).
 *
 * @return std::nullopt when the system is inconsistent; otherwise a
 *         particular solution plus a nullspace basis describing all
 *         solutions.
 */
std::optional<LinearSolution> solve(const BitMatrix &a, const BitVector &b);

/**
 * Incremental affine-constraint system over GF(2).
 *
 * Collects constraints of the form row · x = rhs and answers consistency /
 * solution queries. Used to build data patterns subject to per-cell charge
 * requirements.
 */
class ConstraintSystem
{
  public:
    /** @param num_vars Number of unknowns (dataword length). */
    explicit ConstraintSystem(std::size_t num_vars);

    std::size_t numVars() const { return numVars_; }

    /** Add constraint row · x = rhs. */
    void addConstraint(const BitVector &row, bool rhs);

    /** Convenience: force variable @p var to @p value. */
    void pinVariable(std::size_t var, bool value);

    /** True iff at least one assignment satisfies every constraint. */
    bool consistent() const;

    /** One satisfying assignment, if any. */
    std::optional<BitVector> solveAny() const;

  private:
    std::size_t numVars_;
    std::vector<BitVector> rows_;
    std::vector<bool> rhs_;
};

/**
 * Consistency of every sub-system of one fixed row list, decided by the
 * rows' left nullspace.
 *
 * For rows r_0..r_{m-1} (m <= 64), the sub-system { r_i · x = b_i : i in
 * S } is consistent iff every dependency T — a set of rows that sums to
 * zero — with T ⊆ S has even popcount(T & b). The constructor eliminates
 * the rows once, tracking which rows each reduced row combines, and
 * enumerates the span of the dependencies it finds (2^(m - rank)
 * entries, one when the rows are independent). Each query is then one
 * mask test per dependency, with no elimination.
 */
class RowDependencies
{
  public:
    /** @param rows Equal-length rows; at most 64. */
    explicit RowDependencies(const std::vector<BitVector> &rows);

    /** Every nonempty set of rows (bit i = row i) that sums to zero. */
    const std::vector<std::uint64_t> &dependencies() const { return deps_; }

    /**
     * True iff some x satisfies r_i · x = bit i of @p rhs for every row i
     * in @p included. Bits of @p rhs outside @p included are ignored.
     */
    bool consistent(std::uint64_t included, std::uint64_t rhs) const
    {
        for (const std::uint64_t dep : deps_)
            if ((dep & ~included) == 0 && std::popcount(dep & rhs) % 2 != 0)
                return false;
        return true;
    }

  private:
    std::vector<std::uint64_t> deps_;
};

} // namespace harp::gf2

#endif // HARP_GF2_LINEAR_SOLVER_HH
