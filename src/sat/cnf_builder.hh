/**
 * @file
 * Structured constraint encoding on top of the CDCL solver.
 *
 * Provides the encoding HARP's analyses need beyond plain clauses: XOR
 * (parity) constraints for GF(2) relations between dataword bits and
 * parity/syndrome bits.
 */

#ifndef HARP_SAT_CNF_BUILDER_HH
#define HARP_SAT_CNF_BUILDER_HH

#include <cstddef>
#include <vector>

#include "sat/solver.hh"
#include "sat/types.hh"

namespace harp::sat {

/**
 * Convenience layer that owns a Solver and offers higher-level constraints.
 */
class CnfBuilder
{
  public:
    CnfBuilder() = default;

    /** Create @p n fresh variables and return their indices. */
    std::vector<Var> newVars(std::size_t n);

    Var newVar() { return solver_.newVar(); }

    Solver &solver() { return solver_; }
    const Solver &solver() const { return solver_; }

    /** Plain clause passthrough. */
    bool addClause(Clause clause) { return solver_.addClause(std::move(clause)); }

    /**
     * Add the parity constraint l1 ⊕ l2 ⊕ ... ⊕ ln = rhs.
     *
     * Short constraints are expanded directly (2^(n-1) clauses); longer
     * ones are chunked through fresh auxiliary variables so clause count
     * stays linear.
     */
    bool addXor(const std::vector<Lit> &lits, bool rhs);

  private:
    /** Direct CNF expansion of an XOR over ≤ chunk-size literals. */
    bool addXorDirect(const std::vector<Lit> &lits, bool rhs);

    Solver solver_;
};

} // namespace harp::sat

#endif // HARP_SAT_CNF_BUILDER_HH
