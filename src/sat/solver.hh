/**
 * @file
 * Conflict-driven clause-learning (CDCL) SAT solver.
 *
 * This is the repository's substitute for the paper's Z3 dependency (HARP
 * artifact, appendix A.4): it powers BEEP's data-pattern crafting queries
 * and cross-checks the exact at-risk enumeration in tests. Features:
 * two-literal watching, 1-UIP clause learning, VSIDS-style decaying
 * activities, phase saving, geometric restarts, and learnt-clause deletion.
 */

#ifndef HARP_SAT_SOLVER_HH
#define HARP_SAT_SOLVER_HH

#include <cstdint>
#include <vector>

#include "sat/types.hh"

namespace harp::sat {

/**
 * CDCL SAT solver over CNF formulas.
 *
 * Usage: create variables with newVar(), add clauses with addClause(),
 * query with solve(), then read the model with modelValue().
 */
class Solver
{
  public:
    Solver();

    /** Create a fresh variable and return its index. */
    Var newVar();

    std::size_t numVars() const { return numVars_; }
    std::size_t numClauses() const { return numProblemClauses_; }

    /**
     * Add a problem clause.
     *
     * Tautologies are dropped, duplicate literals removed. Adding an empty
     * clause (or a clause falsified at level 0) makes the formula UNSAT.
     *
     * @return false iff the formula is already known UNSAT.
     */
    bool addClause(Clause clause);

    /**
     * Decide satisfiability.
     *
     * @param conflict_budget Abort with Unknown after this many conflicts;
     *        0 means unlimited.
     */
    SolveResult solve(std::uint64_t conflict_budget = 0);

    /**
     * Decide satisfiability under assumptions (temporary unit literals).
     * The assumptions are not added to the formula.
     */
    SolveResult solve(const std::vector<Lit> &assumptions,
                      std::uint64_t conflict_budget = 0);

    /** Value of @p v in the most recent satisfying model. */
    bool modelValue(Var v) const;

    /** Total conflicts encountered over the solver's lifetime. */
    std::uint64_t conflicts() const { return stats_.conflicts; }
    /** Total decisions made over the solver's lifetime. */
    std::uint64_t decisions() const { return stats_.decisions; }
    /** Total literal propagations over the solver's lifetime. */
    std::uint64_t propagations() const { return stats_.propagations; }

  private:
    struct Watcher
    {
        std::uint32_t clause;
        Lit blocker;
    };

    struct ClauseData
    {
        std::vector<Lit> lits;
        double activity = 0.0;
        bool learnt = false;
        bool deleted = false;
    };

    struct Stats
    {
        std::uint64_t conflicts = 0;
        std::uint64_t decisions = 0;
        std::uint64_t propagations = 0;
        std::uint64_t restarts = 0;
    };

    static constexpr std::uint32_t invalidClause = ~std::uint32_t{0};

    LBool value(Lit l) const;

    void attachClause(std::uint32_t ci);
    void enqueue(Lit l, std::uint32_t reason);
    std::uint32_t propagate();
    void analyze(std::uint32_t confl, Clause &out_learnt, int &out_btlevel);
    void backtrack(int level);
    void bumpVarActivity(Var v);
    void decayVarActivity();
    void bumpClauseActivity(std::uint32_t ci);
    void reduceDb();
    Lit pickBranchLit();
    int currentLevel() const
    {
        return static_cast<int>(trailLimits_.size());
    }

    std::size_t numVars_ = 0;
    std::size_t numProblemClauses_ = 0;
    bool okay_ = true;

    std::vector<ClauseData> clauses_;
    std::vector<std::vector<Watcher>> watches_;

    std::vector<LBool> assigns_;
    std::vector<bool> savedPhase_;
    std::vector<int> levels_;
    std::vector<std::uint32_t> reasons_;

    std::vector<Lit> trail_;
    std::vector<std::size_t> trailLimits_;
    std::size_t propagateHead_ = 0;

    std::vector<double> varActivity_;
    double varActivityInc_ = 1.0;
    double clauseActivityInc_ = 1.0;

    std::vector<bool> seen_;
    Stats stats_;
};

} // namespace harp::sat

#endif // HARP_SAT_SOLVER_HH
