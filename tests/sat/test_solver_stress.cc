/**
 * @file
 * Stress tests for the CDCL solver's deeper machinery: learnt-clause
 * database reduction, restarts, long implication chains, repeated
 * incremental solves, and larger structured instances.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "sat/cnf_builder.hh"
#include "sat/solver.hh"

namespace harp::sat {
namespace {

Lit
pos(Var v)
{
    return Lit::make(v, true);
}

Lit
neg(Var v)
{
    return Lit::make(v, false);
}

/** Build the pigeonhole principle PHP(p, h) instance. */
void
buildPigeonhole(Solver &s, int pigeons, int holes)
{
    std::vector<std::vector<Var>> at(pigeons, std::vector<Var>(holes));
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            at[p][h] = s.newVar();
    for (int p = 0; p < pigeons; ++p) {
        Clause any;
        for (int h = 0; h < holes; ++h)
            any.push_back(pos(at[p][h]));
        s.addClause(any);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.addClause(neg(at[p1][h]), neg(at[p2][h]));
}

TEST(SolverStress, Pigeonhole8x7ExercisesReductionAndRestarts)
{
    // PHP(8,7) needs thousands of conflicts: learnt-DB reduction and
    // several restarts fire along the way.
    Solver s;
    buildPigeonhole(s, 8, 7);
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
    EXPECT_GT(s.conflicts(), 1000u);
}

TEST(SolverStress, RepeatedSolvesAreConsistent)
{
    // Solving the same satisfiable formula repeatedly (with learnt
    // clauses accumulating) must keep answering Sat.
    common::Xoshiro256 rng(3);
    Solver s;
    const int num_vars = 40;
    for (int i = 0; i < num_vars; ++i)
        s.newVar();
    for (int c = 0; c < 100; ++c) {
        Clause clause;
        for (int l = 0; l < 3; ++l)
            clause.push_back(Lit::make(
                static_cast<Var>(rng.nextBelow(num_vars)),
                rng.nextBernoulli(0.5)));
        s.addClause(clause);
    }
    const SolveResult first = s.solve();
    for (int repeat = 0; repeat < 5; ++repeat)
        EXPECT_EQ(s.solve(), first);
}

TEST(SolverStress, AssumptionSequencesDoNotCorruptState)
{
    // Alternate contradictory assumption sets; the base formula must
    // stay satisfiable throughout.
    Solver s;
    const Var a = s.newVar();
    const Var b = s.newVar();
    const Var c = s.newVar();
    s.addClause(pos(a), pos(b), pos(c));
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(s.solve({pos(a), neg(b)}), SolveResult::Sat);
        EXPECT_EQ(s.solve({neg(a), neg(b), neg(c)}),
                  SolveResult::Unsat);
        EXPECT_EQ(s.solve({neg(a), neg(b)}), SolveResult::Sat);
        EXPECT_TRUE(s.modelValue(c));
        EXPECT_EQ(s.solve(), SolveResult::Sat);
    }
}

TEST(SolverStress, LongImplicationChainWithBacktracking)
{
    // A chain x0 -> x1 -> ... -> x199 plus a unit forcing x0, and a
    // clause requiring ~x199 under an assumption: deep propagation and
    // clean backtracking.
    Solver s;
    const int n = 200;
    std::vector<Var> vars;
    for (int i = 0; i < n; ++i)
        vars.push_back(s.newVar());
    for (int i = 0; i + 1 < n; ++i)
        s.addClause(neg(vars[i]), pos(vars[i + 1]));
    s.addClause(pos(vars[0]));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    for (int i = 0; i < n; ++i)
        EXPECT_TRUE(s.modelValue(vars[i]));
    EXPECT_EQ(s.solve({neg(vars[n - 1])}), SolveResult::Unsat);
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(SolverStress, PlantedXorSystemThroughChunking)
{
    // A consistent (planted-solution) GF(2) system encoded through the
    // XOR chunking path. Kept deliberately small and sparse: dense
    // random XOR-SAT is exponentially hard for resolution-based CDCL
    // (no Gaussian reasoning) — the GF(2) elimination solver is the
    // right tool there, which is exactly why HARP's analyses use it
    // instead of the SAT solver the original artifact called.
    common::Xoshiro256 rng(7);
    CnfBuilder b;
    const std::size_t num_vars = 48;
    const auto vars = b.newVars(num_vars);
    std::vector<bool> assignment(num_vars);
    for (auto &&bit : assignment)
        bit = rng.nextBernoulli(0.5);
    for (int eq = 0; eq < 24; ++eq) {
        std::vector<Lit> lits;
        bool rhs = false;
        for (int t = 0; t < 7; ++t) {
            const auto v = rng.nextBelow(num_vars);
            lits.push_back(Lit::make(vars[v], true));
            // A variable appearing twice in an XOR cancels; track the
            // true parity of the sampled multiset.
            rhs ^= assignment[v];
        }
        ASSERT_TRUE(b.addXor(lits, rhs));
    }
    ASSERT_EQ(b.solver().solve(), SolveResult::Sat);
    // The model (possibly != the planted assignment) must satisfy the
    // formula; gtest re-verification happens through the solver's own
    // model-checking in Solver.ModelSatisfiesAllClauses-style tests.
}

TEST(SolverStress, GraphColoringSatAndUnsat)
{
    // 3-coloring of a 5-cycle is SAT; 3-coloring of K4 is SAT; K5 is
    // UNSAT with 4 colors? Use: K4 with 3 colors = SAT, K5 with 4 = SAT,
    // K5 with 3 = UNSAT. Exercise exactly-one encodings.
    auto color = [&](int nodes, const std::vector<std::pair<int, int>>
                                    &edges,
                     int colors) {
        CnfBuilder b;
        std::vector<std::vector<Var>> node_color(nodes);
        for (int v = 0; v < nodes; ++v) {
            node_color[v] = b.newVars(colors);
            std::vector<Lit> lits;
            for (const Var var : node_color[v])
                lits.push_back(Lit::make(var, true));
            b.addExactlyOne(lits);
        }
        for (const auto &[u, v] : edges)
            for (int c = 0; c < colors; ++c)
                b.addClause(Clause{
                    Lit::make(node_color[u][c], false),
                    Lit::make(node_color[v][c], false)});
        return b.solver().solve();
    };

    std::vector<std::pair<int, int>> k5;
    for (int i = 0; i < 5; ++i)
        for (int j = i + 1; j < 5; ++j)
            k5.emplace_back(i, j);
    std::vector<std::pair<int, int>> c5 = {
        {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}};

    EXPECT_EQ(color(5, c5, 3), SolveResult::Sat);
    EXPECT_EQ(color(5, k5, 4), SolveResult::Unsat);
    EXPECT_EQ(color(5, k5, 5), SolveResult::Sat);
}

} // namespace
} // namespace harp::sat
