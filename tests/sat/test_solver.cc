/**
 * @file
 * Unit and property tests for the CDCL SAT solver, including brute-force
 * cross-checks on random small formulas and classic UNSAT families.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
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

TEST(Lit, PackingRoundTrip)
{
    const Lit a = Lit::make(5, true);
    EXPECT_EQ(a.var(), 5);
    EXPECT_TRUE(a.positive());
    const Lit na = ~a;
    EXPECT_EQ(na.var(), 5);
    EXPECT_FALSE(na.positive());
    EXPECT_EQ(~na, a);
    EXPECT_NE(a, na);
}

TEST(Solver, TrivialSat)
{
    Solver s;
    const Var x = s.newVar();
    s.addClause({pos(x)});
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(x));
}

TEST(Solver, TrivialUnsat)
{
    Solver s;
    const Var x = s.newVar();
    s.addClause({pos(x)});
    EXPECT_FALSE(s.addClause({neg(x)}));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Solver, EmptyFormulaIsSat)
{
    Solver s;
    s.newVar();
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Solver, EmptyClauseIsUnsat)
{
    Solver s;
    s.newVar();
    EXPECT_FALSE(s.addClause(Clause{}));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Solver, TautologyIsDropped)
{
    Solver s;
    const Var x = s.newVar();
    EXPECT_TRUE(s.addClause(Clause{pos(x), neg(x)}));
    EXPECT_EQ(s.numClauses(), 0u);
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Solver, DuplicateLiteralsCollapse)
{
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    EXPECT_TRUE(s.addClause(Clause{pos(x), pos(x), pos(y)}));
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Solver, UnitPropagationChain)
{
    // x0 ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2) ∧ ... forces all true.
    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < 20; ++i)
        vars.push_back(s.newVar());
    s.addClause({pos(vars[0])});
    for (int i = 0; i + 1 < 20; ++i)
        s.addClause({neg(vars[i]), pos(vars[i + 1])});
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    for (const Var v : vars)
        EXPECT_TRUE(s.modelValue(v));
}

TEST(Solver, ImplicationCycleWithConflict)
{
    // (x ∨ y) ∧ (x ∨ ¬y) ∧ (¬x ∨ y) ∧ (¬x ∨ ¬y) is UNSAT.
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    s.addClause({pos(x), pos(y)});
    s.addClause({pos(x), neg(y)});
    s.addClause({neg(x), pos(y)});
    s.addClause({neg(x), neg(y)});
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Solver, PigeonholeUnsat)
{
    // 4 pigeons into 3 holes: classic UNSAT requiring real search.
    const int pigeons = 4, holes = 3;
    Solver s;
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
                s.addClause({neg(at[p1][h]), neg(at[p2][h])});
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Solver, PigeonholeSatWhenEnoughHoles)
{
    const int pigeons = 4, holes = 4;
    Solver s;
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
                s.addClause({neg(at[p1][h]), neg(at[p2][h])});
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Solver, AssumptionsRestrictModels)
{
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    s.addClause({pos(x), pos(y)});
    EXPECT_EQ(s.solve({neg(x)}), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(y));
    EXPECT_EQ(s.solve({neg(x), neg(y)}), SolveResult::Unsat);
    // The formula itself is unchanged: still SAT without assumptions.
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Solver, ModelSatisfiesAllClauses)
{
    // Random 3-SAT at a satisfiable density, model-checked clause by
    // clause.
    common::Xoshiro256 rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        Solver s;
        const int num_vars = 15;
        std::vector<Var> vars;
        for (int i = 0; i < num_vars; ++i)
            vars.push_back(s.newVar());
        std::vector<Clause> clauses;
        const int num_clauses = 40; // density ~2.7: nearly always SAT
        for (int c = 0; c < num_clauses; ++c) {
            Clause clause;
            for (int l = 0; l < 3; ++l) {
                const Var v = vars[rng.nextBelow(num_vars)];
                clause.push_back(Lit::make(v, rng.nextBernoulli(0.5)));
            }
            clauses.push_back(clause);
            s.addClause(clause);
        }
        if (s.solve() != SolveResult::Sat)
            continue;
        for (const Clause &clause : clauses) {
            bool satisfied = false;
            for (const Lit l : clause)
                satisfied |= (s.modelValue(l.var()) == l.positive());
            EXPECT_TRUE(satisfied);
        }
    }
}

TEST(Solver, AgreesWithBruteForceOnSmallFormulas)
{
    common::Xoshiro256 rng(7);
    for (int trial = 0; trial < 60; ++trial) {
        const int num_vars = 8;
        const int num_clauses = 24 + static_cast<int>(rng.nextBelow(16));
        std::vector<Clause> clauses;
        for (int c = 0; c < num_clauses; ++c) {
            Clause clause;
            const int len = 1 + static_cast<int>(rng.nextBelow(3));
            for (int l = 0; l < len; ++l)
                clause.push_back(Lit::make(
                    static_cast<Var>(rng.nextBelow(num_vars)),
                    rng.nextBernoulli(0.5)));
            clauses.push_back(clause);
        }
        // Brute force over all 256 assignments.
        bool brute_sat = false;
        for (unsigned assign = 0; assign < 256 && !brute_sat; ++assign) {
            bool all = true;
            for (const Clause &clause : clauses) {
                bool any = false;
                for (const Lit l : clause) {
                    const bool val = (assign >> l.var()) & 1;
                    any |= (val == l.positive());
                }
                if (!any) {
                    all = false;
                    break;
                }
            }
            brute_sat = all;
        }
        Solver s;
        for (int i = 0; i < num_vars; ++i)
            s.newVar();
        for (const Clause &clause : clauses)
            if (!s.addClause(clause))
                break;
        const SolveResult result = s.solve();
        EXPECT_EQ(result == SolveResult::Sat, brute_sat)
            << "trial " << trial;
    }
}

TEST(Solver, ConflictBudgetReturnsUnknown)
{
    // A hard pigeonhole instance with a one-conflict budget should give
    // up rather than answer.
    const int pigeons = 7, holes = 6;
    Solver s;
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
                s.addClause({neg(at[p1][h]), neg(at[p2][h])});
    EXPECT_EQ(s.solve(1), SolveResult::Unknown);
    // And with an unlimited budget it proves UNSAT.
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Solver, StatsAdvance)
{
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    s.addClause({pos(x), pos(y)});
    s.addClause({neg(x), pos(y)});
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_GE(s.decisions() + s.propagations(), 1u);
}

} // namespace
} // namespace harp::sat
