/**
 * @file
 * Unit and property tests for the CNF constraint encodings, including a
 * cross-check of XOR constraints against the GF(2) linear solver (the two
 * independent engines the repository uses for feasibility questions).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "gf2/linear_solver.hh"
#include "sat/cnf_builder.hh"

namespace harp::sat {
namespace {

TEST(CnfBuilder, XorTwoVariables)
{
    CnfBuilder b;
    const auto vars = b.newVars(2);
    b.addXor({Lit::make(vars[0], true), Lit::make(vars[1], true)}, true);
    ASSERT_EQ(b.solver().solve(), SolveResult::Sat);
    EXPECT_NE(b.solver().modelValue(vars[0]),
              b.solver().modelValue(vars[1]));
}

TEST(CnfBuilder, XorParityZero)
{
    CnfBuilder b;
    const auto vars = b.newVars(3);
    std::vector<Lit> lits;
    for (const Var v : vars)
        lits.push_back(Lit::make(v, true));
    b.addXor(lits, false);
    ASSERT_EQ(b.solver().solve(), SolveResult::Sat);
    int ones = 0;
    for (const Var v : vars)
        ones += b.solver().modelValue(v) ? 1 : 0;
    EXPECT_EQ(ones % 2, 0);
}

TEST(CnfBuilder, LongXorUsesChunking)
{
    // 24 literals exceeds the direct-expansion chunk; correctness must be
    // preserved through the auxiliary-variable chain.
    CnfBuilder b;
    const auto vars = b.newVars(24);
    std::vector<Lit> lits;
    for (const Var v : vars)
        lits.push_back(Lit::make(v, true));
    b.addXor(lits, true);
    ASSERT_EQ(b.solver().solve(), SolveResult::Sat);
    int ones = 0;
    for (const Var v : vars)
        ones += b.solver().modelValue(v) ? 1 : 0;
    EXPECT_EQ(ones % 2, 1);
}

TEST(CnfBuilder, EmptyXor)
{
    CnfBuilder sat_ok;
    EXPECT_TRUE(sat_ok.addXor({}, false));
    CnfBuilder unsat;
    unsat.newVar();
    EXPECT_FALSE(unsat.addXor({}, true));
    EXPECT_EQ(unsat.solver().solve(), SolveResult::Unsat);
}

TEST(CnfBuilder, XorWithNegatedLiterals)
{
    // ¬x ⊕ y = 1 means x == y.
    CnfBuilder b;
    const auto vars = b.newVars(2);
    b.addXor({Lit::make(vars[0], false), Lit::make(vars[1], true)}, true);
    b.addClause(Clause{Lit::make(vars[0], true)});
    ASSERT_EQ(b.solver().solve(), SolveResult::Sat);
    EXPECT_TRUE(b.solver().modelValue(vars[1]));
}

TEST(CnfBuilder, AtMostOne)
{
    CnfBuilder b;
    const auto vars = b.newVars(4);
    std::vector<Lit> lits;
    for (const Var v : vars)
        lits.push_back(Lit::make(v, true));
    b.addAtMostOne(lits);
    // Force two true -> UNSAT.
    b.addClause(Clause{lits[0]});
    b.addClause(Clause{lits[2]});
    EXPECT_EQ(b.solver().solve(), SolveResult::Unsat);
}

TEST(CnfBuilder, ExactlyOne)
{
    CnfBuilder b;
    const auto vars = b.newVars(5);
    std::vector<Lit> lits;
    for (const Var v : vars)
        lits.push_back(Lit::make(v, true));
    b.addExactlyOne(lits);
    ASSERT_EQ(b.solver().solve(), SolveResult::Sat);
    int ones = 0;
    for (const Var v : vars)
        ones += b.solver().modelValue(v) ? 1 : 0;
    EXPECT_EQ(ones, 1);
}

TEST(CnfBuilder, Implication)
{
    CnfBuilder b;
    const auto vars = b.newVars(2);
    b.addImplies(Lit::make(vars[0], true), Lit::make(vars[1], true));
    b.addClause(Clause{Lit::make(vars[0], true)});
    ASSERT_EQ(b.solver().solve(), SolveResult::Sat);
    EXPECT_TRUE(b.solver().modelValue(vars[1]));
}

TEST(CnfBuilder, DefineAndSemantics)
{
    for (const bool va : {false, true}) {
        for (const bool vb : {false, true}) {
            CnfBuilder b;
            const auto vars = b.newVars(2);
            const Var y =
                b.defineAnd(Lit::make(vars[0], true),
                            Lit::make(vars[1], true));
            b.addClause(Clause{Lit::make(vars[0], va)});
            b.addClause(Clause{Lit::make(vars[1], vb)});
            ASSERT_EQ(b.solver().solve(), SolveResult::Sat);
            EXPECT_EQ(b.solver().modelValue(y), va && vb);
        }
    }
}

TEST(CnfBuilder, DefineOrSemantics)
{
    for (const bool va : {false, true}) {
        for (const bool vb : {false, true}) {
            CnfBuilder b;
            const auto vars = b.newVars(2);
            const Var y = b.defineOr({Lit::make(vars[0], true),
                                      Lit::make(vars[1], true)});
            b.addClause(Clause{Lit::make(vars[0], va)});
            b.addClause(Clause{Lit::make(vars[1], vb)});
            ASSERT_EQ(b.solver().solve(), SolveResult::Sat);
            EXPECT_EQ(b.solver().modelValue(y), va || vb);
        }
    }
}

/**
 * Property: a random GF(2) linear system is SAT-feasible iff the Gaussian
 * elimination solver finds it consistent. This is the exact cross-check
 * behind replacing the original artifact's SAT queries with GF(2)
 * feasibility in the enumeration-based ground truth.
 */
TEST(CnfBuilder, XorSystemAgreesWithGf2Solver)
{
    common::Xoshiro256 rng(41);
    int feasible = 0, infeasible = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t vars_n = 10;
        const std::size_t rows_n = 12;
        const gf2::BitMatrix a =
            gf2::BitMatrix::random(rows_n, vars_n, rng);
        const gf2::BitVector rhs = gf2::BitVector::random(rows_n, rng);

        const bool gf2_feasible = gf2::solve(a, rhs).has_value();

        CnfBuilder b;
        const auto vars = b.newVars(vars_n);
        bool added_ok = true;
        for (std::size_t r = 0; r < rows_n; ++r) {
            std::vector<Lit> lits;
            a.row(r).forEachSetBit([&](std::size_t c) {
                lits.push_back(Lit::make(vars[c], true));
            });
            added_ok = b.addXor(lits, rhs.get(r)) && added_ok;
        }
        const bool sat_feasible =
            added_ok && b.solver().solve() == SolveResult::Sat;
        EXPECT_EQ(sat_feasible, gf2_feasible) << "trial " << trial;
        (gf2_feasible ? feasible : infeasible) += 1;
    }
    // The random ensemble should exercise both outcomes.
    EXPECT_GT(feasible, 0);
    EXPECT_GT(infeasible, 0);
}

} // namespace
} // namespace harp::sat
