/**
 * @file
 * Unit and property tests for the GF(2) linear solver, the
 * constraint-system wrapper, and the sub-system consistency check built
 * on the rows' left nullspace.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "gf2/linear_solver.hh"
#include "support/property.hh"

namespace harp::gf2 {
namespace {

TEST(LinearSolver, SolvesIdentitySystem)
{
    const BitMatrix a = BitMatrix::identity(5);
    const BitVector b = BitVector::fromUint(0b10110, 5);
    const auto sol = solve(a, b);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(sol->particular, b);
    EXPECT_TRUE(sol->nullspace.empty());
}

TEST(LinearSolver, DetectsInconsistency)
{
    // x0 = 0 and x0 = 1 simultaneously.
    BitMatrix a(2, 1);
    a.set(0, 0, true);
    a.set(1, 0, true);
    BitVector b(2);
    b.set(1, true);
    EXPECT_FALSE(solve(a, b).has_value());
}

TEST(LinearSolver, UnderdeterminedNullspace)
{
    // One equation, three unknowns: x0 ^ x1 ^ x2 = 1.
    BitMatrix a(1, 3);
    a.set(0, 0, true);
    a.set(0, 1, true);
    a.set(0, 2, true);
    BitVector b(1);
    b.set(0, true);
    const auto sol = solve(a, b);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(sol->nullspace.size(), 2u);
    // Particular solution satisfies the equation.
    EXPECT_TRUE(a.multiply(sol->particular) == b);
    // Every nullspace combination also satisfies it.
    for (const BitVector &basis : sol->nullspace) {
        BitVector x = sol->particular;
        x ^= basis;
        EXPECT_TRUE(a.multiply(x) == b);
    }
}

TEST(LinearSolver, RandomSystemsSolutionsVerify)
{
    common::Xoshiro256 rng(17);
    int solved = 0;
    for (int trial = 0; trial < 50; ++trial) {
        const BitMatrix a = BitMatrix::random(8, 12, rng);
        const BitVector b = BitVector::random(8, rng);
        const auto sol = solve(a, b);
        if (!sol)
            continue;
        ++solved;
        EXPECT_EQ(a.multiply(sol->particular), b);
        for (const BitVector &basis : sol->nullspace)
            EXPECT_TRUE(a.multiply(basis).isZero());
        // Rank-nullity: #nullspace = cols - rank.
        EXPECT_EQ(sol->nullspace.size(), 12u - a.rank());
    }
    // Wide random systems are almost always consistent.
    EXPECT_GT(solved, 40);
}

TEST(LinearSolver, SquareSingularConsistentAndInconsistent)
{
    // Rows: x0^x1 = b0, x0^x1 = b1. Consistent iff b0 == b1.
    BitMatrix a(2, 2);
    a.set(0, 0, true);
    a.set(0, 1, true);
    a.set(1, 0, true);
    a.set(1, 1, true);
    BitVector consistent(2);
    consistent.set(0, true);
    consistent.set(1, true);
    EXPECT_TRUE(solve(a, consistent).has_value());
    BitVector inconsistent(2);
    inconsistent.set(0, true);
    EXPECT_FALSE(solve(a, inconsistent).has_value());
}

TEST(ConstraintSystem, PinVariables)
{
    ConstraintSystem cs(8);
    cs.pinVariable(2, true);
    cs.pinVariable(5, false);
    const auto x = cs.solveAny();
    ASSERT_TRUE(x.has_value());
    EXPECT_TRUE(x->get(2));
    EXPECT_FALSE(x->get(5));
}

TEST(ConstraintSystem, ConflictingPinsInconsistent)
{
    ConstraintSystem cs(4);
    cs.pinVariable(1, true);
    cs.pinVariable(1, false);
    EXPECT_FALSE(cs.consistent());
    EXPECT_FALSE(cs.solveAny().has_value());
}

TEST(ConstraintSystem, ParityConstraint)
{
    ConstraintSystem cs(6);
    // x0 ^ x1 ^ x2 = 1 with x0 = 1, x1 = 1 forces x2 = 1.
    BitVector row(6);
    row.set(0, true);
    row.set(1, true);
    row.set(2, true);
    cs.addConstraint(row, true);
    cs.pinVariable(0, true);
    cs.pinVariable(1, true);
    const auto x = cs.solveAny();
    ASSERT_TRUE(x.has_value());
    EXPECT_TRUE(x->get(2));
}

TEST(ConstraintSystem, EmptySystemAlwaysConsistent)
{
    ConstraintSystem cs(10);
    EXPECT_TRUE(cs.consistent());
    const auto x = cs.solveAny();
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ(x->size(), 10u);
}

/** Reference answer: a fresh elimination of the included rows. */
bool
referenceConsistent(const std::vector<BitVector> &rows, std::size_t cols,
                    std::uint64_t included, std::uint64_t rhs)
{
    ConstraintSystem cs(cols);
    for (std::size_t i = 0; i < rows.size(); ++i)
        if ((included >> i) & 1)
            cs.addConstraint(rows[i], (rhs >> i) & 1);
    return cs.consistent();
}

TEST(RowDependencies, EmptyRowSetAlwaysConsistent)
{
    const RowDependencies deps({});
    EXPECT_TRUE(deps.dependencies().empty());
    EXPECT_TRUE(deps.consistent(0, 0));
    EXPECT_TRUE(deps.consistent(~std::uint64_t{0}, ~std::uint64_t{0}));
}

TEST(RowDependencies, ZeroRowDemandsZeroRhs)
{
    // 0 · x = b is satisfiable iff b = 0.
    const RowDependencies deps({BitVector(8), BitVector::fromUint(0b1, 8)});
    ASSERT_EQ(deps.dependencies(), std::vector<std::uint64_t>{0b01});
    EXPECT_TRUE(deps.consistent(0b11, 0b10));
    EXPECT_FALSE(deps.consistent(0b11, 0b01));
    EXPECT_TRUE(deps.consistent(0b10, 0b01)); // zero row not included
}

TEST(RowDependencies, DuplicateRowsMustAgree)
{
    const BitVector row = BitVector::fromUint(0b1011, 6);
    const RowDependencies deps({row, BitVector::fromUint(0b100, 6), row});
    ASSERT_EQ(deps.dependencies(), std::vector<std::uint64_t>{0b101});
    EXPECT_TRUE(deps.consistent(0b111, 0b101));
    EXPECT_TRUE(deps.consistent(0b111, 0b010));
    EXPECT_FALSE(deps.consistent(0b111, 0b001));
    EXPECT_FALSE(deps.consistent(0b101, 0b100));
    EXPECT_TRUE(deps.consistent(0b011, 0b001)); // one copy only
}

TEST(RowDependencies, SpanCoversCombinedDependencies)
{
    // r0 ^ r1 ^ r2 = 0 and r3 = r0: the dependency {1, 2, 3} exists only
    // as the sum of the two basis dependencies, and must still be found.
    const BitVector a = BitVector::fromUint(0b011, 3);
    const BitVector b = BitVector::fromUint(0b110, 3);
    const RowDependencies deps({a, b, a ^ b, a});
    EXPECT_EQ(deps.dependencies().size(), 3u);
    EXPECT_FALSE(deps.consistent(0b1110, 0b0010));
    EXPECT_TRUE(deps.consistent(0b1110, 0b0110));
}

TEST(RowDependencies, AgreesWithConstraintSystemOnRandomRowSets)
{
    // Few columns relative to rows makes dependencies common; duplicate
    // and all-zero rows are mixed in on purpose.
    std::size_t inconsistent = 0;
    test::forEachSeed(200, [&](std::uint64_t, common::Xoshiro256 &rng) {
        const std::size_t cols = 1 + rng.nextBelow(10);
        const std::size_t m = rng.nextBelow(9);
        std::vector<BitVector> rows;
        for (std::size_t i = 0; i < m; ++i) {
            const std::uint64_t kind = rng.nextBelow(6);
            if (kind == 0)
                rows.emplace_back(cols);
            else if (kind == 1 && !rows.empty())
                rows.push_back(rows[rng.nextBelow(rows.size())]);
            else
                rows.push_back(BitVector::random(cols, rng));
        }
        const RowDependencies deps(rows);
        for (const std::uint64_t dep : deps.dependencies()) {
            BitVector sum(cols);
            for (std::size_t i = 0; i < m; ++i)
                if ((dep >> i) & 1)
                    sum ^= rows[i];
            EXPECT_TRUE(sum.isZero());
        }
        for (std::uint64_t included = 0; included < (1u << m); ++included) {
            for (std::uint64_t rhs = 0; rhs < (1u << m); ++rhs) {
                if ((rhs & ~included) != 0)
                    continue;
                const bool want =
                    referenceConsistent(rows, cols, included, rhs);
                inconsistent += !want;
                ASSERT_EQ(deps.consistent(included, rhs), want)
                    << "included " << included << " rhs " << rhs;
            }
        }
    });
    EXPECT_GT(inconsistent, 1000u);
}

TEST(RowDependencies, RejectsMoreThan64Rows)
{
    EXPECT_THROW(RowDependencies(std::vector<BitVector>(65, BitVector(4))),
                 std::invalid_argument);
}

} // namespace
} // namespace harp::gf2
