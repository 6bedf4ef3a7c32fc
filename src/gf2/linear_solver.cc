#include "gf2/linear_solver.hh"

#include <cassert>
#include <stdexcept>

namespace harp::gf2 {

std::optional<LinearSolution>
solve(const BitMatrix &a, const BitVector &b)
{
    assert(a.rows() == b.size());
    const std::size_t rows = a.rows();
    const std::size_t cols = a.cols();

    // Augmented matrix [A | b], eliminated in place.
    BitMatrix aug(rows, cols + 1);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c)
            aug.set(r, c, a.get(r, c));
        aug.set(r, cols, b.get(r));
    }

    std::vector<std::size_t> pivots;
    std::size_t next_row = 0;
    for (std::size_t col = 0; col < cols && next_row < rows; ++col) {
        std::size_t pivot = next_row;
        while (pivot < rows && !aug.get(pivot, col))
            ++pivot;
        if (pivot == rows)
            continue;
        std::swap(aug.row(next_row), aug.row(pivot));
        for (std::size_t r = 0; r < rows; ++r) {
            if (r != next_row && aug.get(r, col))
                aug.row(r) ^= aug.row(next_row);
        }
        pivots.push_back(col);
        ++next_row;
    }

    // Inconsistent iff a zero row has rhs 1.
    for (std::size_t r = next_row; r < rows; ++r)
        if (aug.get(r, cols))
            return std::nullopt;

    LinearSolution sol;
    sol.particular = BitVector(cols);
    for (std::size_t i = 0; i < pivots.size(); ++i)
        sol.particular.set(pivots[i], aug.get(i, cols));

    // One nullspace basis vector per free column: set the free variable to
    // 1 and read each pivot variable off its reduced row.
    std::vector<bool> is_pivot(cols, false);
    for (std::size_t col : pivots)
        is_pivot[col] = true;
    for (std::size_t col = 0; col < cols; ++col) {
        if (is_pivot[col])
            continue;
        BitVector basis(cols);
        basis.set(col, true);
        for (std::size_t i = 0; i < pivots.size(); ++i)
            if (aug.get(i, col))
                basis.set(pivots[i], true);
        sol.nullspace.push_back(std::move(basis));
    }
    return sol;
}

ConstraintSystem::ConstraintSystem(std::size_t num_vars)
    : numVars_(num_vars)
{
}

void
ConstraintSystem::addConstraint(const BitVector &row, bool rhs)
{
    assert(row.size() == numVars_);
    rows_.push_back(row);
    rhs_.push_back(rhs);
}

void
ConstraintSystem::pinVariable(std::size_t var, bool value)
{
    BitVector row(numVars_);
    row.set(var, true);
    addConstraint(row, value);
}

bool
ConstraintSystem::consistent() const
{
    return solveAny().has_value();
}

std::optional<BitVector>
ConstraintSystem::solveAny() const
{
    BitMatrix a(rows_.size(), numVars_);
    BitVector b(rows_.size());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        a.row(r) = rows_[r];
        b.set(r, rhs_[r]);
    }
    auto sol = solve(a, b);
    if (!sol)
        return std::nullopt;
    return sol->particular;
}

RowDependencies::RowDependencies(const std::vector<BitVector> &rows)
{
    if (rows.size() > 64)
        throw std::invalid_argument("RowDependencies: more than 64 rows");

    // Incremental elimination: each row is reduced by the independent
    // rows kept so far (each zero at every later pivot), and `combo`
    // records which original rows the reduced row sums.
    struct Reduced
    {
        BitVector row;
        std::uint64_t combo;
        std::size_t pivot;
    };
    std::vector<Reduced> basis;
    std::vector<std::uint64_t> dep_basis;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        BitVector v = rows[i];
        std::uint64_t combo = std::uint64_t{1} << i;
        for (const Reduced &b : basis) {
            if (v.get(b.pivot)) {
                v ^= b.row;
                combo ^= b.combo;
            }
        }
        if (v.isZero()) {
            dep_basis.push_back(combo);
            continue;
        }
        const std::size_t pivot = v.setBits().front();
        basis.push_back({std::move(v), combo, pivot});
    }

    // Span of the dependency basis, zero excluded.
    for (const std::uint64_t dep : dep_basis) {
        const std::size_t size = deps_.size();
        deps_.push_back(dep);
        for (std::size_t j = 0; j < size; ++j)
            deps_.push_back(deps_[j] ^ dep);
    }
}

} // namespace harp::gf2
