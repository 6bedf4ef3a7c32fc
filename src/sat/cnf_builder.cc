#include "sat/cnf_builder.hh"

#include <cassert>

namespace harp::sat {

namespace {

/** Largest XOR expanded directly to CNF (2^(k-1) clauses ≤ 16). */
constexpr std::size_t xorChunk = 5;

} // namespace

std::vector<Var>
CnfBuilder::newVars(std::size_t n)
{
    std::vector<Var> vars;
    vars.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        vars.push_back(solver_.newVar());
    return vars;
}

bool
CnfBuilder::addXorDirect(const std::vector<Lit> &lits, bool rhs)
{
    assert(!lits.empty() && lits.size() <= xorChunk + 1);
    // Forbid every assignment whose parity differs from rhs: for each
    // sign vector with even numbers of negations relative to the target,
    // emit the blocking clause.
    const std::size_t n = lits.size();
    bool ok = true;
    for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
        // The assignment encoded by `mask` sets lits[i] true iff bit i set.
        int parity = 0;
        for (std::size_t i = 0; i < n; ++i)
            parity ^= static_cast<int>((mask >> i) & 1);
        if (parity == static_cast<int>(rhs))
            continue; // satisfying assignment, keep it
        Clause blocking;
        blocking.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const bool assigned_true = ((mask >> i) & 1) != 0;
            blocking.push_back(assigned_true ? ~lits[i] : lits[i]);
        }
        ok = solver_.addClause(std::move(blocking)) && ok;
    }
    return ok;
}

bool
CnfBuilder::addXor(const std::vector<Lit> &lits, bool rhs)
{
    if (lits.empty()) {
        // Empty XOR sums to 0; rhs == 1 is a contradiction.
        if (rhs)
            return solver_.addClause(Clause{});
        return true;
    }
    if (lits.size() <= xorChunk)
        return addXorDirect(lits, rhs);

    // Chunk: t = XOR(first chunk), then recurse on {t, rest...}.
    std::vector<Lit> chunk(lits.begin(),
                           lits.begin() + static_cast<long>(xorChunk - 1));
    const Var t = solver_.newVar();
    chunk.push_back(Lit::make(t, true));
    // chunkXor ⊕ t = 0  ⇔  t = XOR(chunk)
    if (!addXorDirect(chunk, false))
        return false;
    std::vector<Lit> rest;
    rest.push_back(Lit::make(t, true));
    rest.insert(rest.end(),
                lits.begin() + static_cast<long>(xorChunk - 1), lits.end());
    return addXor(rest, rhs);
}

} // namespace harp::sat
