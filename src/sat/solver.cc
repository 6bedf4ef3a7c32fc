#include "sat/solver.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace harp::sat {

Solver::Solver() = default;

Var
Solver::newVar()
{
    const Var v = static_cast<Var>(numVars_++);
    watches_.emplace_back();
    watches_.emplace_back();
    assigns_.push_back(LBool::Undef);
    savedPhase_.push_back(false);
    levels_.push_back(0);
    reasons_.push_back(invalidClause);
    varActivity_.push_back(0.0);
    seen_.push_back(false);
    return v;
}

LBool
Solver::value(Lit l) const
{
    const LBool v = assigns_[static_cast<std::size_t>(l.var())];
    if (v == LBool::Undef)
        return LBool::Undef;
    const bool truth = (v == LBool::True);
    return (truth == l.positive()) ? LBool::True : LBool::False;
}

bool
Solver::addClause(Clause clause)
{
    if (!okay_)
        return false;
    assert(trailLimits_.empty() && "clauses must be added at level 0");

    // Normalize: sort, dedupe, drop tautologies and level-0-false literals.
    std::sort(clause.begin(), clause.end());
    clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
    Clause kept;
    for (std::size_t i = 0; i < clause.size(); ++i) {
        const Lit l = clause[i];
        if (i + 1 < clause.size() && clause[i + 1] == ~l)
            return true; // tautology: x ∨ ¬x
        if (value(l) == LBool::True)
            return true; // already satisfied at level 0
        if (value(l) != LBool::False)
            kept.push_back(l);
    }

    if (kept.empty()) {
        okay_ = false;
        return false;
    }
    if (kept.size() == 1) {
        enqueue(kept[0], invalidClause);
        okay_ = (propagate() == invalidClause);
        return okay_;
    }

    const auto ci = static_cast<std::uint32_t>(clauses_.size());
    clauses_.push_back({std::move(kept), 0.0, false, false});
    attachClause(ci);
    ++numProblemClauses_;
    return true;
}

void
Solver::attachClause(std::uint32_t ci)
{
    const auto &lits = clauses_[ci].lits;
    assert(lits.size() >= 2);
    watches_[(~lits[0]).index()].push_back({ci, lits[1]});
    watches_[(~lits[1]).index()].push_back({ci, lits[0]});
}

void
Solver::enqueue(Lit l, std::uint32_t reason)
{
    assert(value(l) == LBool::Undef);
    const auto v = static_cast<std::size_t>(l.var());
    assigns_[v] = l.positive() ? LBool::True : LBool::False;
    savedPhase_[v] = l.positive();
    levels_[v] = currentLevel();
    reasons_[v] = reason;
    trail_.push_back(l);
}

std::uint32_t
Solver::propagate()
{
    while (propagateHead_ < trail_.size()) {
        const Lit p = trail_[propagateHead_++];
        ++stats_.propagations;
        auto &watch_list = watches_[p.index()];
        std::size_t keep = 0;
        for (std::size_t i = 0; i < watch_list.size(); ++i) {
            const Watcher w = watch_list[i];
            // Cheap out: the blocker literal is already true.
            if (value(w.blocker) == LBool::True) {
                watch_list[keep++] = w;
                continue;
            }
            auto &lits = clauses_[w.clause].lits;
            // Ensure the falsified literal ~p sits in slot 1.
            const Lit false_lit = ~p;
            if (lits[0] == false_lit)
                std::swap(lits[0], lits[1]);
            assert(lits[1] == false_lit);

            if (value(lits[0]) == LBool::True) {
                watch_list[keep++] = {w.clause, lits[0]};
                continue;
            }

            // Look for a new literal to watch.
            bool moved = false;
            for (std::size_t k = 2; k < lits.size(); ++k) {
                if (value(lits[k]) != LBool::False) {
                    std::swap(lits[1], lits[k]);
                    watches_[(~lits[1]).index()].push_back(
                        {w.clause, lits[0]});
                    moved = true;
                    break;
                }
            }
            if (moved)
                continue;

            // Clause is unit or conflicting.
            watch_list[keep++] = {w.clause, lits[0]};
            if (value(lits[0]) == LBool::False) {
                // Conflict: compact the remaining watchers and report.
                for (std::size_t j = i + 1; j < watch_list.size(); ++j)
                    watch_list[keep++] = watch_list[j];
                watch_list.resize(keep);
                propagateHead_ = trail_.size();
                return w.clause;
            }
            enqueue(lits[0], w.clause);
        }
        watch_list.resize(keep);
    }
    return invalidClause;
}

void
Solver::analyze(std::uint32_t confl, Clause &out_learnt, int &out_btlevel)
{
    // Standard 1-UIP conflict analysis.
    out_learnt.clear();
    out_learnt.push_back(litUndef); // slot for the asserting literal
    int counter = 0;
    Lit p = litUndef;
    std::size_t trail_index = trail_.size();

    for (;;) {
        assert(confl != invalidClause);
        bumpClauseActivity(confl);
        const auto &lits = clauses_[confl].lits;
        const std::size_t start = (p == litUndef) ? 0 : 1;
        for (std::size_t i = start; i < lits.size(); ++i) {
            const Lit q = lits[i];
            const auto v = static_cast<std::size_t>(q.var());
            if (seen_[v] || levels_[v] == 0)
                continue;
            seen_[v] = true;
            bumpVarActivity(q.var());
            if (levels_[v] == currentLevel())
                ++counter;
            else
                out_learnt.push_back(q);
        }
        // Select the next trail literal seen in the conflict graph.
        do {
            --trail_index;
            p = trail_[trail_index];
        } while (!seen_[static_cast<std::size_t>(p.var())]);
        seen_[static_cast<std::size_t>(p.var())] = false;
        --counter;
        if (counter == 0)
            break;
        confl = reasons_[static_cast<std::size_t>(p.var())];
    }
    out_learnt[0] = ~p;

    // Remember every variable still marked seen (the lower-level literals
    // now in out_learnt) so the flags can be cleared before returning;
    // stale seen flags would corrupt the next conflict analysis.
    const Clause to_clear = out_learnt;

    // Clause minimization: drop literals implied by the rest of the clause
    // through their reason clauses (local / non-recursive check).
    std::vector<bool> in_clause(numVars_, false);
    for (const Lit l : out_learnt)
        in_clause[static_cast<std::size_t>(l.var())] = true;
    auto redundant = [&](Lit l) {
        const auto reason = reasons_[static_cast<std::size_t>(l.var())];
        if (reason == invalidClause)
            return false;
        for (const Lit q : clauses_[reason].lits) {
            const auto v = static_cast<std::size_t>(q.var());
            if (q.var() == l.var() || levels_[v] == 0)
                continue;
            if (!in_clause[v])
                return false;
        }
        return true;
    };
    std::size_t keep = 1;
    for (std::size_t i = 1; i < out_learnt.size(); ++i) {
        if (!redundant(out_learnt[i]))
            out_learnt[keep++] = out_learnt[i];
        else
            in_clause[static_cast<std::size_t>(out_learnt[i].var())] = false;
    }
    out_learnt.resize(keep);

    for (const Lit l : to_clear)
        seen_[static_cast<std::size_t>(l.var())] = false;

    // Compute the backtrack level: max level among non-asserting literals.
    out_btlevel = 0;
    if (out_learnt.size() > 1) {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < out_learnt.size(); ++i) {
            const auto vi =
                static_cast<std::size_t>(out_learnt[i].var());
            const auto vm =
                static_cast<std::size_t>(out_learnt[max_i].var());
            if (levels_[vi] > levels_[vm])
                max_i = i;
        }
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = levels_[static_cast<std::size_t>(out_learnt[1].var())];
    }
}

void
Solver::backtrack(int level)
{
    if (currentLevel() <= level)
        return;
    const std::size_t bound = trailLimits_[static_cast<std::size_t>(level)];
    for (std::size_t i = trail_.size(); i > bound; --i) {
        const auto v = static_cast<std::size_t>(trail_[i - 1].var());
        assigns_[v] = LBool::Undef;
        reasons_[v] = invalidClause;
    }
    trail_.resize(bound);
    trailLimits_.resize(static_cast<std::size_t>(level));
    propagateHead_ = trail_.size();
}

void
Solver::bumpVarActivity(Var v)
{
    auto &a = varActivity_[static_cast<std::size_t>(v)];
    a += varActivityInc_;
    if (a > 1e100) {
        for (auto &act : varActivity_)
            act *= 1e-100;
        varActivityInc_ *= 1e-100;
    }
}

void
Solver::decayVarActivity()
{
    varActivityInc_ /= 0.95;
}

void
Solver::bumpClauseActivity(std::uint32_t ci)
{
    auto &a = clauses_[ci].activity;
    a += clauseActivityInc_;
    if (a > 1e100) {
        for (auto &c : clauses_)
            c.activity *= 1e-100;
        clauseActivityInc_ *= 1e-100;
    }
}

void
Solver::reduceDb()
{
    // Delete the less-active half of the learnt clauses. Clauses that are
    // currently a reason for an assignment must be kept.
    std::vector<std::uint32_t> learnts;
    for (std::uint32_t ci = 0; ci < clauses_.size(); ++ci)
        if (clauses_[ci].learnt && !clauses_[ci].deleted)
            learnts.push_back(ci);
    if (learnts.size() < 64)
        return;
    std::sort(learnts.begin(), learnts.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return clauses_[a].activity < clauses_[b].activity;
              });
    std::vector<bool> is_reason(clauses_.size(), false);
    for (const Lit l : trail_) {
        const auto reason = reasons_[static_cast<std::size_t>(l.var())];
        if (reason != invalidClause)
            is_reason[reason] = true;
    }
    const std::size_t to_delete = learnts.size() / 2;
    std::size_t deleted = 0;
    for (std::uint32_t ci : learnts) {
        if (deleted >= to_delete)
            break;
        if (is_reason[ci] || clauses_[ci].lits.size() <= 2)
            continue;
        clauses_[ci].deleted = true;
        ++deleted;
    }
    // Rebuild all watch lists without the deleted clauses.
    for (auto &wl : watches_)
        wl.clear();
    for (std::uint32_t ci = 0; ci < clauses_.size(); ++ci)
        if (!clauses_[ci].deleted)
            attachClause(ci);
}

Lit
Solver::pickBranchLit()
{
    Var best = -1;
    double best_activity = -1.0;
    for (std::size_t v = 0; v < numVars_; ++v) {
        if (assigns_[v] != LBool::Undef)
            continue;
        if (varActivity_[v] > best_activity) {
            best_activity = varActivity_[v];
            best = static_cast<Var>(v);
        }
    }
    if (best < 0)
        return litUndef;
    return Lit::make(best, savedPhase_[static_cast<std::size_t>(best)]);
}

SolveResult
Solver::solve(std::uint64_t conflict_budget)
{
    return solve({}, conflict_budget);
}

SolveResult
Solver::solve(const std::vector<Lit> &assumptions,
              std::uint64_t conflict_budget)
{
    if (!okay_)
        return SolveResult::Unsat;
    backtrack(0);
    if (propagate() != invalidClause) {
        okay_ = false;
        return SolveResult::Unsat;
    }

    std::uint64_t conflicts_this_call = 0;
    std::uint64_t restart_limit = 128;
    std::uint64_t conflicts_since_restart = 0;
    std::uint64_t learnt_limit =
        std::max<std::uint64_t>(256, numProblemClauses_ * 2);

    for (;;) {
        const std::uint32_t confl = propagate();
        if (confl != invalidClause) {
            ++stats_.conflicts;
            ++conflicts_this_call;
            ++conflicts_since_restart;
            if (currentLevel() == 0)
                return SolveResult::Unsat;
            Clause learnt;
            int bt_level = 0;
            analyze(confl, learnt, bt_level);
            backtrack(bt_level);
            if (learnt.size() == 1) {
                enqueue(learnt[0], invalidClause);
            } else {
                const auto ci =
                    static_cast<std::uint32_t>(clauses_.size());
                clauses_.push_back({std::move(learnt),
                                    clauseActivityInc_, true, false});
                attachClause(ci);
                enqueue(clauses_[ci].lits[0], ci);
            }
            decayVarActivity();
            clauseActivityInc_ /= 0.999;
            if (conflict_budget != 0 &&
                conflicts_this_call >= conflict_budget) {
                backtrack(0);
                return SolveResult::Unknown;
            }
            if (conflicts_since_restart >= restart_limit) {
                conflicts_since_restart = 0;
                restart_limit += restart_limit / 2;
                ++stats_.restarts;
                backtrack(0);
            }
            continue;
        }

        // Re-assert assumptions that are not yet on the trail.
        bool assumption_pending = false;
        for (const Lit a : assumptions) {
            if (value(a) == LBool::True)
                continue;
            if (value(a) == LBool::False)
                return SolveResult::Unsat;
            trailLimits_.push_back(trail_.size());
            enqueue(a, invalidClause);
            assumption_pending = true;
            break;
        }
        if (assumption_pending)
            continue;

        std::uint64_t live_learnts = 0;
        for (const auto &c : clauses_)
            live_learnts += (c.learnt && !c.deleted) ? 1 : 0;
        if (live_learnts > learnt_limit) {
            reduceDb();
            learnt_limit += learnt_limit / 4;
        }

        const Lit next = pickBranchLit();
        if (next == litUndef)
            return SolveResult::Sat; // full assignment, no conflict
        ++stats_.decisions;
        trailLimits_.push_back(trail_.size());
        enqueue(next, invalidClause);
    }
}

bool
Solver::modelValue(Var v) const
{
    return assigns_[static_cast<std::size_t>(v)] == LBool::True;
}

} // namespace harp::sat
