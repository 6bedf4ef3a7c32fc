/**
 * @file
 * Basic SAT types: variables, literals, clauses.
 *
 * Variables are 0-based integers. A literal packs a variable and a sign
 * into one int: lit = 2·var for the positive phase, 2·var+1 for negative.
 */

#ifndef HARP_SAT_TYPES_HH
#define HARP_SAT_TYPES_HH

#include <cstdint>
#include <vector>

namespace harp::sat {

/** Variable index (0-based). */
using Var = std::int32_t;

/**
 * Packed literal: (var << 1) | sign, where sign 1 means negated.
 */
struct Lit
{
    std::int32_t code = -2;

    Lit() = default;

    /** Build from variable and phase. @p positive true means "var is true". */
    static Lit make(Var v, bool positive)
    {
        Lit l;
        l.code = (v << 1) | (positive ? 0 : 1);
        return l;
    }

    Var var() const { return code >> 1; }
    bool positive() const { return (code & 1) == 0; }

    /** Negation. */
    Lit operator~() const
    {
        Lit l;
        l.code = code ^ 1;
        return l;
    }

    bool operator==(const Lit &o) const { return code == o.code; }
    bool operator<(const Lit &o) const { return code < o.code; }

    /** Index usable for watch lists (0..2·numVars-1). */
    std::size_t index() const { return static_cast<std::size_t>(code); }
};

/** An undefined literal sentinel. */
inline const Lit litUndef{};

/** Clause: a disjunction of literals. */
using Clause = std::vector<Lit>;

/** Tri-state assignment value. */
enum class LBool : std::int8_t { False = 0, True = 1, Undef = 2 };

/** Solver verdict. */
enum class SolveResult { Sat, Unsat, Unknown };

} // namespace harp::sat

#endif // HARP_SAT_TYPES_HH
