/**
 * @file
 * Binary extension field GF(2^m) arithmetic, 2 <= m <= 16.
 *
 * Substrate for the double-error-correcting BCH on-die ECC extension
 * (HARP section 2.5.1 footnote 9 / section 6.3.2 discuss stronger on-die
 * codes as future work). Elements are represented as m-bit polynomial
 * coefficients over a fixed primitive polynomial; multiplication and
 * inversion go through log/antilog tables built at construction.
 */

#ifndef HARP_ECC_GF2M_HH
#define HARP_ECC_GF2M_HH

#include <cassert>
#include <cstdint>
#include <vector>

namespace harp::ecc {

/**
 * The finite field GF(2^m) with generator alpha (a primitive element).
 *
 * Addition is XOR; multiplication/division use discrete-log
 * tables. The antilog table is doubled (2 * order entries), so a sum
 * of two logs indexes it without a reduction. The zero element has no
 * logarithm; operations handle it explicitly.
 */
class Gf2m
{
  public:
    using Element = std::uint32_t;

    /** Construct GF(2^m) over a built-in primitive polynomial. */
    explicit Gf2m(unsigned m);

    unsigned m() const { return m_; }
    /** Field size 2^m. */
    std::uint32_t size() const { return std::uint32_t{1} << m_; }
    /** Multiplicative order 2^m - 1. */
    std::uint32_t order() const { return size() - 1; }

    /** alpha^e (e taken mod the multiplicative order; e may exceed it). */
    Element alphaPow(std::uint64_t e) const;

    /** alpha^e for e < 2 * order(): a bare doubled-table lookup. */
    Element antilog(std::uint32_t e) const
    {
        assert(e < 2 * order());
        return antilog_[e];
    }

    /** Discrete log base alpha of nonzero @p x. */
    std::uint32_t log(Element x) const
    {
        assert(x != 0 && x < size());
        return logTable_[x];
    }

    Element multiply(Element a, Element b) const
    {
        if (a == 0 || b == 0)
            return 0;
        return antilog_[log(a) + log(b)];
    }
    /** a / b with nonzero @p b. */
    Element divide(Element a, Element b) const;

    /** Trace map Tr(x) = x + x^2 + x^4 + ... + x^(2^(m-1)), in {0,1}. */
    Element trace(Element x) const;

    /**
     * Solve z^2 + z = c over the field (the half-trace method; used by
     * the closed-form double-error BCH decoder). A solution exists iff
     * Tr(c) == 0; the other solution is z + 1.
     *
     * @return One solution, or 0xFFFFFFFF when none exists.
     */
    Element solveQuadratic(Element c) const;

    /** The primitive polynomial used for this m (bit i = coeff of x^i). */
    std::uint32_t primitivePolynomial() const { return poly_; }

  private:
    unsigned m_;
    std::uint32_t poly_;
    /** antilog_[i] = alpha^(i mod order) for i < 2 * order. */
    std::vector<Element> antilog_;
    std::vector<std::uint32_t> logTable_;
};

} // namespace harp::ecc

#endif // HARP_ECC_GF2M_HH
