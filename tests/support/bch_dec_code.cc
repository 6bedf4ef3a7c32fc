#include "support/bch_dec_code.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "ecc/gf2_poly.hh"

namespace harp::ecc {

namespace {

/** Smallest field degree m with 2^m - 1 - 2m >= k (room for the data). */
unsigned
fieldDegreeFor(std::size_t k)
{
    for (unsigned m = 4; m <= 16; ++m) {
        const std::size_t n_full = (std::size_t{1} << m) - 1;
        if (n_full >= k + 2 * m)
            return m;
    }
    throw std::invalid_argument("BchDecCode: k too large");
}

} // namespace

BchDecCode::BchDecCode(std::size_t k)
    : k_(k), field_(fieldDegreeFor(k))
{
    // Generator g(x) = m1(x) * m3(x); for DEC BCH these are the minimal
    // polynomials of alpha and alpha^3 (distinct irreducibles for m>=3).
    const std::uint64_t m1 = minimalPolynomial(field_, 1);
    const std::uint64_t m3 = minimalPolynomial(field_, 3);
    assert(m1 != m3);
    generator_ = polyMultiply(m1, m3);
    parityBits_ = static_cast<std::size_t>(polyDegree(generator_));
    if (k_ + parityBits_ > field_.order())
        throw std::invalid_argument("BchDecCode: shortened length exceeds "
                                    "the mother code");

    // Parity mask of data bit i: x^(p+i) mod g(x), computed
    // incrementally (multiply by x, reduce).
    parityMasks_.assign(k_, 0);
    std::uint64_t rem = 1; // x^0
    for (std::size_t c = 1; c <= parityBits_ + k_ - 1; ++c) {
        rem <<= 1;
        if ((rem >> parityBits_) & 1)
            rem ^= generator_;
        if (c >= parityBits_)
            parityMasks_[c - parityBits_] =
                static_cast<std::uint32_t>(rem);
    }

    parityRows_.assign(parityBits_, gf2::BitVector(k_));
    for (std::size_t i = 0; i < k_; ++i)
        for (std::size_t j = 0; j < parityBits_; ++j)
            if ((parityMasks_[i] >> j) & 1)
                parityRows_[j].set(i, true);

    alphaPow_.assign(n(), 0);
    alpha3Pow_.assign(n(), 0);
    for (std::size_t pos = 0; pos < n(); ++pos) {
        const std::size_t c = coefficientOf(pos);
        alphaPow_[pos] = field_.alphaPow(c);
        alpha3Pow_[pos] = field_.alphaPow(3 * static_cast<std::uint64_t>(c));
    }
}

std::size_t
BchDecCode::coefficientOf(std::size_t pos) const
{
    assert(pos < n());
    return pos < k_ ? parityBits_ + pos : pos - k_;
}

std::optional<std::size_t>
BchDecCode::positionOf(std::size_t coeff) const
{
    if (coeff >= n())
        return std::nullopt; // beyond the shortened length
    if (coeff < parityBits_)
        return k_ + coeff;
    return coeff - parityBits_;
}

gf2::BitVector
BchDecCode::encode(const gf2::BitVector &dataword) const
{
    assert(dataword.size() == k_);
    gf2::BitVector codeword(n());
    std::uint32_t parity = 0;
    dataword.forEachSetBit([&](std::size_t i) {
        codeword.set(i, true);
        parity ^= parityMasks_[i];
    });
    for (std::size_t j = 0; j < parityBits_; ++j)
        if ((parity >> j) & 1)
            codeword.set(k_ + j, true);
    return codeword;
}

void
BchDecCode::syndromesOf(const std::vector<std::size_t> &coeffs,
                        Gf2m::Element &s1, Gf2m::Element &s3) const
{
    s1 = 0;
    s3 = 0;
    for (const std::size_t c : coeffs) {
        s1 ^= field_.alphaPow(c);
        s3 ^= field_.alphaPow(3 * static_cast<std::uint64_t>(c));
    }
}

std::optional<std::vector<std::size_t>>
BchDecCode::locateErrors(Gf2m::Element s1, Gf2m::Element s3) const
{
    if (s1 == 0 && s3 == 0)
        return std::vector<std::size_t>{};
    if (s1 == 0)
        return std::nullopt; // >= 3 errors (no single/double solution)

    const Gf2m::Element s1_cubed =
        field_.multiply(field_.multiply(s1, s1), s1);
    if (s3 == s1_cubed) {
        // Single error at coefficient log(S1).
        const std::size_t c = field_.log(s1);
        if (c >= n())
            return std::nullopt; // outside the shortened code
        return std::vector<std::size_t>{c};
    }

    // Double error: locators X1, X2 are the roots of
    //   X^2 + S1 X + (S3 + S1^3)/S1 = 0.
    // Substituting X = S1 z gives z^2 + z = (S3 + S1^3) / S1^3.
    const Gf2m::Element rhs =
        field_.divide(static_cast<Gf2m::Element>(s3 ^ s1_cubed),
                      s1_cubed);
    const Gf2m::Element z = field_.solveQuadratic(rhs);
    if (z == 0xFFFFFFFF)
        return std::nullopt; // no roots: >= 3 errors detected
    const Gf2m::Element x1 = field_.multiply(s1, z);
    const Gf2m::Element x2 = static_cast<Gf2m::Element>(x1 ^ s1);
    if (x1 == 0 || x2 == 0 || x1 == x2)
        return std::nullopt;
    const std::size_t c1 = field_.log(x1);
    const std::size_t c2 = field_.log(x2);
    if (c1 >= n() || c2 >= n())
        return std::nullopt; // locator outside the shortened code
    return std::vector<std::size_t>{c1, c2};
}

BchDecodeResult
BchDecCode::decode(const gf2::BitVector &codeword) const
{
    assert(codeword.size() == n());
    BchDecodeResult result;

    Gf2m::Element s1 = 0, s3 = 0;
    codeword.forEachSetBit([&](std::size_t pos) {
        s1 ^= alphaPow_[pos];
        s3 ^= alpha3Pow_[pos];
    });

    gf2::BitVector corrected = codeword;
    const auto located = locateErrors(s1, s3);
    if (!located) {
        result.detectedUncorrectable = true;
    } else {
        for (const std::size_t c : *located) {
            const auto pos = positionOf(c);
            assert(pos.has_value());
            corrected.flip(*pos);
            result.correctedPositions.push_back(*pos);
        }
        std::sort(result.correctedPositions.begin(),
                  result.correctedPositions.end());
    }
    result.dataword = corrected.slice(0, k_);
    return result;
}

std::vector<std::size_t>
BchDecCode::decodeErrorPattern(
    const std::vector<std::size_t> &error_positions) const
{
    // Linear code: the decode outcome of (codeword ^ e) relative to the
    // codeword equals the outcome of e against the zero codeword.
    gf2::BitVector error_vector(n());
    for (const std::size_t pos : error_positions)
        error_vector.set(pos, true);
    const BchDecodeResult decoded = decode(error_vector);
    return decoded.dataword.setBits();
}

} // namespace harp::ecc
