#include "ecc/bch_general.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "ecc/gf2_poly.hh"

namespace harp::ecc {

namespace {

/**
 * Generator polynomial for a t-error-correcting BCH code over the given
 * field: lcm of the minimal polynomials of alpha^1, alpha^3, ...,
 * alpha^(2t-1) (even powers share the odd powers' conjugacy classes).
 */
std::uint64_t
generatorFor(const Gf2m &field, std::size_t t)
{
    std::uint64_t g = 1;
    std::vector<std::uint64_t> factors;
    for (std::size_t j = 1; j <= 2 * t - 1; j += 2) {
        const std::uint64_t mp = minimalPolynomial(field, j);
        // lcm over distinct irreducible factors = product of the
        // distinct ones.
        if (std::find(factors.begin(), factors.end(), mp) ==
            factors.end()) {
            factors.push_back(mp);
            g = polyMultiply(g, mp);
        }
    }
    return g;
}

/** Smallest field degree whose shortened BCH code fits k data bits.
 *  Validates t here because this runs during member initialization,
 *  before the constructor body: an unchecked t = 0 would underflow the
 *  generator's 2t-1 loop bound. */
unsigned
fieldDegreeFor(std::size_t k, std::size_t t)
{
    if (t < 1 || t > 8)
        throw std::invalid_argument("BchCode: t must be in [1, 8]");
    for (unsigned m = 4; m <= 14; ++m) {
        const Gf2m field(m);
        const std::uint64_t g = generatorFor(field, t);
        const auto parity = static_cast<std::size_t>(polyDegree(g));
        if (parity >= 64)
            continue; // bitmask representation limit
        if (field.order() >= k + parity)
            return m;
    }
    throw std::invalid_argument("BchCode: no supported field fits k, t");
}

} // namespace

BchCode::BchCode(std::size_t k, std::size_t t)
    : k_(k), t_(t), field_(fieldDegreeFor(k, t))
{
    if (k_ == 0)
        throw std::invalid_argument("BchCode: k must be at least 1");
    if (t_ < 1 || t_ > 8)
        throw std::invalid_argument("BchCode: t must be in [1, 8]");
    generator_ = generatorFor(field_, t_);
    parityBits_ = static_cast<std::size_t>(polyDegree(generator_));
    assert(k_ + parityBits_ <= field_.order());

    parityMasks_.assign(k_, 0);
    std::uint64_t rem = 1;
    for (std::size_t c = 1; c <= parityBits_ + k_ - 1; ++c) {
        rem <<= 1;
        if ((rem >> parityBits_) & 1)
            rem ^= generator_;
        if (c >= parityBits_)
            parityMasks_[c - parityBits_] = rem;
    }

    parityRows_.assign(parityBits_, gf2::BitVector(k_));
    for (std::size_t i = 0; i < k_; ++i)
        for (std::size_t j = 0; j < parityBits_; ++j)
            if ((parityMasks_[i] >> j) & 1)
                parityRows_[j].set(i, true);

    // Decode-time table: every syndrome term is a fixed power of
    // alpha, so the syndrome pass is pure lookups.
    synAlpha_.assign(n() * 2 * t_, 0);
    for (std::size_t c = 0; c < n(); ++c)
        for (std::size_t j = 0; j < 2 * t_; ++j)
            synAlpha_[c * 2 * t_ + j] =
                field_.alphaPow(static_cast<std::uint64_t>(j + 1) * c);
}

std::size_t
BchCode::coefficientOf(std::size_t pos) const
{
    assert(pos < n());
    return pos < k_ ? parityBits_ + pos : pos - k_;
}

std::optional<std::size_t>
BchCode::positionOf(std::size_t coeff) const
{
    if (coeff >= n())
        return std::nullopt;
    if (coeff < parityBits_)
        return k_ + coeff;
    return coeff - parityBits_;
}

gf2::BitVector
BchCode::encode(const gf2::BitVector &dataword) const
{
    gf2::BitVector codeword(n());
    encodeInto(dataword, codeword);
    return codeword;
}

void
BchCode::encodeInto(const gf2::BitVector &dataword,
                    gf2::BitVector &codeword) const
{
    assert(dataword.size() == k_);
    assert(codeword.size() == n());
    codeword.assignAt(0, dataword);
    std::uint64_t parity = 0;
    dataword.forEachSetBit(
        [&](std::size_t i) { parity ^= parityMasks_[i]; });
    for (std::size_t j = 0; j < parityBits_; ++j)
        codeword.set(k_ + j, (parity >> j) & 1);
}

bool
BchCode::berlekampMassey() const
{
    // Standard Berlekamp-Massey over GF(2^m). Lambda and B are
    // polynomials with Lambda[0] == 1 throughout, held in member
    // scratch so steady state allocates nothing.
    const std::vector<Gf2m::Element> &s = synScratch_;
    std::vector<Gf2m::Element> &lambda = lambdaScratch_;
    std::vector<Gf2m::Element> &b = bScratch_;
    std::vector<Gf2m::Element> &next = nextScratch_;
    lambda.assign(1, 1);
    b.assign(1, 1);
    std::size_t reg_len = 0;   // current LFSR length L
    std::size_t shift = 1;     // x^shift multiplier for B
    Gf2m::Element b_disc = 1;  // discrepancy associated with B

    for (std::size_t step = 0; step < s.size(); ++step) {
        // Discrepancy delta = S_step + sum_i lambda_i * S_{step-i}.
        Gf2m::Element delta = s[step];
        for (std::size_t i = 1; i < lambda.size() && i <= step; ++i)
            delta ^= field_.multiply(lambda[i], s[step - i]);

        if (delta == 0) {
            ++shift;
            continue;
        }
        // lambda' = lambda - (delta/b_disc) * x^shift * B.
        const Gf2m::Element scale = field_.divide(delta, b_disc);
        next.assign(lambda.begin(), lambda.end());
        if (next.size() < b.size() + shift)
            next.resize(b.size() + shift, 0);
        for (std::size_t i = 0; i < b.size(); ++i)
            next[i + shift] ^= field_.multiply(scale, b[i]);

        if (2 * reg_len <= step) {
            b.assign(lambda.begin(), lambda.end());
            b_disc = delta;
            reg_len = step + 1 - reg_len;
            shift = 1;
        } else {
            ++shift;
        }
        lambda.swap(next);
    }

    // Trim trailing zeros; validate the locator degree.
    while (lambda.size() > 1 && lambda.back() == 0)
        lambda.pop_back();
    return reg_len <= t_ && lambda.size() - 1 == reg_len;
}

bool
BchCode::chienSearch() const
{
    const std::vector<Gf2m::Element> &lambda = lambdaScratch_;
    std::vector<std::size_t> &roots = rootsScratch_;
    roots.clear();
    const std::size_t degree = lambda.size() - 1;
    if (degree == 0)
        return true;
    // Error at coefficient i <=> Lambda(alpha^{-i}) == 0. In the log
    // domain the term lambda_d * alpha^{-i*d} is alpha^(log lambda_d -
    // i*d): keep one exponent per nonzero coefficient and step it down
    // by d (mod order) per position, so each evaluation is lookups and
    // XORs. BM bounds the degree by t <= 8.
    assert(degree <= t_);
    const std::uint32_t order = field_.order();
    std::array<std::uint32_t, 8> exponent{};
    std::array<std::uint32_t, 8> step{};
    std::size_t terms = 0;
    for (std::size_t d = 1; d <= degree; ++d) {
        if (lambda[d] != 0) {
            exponent[terms] = field_.log(lambda[d]);
            step[terms] = static_cast<std::uint32_t>(d);
            ++terms;
        }
    }
    for (std::size_t i = 0; i < n() && roots.size() <= degree; ++i) {
        Gf2m::Element acc = lambda[0];
        for (std::size_t k = 0; k < terms; ++k) {
            acc ^= field_.antilog(exponent[k]);
            exponent[k] = exponent[k] >= step[k]
                              ? exponent[k] - step[k]
                              : exponent[k] + order - step[k];
        }
        if (acc == 0)
            roots.push_back(i);
    }
    // All deg(Lambda) roots must land inside the shortened code.
    return roots.size() == degree;
}

BchGeneralDecodeResult
BchCode::decode(const gf2::BitVector &codeword) const
{
    BchGeneralDecodeResult result;
    decodeInto(codeword, result);
    return result;
}

void
BchCode::decodeInto(const gf2::BitVector &codeword,
                    BchGeneralDecodeResult &result) const
{
    assert(codeword.size() == n());
    result.correctedPositions.clear();
    result.detectedUncorrectable = false;
    if (result.dataword.size() != k_)
        result.dataword = gf2::BitVector(k_);
    result.dataword.assignPrefix(codeword);

    // Syndromes S_1 .. S_2t over the received polynomial, via the
    // per-coefficient alpha-power table.
    synScratch_.assign(2 * t_, 0);
    bool all_zero = true;
    const std::vector<std::uint64_t> &words = codeword.words();
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t bits = words[w];
        while (bits != 0) {
            const std::size_t pos =
                w * 64 +
                static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            const Gf2m::Element *row =
                &synAlpha_[coefficientOf(pos) * 2 * t_];
            for (std::size_t j = 0; j < 2 * t_; ++j)
                synScratch_[j] ^= row[j];
        }
    }
    for (const Gf2m::Element s : synScratch_)
        all_zero = all_zero && (s == 0);
    if (all_zero)
        return;

    if (!berlekampMassey() || !chienSearch()) {
        result.detectedUncorrectable = true;
        return;
    }
    for (const std::size_t c : rootsScratch_) {
        const auto pos = positionOf(c);
        assert(pos.has_value());
        result.correctedPositions.push_back(*pos);
        if (*pos < k_)
            result.dataword.flip(*pos);
    }
    std::sort(result.correctedPositions.begin(),
              result.correctedPositions.end());
}

std::vector<std::size_t>
BchCode::decodeErrorPattern(
    const std::vector<std::size_t> &error_positions) const
{
    gf2::BitVector error_vector(n());
    for (const std::size_t pos : error_positions)
        error_vector.set(pos, true);
    return decode(error_vector).dataword.setBits();
}

} // namespace harp::ecc
