#include "ecc/gf2m.hh"

#include <cassert>
#include <stdexcept>

namespace harp::ecc {

namespace {

/** Primitive polynomials over GF(2), indexed by degree m (bit i = x^i). */
constexpr std::uint32_t primitivePolys[] = {
    0,      0,      0x7,    0xB,     0x13,    0x25,   0x43,   0x89,
    0x11D,  0x211,  0x409,  0x805,   0x1053,  0x201B, 0x4443, 0x8003,
    0x1100B,
};

} // namespace

Gf2m::Gf2m(unsigned m)
    : m_(m)
{
    if (m < 2 || m > 16)
        throw std::invalid_argument("Gf2m: m must be in [2, 16]");
    poly_ = primitivePolys[m];

    antilog_.assign(order(), 0);
    logTable_.assign(size(), 0);
    Element x = 1;
    for (std::uint32_t i = 0; i < order(); ++i) {
        antilog_[i] = x;
        logTable_[x] = i;
        // Multiply by alpha (shift) and reduce by the primitive poly.
        x <<= 1;
        if (x & size())
            x ^= poly_;
    }
    assert(x == 1 && "alpha is primitive: order must be 2^m - 1");
}

Gf2m::Element
Gf2m::alphaPow(std::uint64_t e) const
{
    return antilog_[e % order()];
}

std::uint32_t
Gf2m::log(Element x) const
{
    assert(x != 0 && x < size());
    return logTable_[x];
}

Gf2m::Element
Gf2m::multiply(Element a, Element b) const
{
    if (a == 0 || b == 0)
        return 0;
    return antilog_[(log(a) + log(b)) % order()];
}

Gf2m::Element
Gf2m::divide(Element a, Element b) const
{
    assert(b != 0);
    if (a == 0)
        return 0;
    return antilog_[(log(a) + order() - log(b)) % order()];
}

Gf2m::Element
Gf2m::trace(Element x) const
{
    Element acc = 0;
    Element term = x;
    for (unsigned i = 0; i < m_; ++i) {
        acc ^= term;
        term = multiply(term, term); // Frobenius: term^2
    }
    assert(acc == 0 || acc == 1);
    return acc;
}

Gf2m::Element
Gf2m::solveQuadratic(Element c) const
{
    if (c == 0)
        return 0; // z^2 + z = 0 -> z = 0 (or 1)
    if (trace(c) != 0)
        return 0xFFFFFFFF;
    // Half-trace for odd m: z = sum_{i=0}^{(m-1)/2} c^(2^(2i)).
    if (m_ % 2 == 1) {
        Element z = 0;
        Element term = c;
        for (unsigned i = 0; i <= (m_ - 1) / 2; ++i) {
            z ^= term;
            term = multiply(term, term);
            term = multiply(term, term); // term^(4)
        }
        return z;
    }
    // Even m: brute-force over the field (tables make this cheap; the
    // DEC decoder uses odd-m fields in practice).
    for (Element z = 0; z < size(); ++z)
        if (static_cast<Element>(multiply(z, z) ^ z) == c)
            return z;
    return 0xFFFFFFFF;
}

} // namespace harp::ecc
