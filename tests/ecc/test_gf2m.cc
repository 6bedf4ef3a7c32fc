/**
 * @file
 * Unit and property tests for GF(2^m) field arithmetic, the substrate
 * of the DEC BCH extension.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ecc/gf2m.hh"

namespace harp::ecc {
namespace {

TEST(Gf2m, ConstructionBounds)
{
    EXPECT_THROW(Gf2m(1), std::invalid_argument);
    EXPECT_THROW(Gf2m(17), std::invalid_argument);
    EXPECT_NO_THROW(Gf2m(2));
    EXPECT_NO_THROW(Gf2m(16));
}

TEST(Gf2m, SizesAndOrder)
{
    const Gf2m f(7);
    EXPECT_EQ(f.m(), 7u);
    EXPECT_EQ(f.size(), 128u);
    EXPECT_EQ(f.order(), 127u);
}

TEST(Gf2m, AlphaIsPrimitive)
{
    // alpha^i must enumerate every nonzero element exactly once.
    for (const unsigned m : {3u, 4u, 7u, 8u}) {
        const Gf2m f(m);
        std::vector<bool> seen(f.size(), false);
        for (std::uint32_t i = 0; i < f.order(); ++i) {
            const auto x = f.alphaPow(i);
            ASSERT_NE(x, 0u);
            ASSERT_LT(x, f.size());
            EXPECT_FALSE(seen[x]) << "m=" << m << " i=" << i;
            seen[x] = true;
        }
    }
}

TEST(Gf2m, LogInvertsAlphaPow)
{
    const Gf2m f(8);
    for (std::uint32_t i = 0; i < f.order(); ++i)
        EXPECT_EQ(f.log(f.alphaPow(i)), i);
}

TEST(Gf2m, MultiplicationAgreesWithPolynomialModel)
{
    // Cross-check table multiplication (whose log sums reach into the
    // upper half of the doubled antilog table) and division against
    // shift-and-reduce, for every supported field: all pairs up to
    // m = 8, sampled pairs above.
    common::Xoshiro256 rng(1);
    for (unsigned m = 2; m <= 16; ++m) {
        const Gf2m f(m);
        const std::uint32_t poly = f.primitivePolynomial();
        auto slow_mul = [&](std::uint32_t a, std::uint32_t b) {
            std::uint32_t r = 0;
            for (int i = static_cast<int>(m) - 1; i >= 0; --i) {
                r <<= 1;
                if (r & f.size())
                    r ^= poly;
                if ((b >> i) & 1)
                    r ^= a;
            }
            return r;
        };
        const auto agrees = [&](Gf2m::Element a, Gf2m::Element b) {
            const Gf2m::Element product = f.multiply(a, b);
            return product == slow_mul(a, b) &&
                   (b == 0 || f.divide(product, b) == a);
        };
        if (m <= 8) {
            for (Gf2m::Element a = 0; a < f.size(); ++a)
                for (Gf2m::Element b = 0; b < f.size(); ++b)
                    ASSERT_TRUE(agrees(a, b))
                        << "m=" << m << " a=" << a << " b=" << b;
        } else {
            for (int trial = 0; trial < 20000; ++trial) {
                const auto a =
                    static_cast<Gf2m::Element>(rng.nextBelow(f.size()));
                const auto b =
                    static_cast<Gf2m::Element>(rng.nextBelow(f.size()));
                ASSERT_TRUE(agrees(a, b))
                    << "m=" << m << " a=" << a << " b=" << b;
            }
        }
    }
}

TEST(Gf2m, FieldAxioms)
{
    const Gf2m f(5);
    common::Xoshiro256 rng(2);
    for (int trial = 0; trial < 200; ++trial) {
        const auto a = static_cast<Gf2m::Element>(rng.nextBelow(32));
        const auto b = static_cast<Gf2m::Element>(rng.nextBelow(32));
        const auto c = static_cast<Gf2m::Element>(rng.nextBelow(32));
        // Commutativity and associativity of multiplication.
        EXPECT_EQ(f.multiply(a, b), f.multiply(b, a));
        EXPECT_EQ(f.multiply(f.multiply(a, b), c),
                  f.multiply(a, f.multiply(b, c)));
        // Distributivity over addition (XOR).
        EXPECT_EQ(f.multiply(a, static_cast<Gf2m::Element>(b ^ c)),
                  static_cast<Gf2m::Element>(f.multiply(a, b) ^
                                             f.multiply(a, c)));
        // Identities.
        EXPECT_EQ(f.multiply(a, 1), a);
        EXPECT_EQ(f.multiply(a, 0), 0u);
    }
}

TEST(Gf2m, Division)
{
    const Gf2m f(6);
    for (Gf2m::Element a = 1; a < f.size(); ++a) {
        EXPECT_EQ(f.multiply(a, f.divide(1, a)), 1u) << "a=" << a;
        EXPECT_EQ(f.divide(a, a), 1u);
        EXPECT_EQ(f.divide(0, a), 0u);
    }
}

TEST(Gf2m, TraceIsAdditiveAndBalanced)
{
    const Gf2m f(7);
    std::size_t ones = 0;
    for (Gf2m::Element x = 0; x < f.size(); ++x) {
        const auto t = f.trace(x);
        ASSERT_LE(t, 1u);
        ones += t;
        // Additivity: Tr(x + y) = Tr(x) + Tr(y); spot-check vs x^2.
        EXPECT_EQ(f.trace(f.multiply(x, x)), t); // Tr(x^2) = Tr(x)
    }
    // Trace is balanced: exactly half the field has trace 1.
    EXPECT_EQ(ones, f.size() / 2);
}

TEST(Gf2m, SolveQuadratic)
{
    for (const unsigned m : {5u, 7u, 8u}) {
        const Gf2m f(m);
        std::size_t solvable = 0;
        for (Gf2m::Element c = 0; c < f.size(); ++c) {
            const auto z = f.solveQuadratic(c);
            if (f.trace(c) == 0) {
                ASSERT_NE(z, 0xFFFFFFFFu) << "m=" << m << " c=" << c;
                EXPECT_EQ(static_cast<Gf2m::Element>(
                              f.multiply(z, z) ^ z),
                          c);
                // The second root is z + 1.
                const auto z2 = static_cast<Gf2m::Element>(z ^ 1);
                EXPECT_EQ(static_cast<Gf2m::Element>(
                              f.multiply(z2, z2) ^ z2),
                          c);
                ++solvable;
            } else {
                EXPECT_EQ(z, 0xFFFFFFFFu);
            }
        }
        EXPECT_EQ(solvable, f.size() / 2);
    }
}

} // namespace
} // namespace harp::ecc
