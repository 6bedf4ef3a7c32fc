#include "ecc/extended_hamming_code.hh"

#include <cassert>

namespace harp::ecc {

ExtendedHammingCode::ExtendedHammingCode(HammingCode inner)
    : inner_(std::move(inner))
{
}

ExtendedHammingCode
ExtendedHammingCode::randomSecDed(std::size_t k, common::Xoshiro256 &rng)
{
    return ExtendedHammingCode(HammingCode::randomSec(k, rng));
}

gf2::BitVector
ExtendedHammingCode::encode(const gf2::BitVector &dataword) const
{
    gf2::BitVector check(checkBits());
    encodeCheckBitsInto(dataword, check);
    gf2::BitVector codeword(n());
    codeword.assignAt(0, dataword);
    codeword.assignAt(k(), check);
    return codeword;
}

void
ExtendedHammingCode::encodeCheckBitsInto(const gf2::BitVector &dataword,
                                         gf2::BitVector &check) const
{
    assert(dataword.size() == k() && check.size() == checkBits());
    check.fill(false);
    for (std::size_t j = 0; j < inner_.p(); ++j)
        check.set(j, inner_.parityRow(j).dot(dataword));
    // The overall bit makes the whole codeword's weight even.
    check.set(inner_.p(), ((dataword.popcount() + check.popcount()) & 1) != 0);
}

SecondaryClassification
ExtendedHammingCode::classify(const gf2::BitVector &data,
                              const gf2::BitVector &check) const
{
    assert(data.size() == k() && check.size() == checkBits());
    const std::uint32_t s = inner_.syndrome(data, check, 0);
    // Parity of the whole received word: odd means an odd number of
    // bit errors occurred.
    const bool overall = ((data.popcount() + check.popcount()) & 1) != 0;

    if (!overall) {
        // Even parity: clean, or a double error (detected, not
        // correctable).
        return {s == 0 ? SecondaryDecodeStatus::NoError
                       : SecondaryDecodeStatus::DetectedUncorrectable,
                std::nullopt};
    }
    // Odd error count: assume a single error (the SECDED guarantee).
    // A zero syndrome blames the overall parity bit itself.
    if (s == 0)
        return {SecondaryDecodeStatus::CorrectedSingle, n() - 1};
    if (const auto pos = inner_.syndromeToPosition(s))
        return {SecondaryDecodeStatus::CorrectedSingle, pos};
    // Odd-weight error pattern matching no column: >= 3 errors.
    return {SecondaryDecodeStatus::DetectedUncorrectable, std::nullopt};
}

SecondaryDecodeResult
ExtendedHammingCode::decode(const gf2::BitVector &codeword) const
{
    assert(codeword.size() == n());
    SecondaryDecodeResult result;
    result.dataword = codeword.slice(0, k());
    const SecondaryClassification verdict =
        classify(result.dataword, codeword.slice(k(), n()));
    result.status = verdict.status;
    result.correctedPosition = verdict.correctedPosition;
    if (verdict.correctedPosition && *verdict.correctedPosition < k())
        result.dataword.flip(*verdict.correctedPosition);
    return result;
}

} // namespace harp::ecc
