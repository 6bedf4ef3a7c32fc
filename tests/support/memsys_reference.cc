#include "support/memsys_reference.hh"

#include <cassert>

namespace harp::test {

gf2::BitVector
referenceSlice(const gf2::BitVector &bits, std::size_t begin,
               std::size_t end)
{
    assert(begin <= end && end <= bits.size());
    gf2::BitVector out(end - begin);
    for (std::size_t i = begin; i < end; ++i)
        out.set(i - begin, bits.get(i));
    return out;
}

std::uint32_t
referenceSyndrome(const ecc::HammingCode &code,
                  const gf2::BitVector &codeword)
{
    assert(codeword.size() == code.n());
    const gf2::BitVector data = referenceSlice(codeword, 0, code.k());
    std::uint32_t s = 0;
    for (std::size_t j = 0; j < code.p(); ++j) {
        const bool parity_mismatch =
            code.parityRow(j).dot(data) != codeword.get(code.k() + j);
        if (parity_mismatch)
            s |= std::uint32_t{1} << j;
    }
    return s;
}

ecc::DecodeResult
referenceDecode(const ecc::HammingCode &code, const gf2::BitVector &codeword)
{
    ecc::DecodeResult result;
    result.syndrome = referenceSyndrome(code, codeword);
    gf2::BitVector corrected = codeword;
    if (result.syndrome != 0) {
        const auto pos = code.syndromeToPosition(result.syndrome);
        if (pos) {
            corrected.flip(*pos);
            result.correctedPosition = pos;
        } else {
            result.detectedUncorrectable = true;
        }
    }
    result.dataword = referenceSlice(corrected, 0, code.k());
    return result;
}

namespace {

/** SEC encode, one bit at a time. */
gf2::BitVector
referenceEncode(const ecc::HammingCode &code, const gf2::BitVector &dataword)
{
    assert(dataword.size() == code.k());
    gf2::BitVector codeword(code.n());
    for (std::size_t i = 0; i < code.k(); ++i)
        codeword.set(i, dataword.get(i));
    for (std::size_t j = 0; j < code.p(); ++j)
        codeword.set(code.k() + j, code.parityRow(j).dot(dataword));
    return codeword;
}

} // namespace

gf2::BitVector
referenceSecdedEncode(const ecc::ExtendedHammingCode &code,
                      const gf2::BitVector &dataword)
{
    const gf2::BitVector inner_cw = referenceEncode(code.inner(), dataword);
    gf2::BitVector codeword(code.n());
    bool overall = false;
    for (std::size_t i = 0; i < inner_cw.size(); ++i) {
        const bool bit = inner_cw.get(i);
        codeword.set(i, bit);
        overall ^= bit;
    }
    codeword.set(code.n() - 1, overall);
    return codeword;
}

ecc::SecondaryDecodeResult
referenceSecdedDecode(const ecc::ExtendedHammingCode &code,
                      const gf2::BitVector &codeword)
{
    using ecc::SecondaryDecodeStatus;
    const ecc::HammingCode &inner = code.inner();
    assert(codeword.size() == code.n());
    ecc::SecondaryDecodeResult result;

    const gf2::BitVector inner_cw = referenceSlice(codeword, 0, inner.n());
    const std::uint32_t s = referenceSyndrome(inner, inner_cw);
    bool overall = codeword.get(code.n() - 1);
    for (std::size_t i = 0; i < inner.n(); ++i)
        overall ^= inner_cw.get(i);

    if (s == 0 && !overall) {
        result.status = SecondaryDecodeStatus::NoError;
        result.dataword = referenceSlice(inner_cw, 0, inner.k());
        return result;
    }

    if (overall) {
        if (s == 0) {
            result.status = SecondaryDecodeStatus::CorrectedSingle;
            result.correctedPosition = code.n() - 1;
            result.dataword = referenceSlice(inner_cw, 0, inner.k());
            return result;
        }
        const auto pos = inner.syndromeToPosition(s);
        if (pos) {
            gf2::BitVector fixed = inner_cw;
            fixed.flip(*pos);
            result.status = SecondaryDecodeStatus::CorrectedSingle;
            result.correctedPosition = pos;
            result.dataword = referenceSlice(fixed, 0, inner.k());
            return result;
        }
        result.status = SecondaryDecodeStatus::DetectedUncorrectable;
        result.dataword = referenceSlice(inner_cw, 0, inner.k());
        return result;
    }

    result.status = SecondaryDecodeStatus::DetectedUncorrectable;
    result.dataword = referenceSlice(inner_cw, 0, inner.k());
    return result;
}

ReferenceMemorySystem::ReferenceMemorySystem(
    ecc::HammingCode on_die, std::size_t num_words,
    std::optional<ecc::ExtendedHammingCode> secondary)
    : onDie_(std::move(on_die)),
      secondary_(std::move(secondary)),
      storage_(num_words, gf2::BitVector(onDie_.n())),
      profile_(num_words, onDie_.k()),
      repair_(num_words)
{
    if (secondary_) {
        assert(secondary_->k() == onDie_.k());
        secondaryCheckBits_.assign(
            num_words, gf2::BitVector(secondary_->n() - secondary_->k()));
    }
}

void
ReferenceMemorySystem::write(std::size_t word,
                             const gf2::BitVector &dataword)
{
    ++stats_.writes;
    writeInternal(word, dataword);
}

void
ReferenceMemorySystem::writeInternal(std::size_t word,
                                     const gf2::BitVector &dataword)
{
    repair_.onWrite(word, dataword, profile_);
    if (secondary_) {
        const gf2::BitVector codeword =
            referenceSecdedEncode(*secondary_, dataword);
        secondaryCheckBits_.at(word) =
            referenceSlice(codeword, secondary_->k(), secondary_->n());
    }
    storage_.at(word) = referenceEncode(onDie_, dataword);
}

mem::ControllerReadResult
ReferenceMemorySystem::read(std::size_t word)
{
    using ecc::SecondaryDecodeStatus;
    ++stats_.reads;
    mem::ControllerReadResult result;

    gf2::BitVector data = referenceDecode(onDie_, storage_.at(word)).dataword;
    stats_.repairedBits += repair_.repair(word, data);

    if (!secondary_) {
        result.dataword = std::move(data);
        return result;
    }

    const std::size_t k = secondary_->k();
    gf2::BitVector codeword(secondary_->n());
    for (std::size_t i = 0; i < k; ++i)
        codeword.set(i, data.get(i));
    const gf2::BitVector &check = secondaryCheckBits_.at(word);
    for (std::size_t i = 0; i < check.size(); ++i)
        codeword.set(k + i, check.get(i));

    const ecc::SecondaryDecodeResult decoded =
        referenceSecdedDecode(*secondary_, codeword);
    switch (decoded.status) {
      case SecondaryDecodeStatus::NoError:
        result.dataword = std::move(data);
        return result;
      case SecondaryDecodeStatus::CorrectedSingle:
        if (decoded.correctedPosition && *decoded.correctedPosition < k) {
            ++stats_.secondaryCorrections;
            if (!profile_.isAtRisk(word, *decoded.correctedPosition)) {
                profile_.markAtRisk(word, *decoded.correctedPosition);
                ++stats_.reactiveIdentifications;
                result.newlyProfiledBit = decoded.correctedPosition;
            }
            result.dataword = decoded.dataword;
            return result;
        }
        ++stats_.uncorrectableEvents;
        result.dataword = std::move(data);
        result.corrupt = true;
        return result;
      case SecondaryDecodeStatus::DetectedUncorrectable:
      default:
        ++stats_.uncorrectableEvents;
        result.dataword = std::move(data);
        result.corrupt = true;
        return result;
    }
}

gf2::BitVector
ReferenceMemorySystem::readRaw(std::size_t word) const
{
    return referenceSlice(storage_.at(word), 0, onDie_.k());
}

mem::ControllerReadResult
ReferenceMemorySystem::scrub(std::size_t word)
{
    ++stats_.scrubs;
    const gf2::BitVector raw_before = readRaw(word);
    mem::ControllerReadResult result = read(word);
    if (result.corrupt)
        return result;
    if (!(raw_before == result.dataword)) {
        writeInternal(word, result.dataword);
        ++stats_.scrubWritebacks;
    }
    return result;
}

std::size_t
ReferenceMemorySystem::scrubAll()
{
    std::size_t corrupt_words = 0;
    for (std::size_t w = 0; w < storage_.size(); ++w)
        if (scrub(w).corrupt)
            ++corrupt_words;
    return corrupt_words;
}

void
ReferenceMemorySystem::corrupt(std::size_t word,
                               const gf2::BitVector &error_mask)
{
    assert(error_mask.size() == onDie_.n());
    storage_.at(word) ^= error_mask;
}

} // namespace harp::test
