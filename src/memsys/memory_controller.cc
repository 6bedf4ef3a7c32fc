#include "memsys/memory_controller.hh"

#include <cassert>

namespace harp::mem {

MemoryController::MemoryController(
    MemoryChip &chip, const ecc::ExtendedHammingCode *secondary_ecc)
    : chip_(chip), secondaryEcc_(secondary_ecc),
      profile_(chip.numWords(), chip.datawordBits()),
      repair_(chip.numWords())
{
    reset(secondary_ecc);
}

void
MemoryController::reset(const ecc::ExtendedHammingCode *secondary_ecc)
{
    const std::size_t words = chip_.numWords();
    secondaryEcc_ = secondary_ecc;
    profile_.reset(words, chip_.datawordBits());
    repair_.reset(words);
    stats_ = ControllerStats{};
    if (!secondaryEcc_) {
        secondaryCheckBits_.resize(0);
        return;
    }
    assert(secondaryEcc_->k() == chip_.datawordBits());
    // Zero check bits match the chip's zeroed words.
    secondaryCheckBits_.resize(words);
    for (gf2::BitVector &check : secondaryCheckBits_)
        check.reset(secondaryEcc_->checkBits());
}

void
MemoryController::write(std::size_t word, const gf2::BitVector &dataword)
{
    ++stats_.writes;
    writeInternal(word, dataword);
}

void
MemoryController::writeInternal(std::size_t word,
                                const gf2::BitVector &dataword)
{
    repair_.onWrite(word, dataword, profile_);
    if (secondaryEcc_)
        secondaryEcc_->encodeCheckBitsInto(dataword,
                                           secondaryCheckBits_.at(word));
    chip_.write(word, dataword);
}

ControllerReadResult
MemoryController::read(std::size_t word)
{
    ControllerReadResult result;
    readInto(word, result);
    return result;
}

void
MemoryController::readInto(std::size_t word, ControllerReadResult &result)
{
    ++stats_.reads;
    result.corrupt = false;
    result.newlyProfiledBit.reset();
    if (result.dataword.size() != chip_.datawordBits())
        result.dataword = gf2::BitVector(chip_.datawordBits());

    // 1. On-die ECC decode inside the chip.
    chip_.readInto(word, result.dataword);

    // 2. Bit-repair of profiled positions.
    stats_.repairedBits += repair_.repair(word, result.dataword);

    // 3. Reactive profiling through the secondary ECC, straight from
    //    the repaired data and the stored check bits.
    if (!secondaryEcc_)
        return;
    const ecc::SecondaryClassification verdict = secondaryEcc_->classify(
        result.dataword, secondaryCheckBits_.at(word));
    switch (verdict.status) {
      case ecc::SecondaryDecodeStatus::NoError:
        return;
      case ecc::SecondaryDecodeStatus::CorrectedSingle:
        if (*verdict.correctedPosition < secondaryEcc_->k()) {
            // A genuine single data-bit error: correct it and record the
            // bit as at-risk (first-failure reactive identification).
            const std::size_t bit = *verdict.correctedPosition;
            result.dataword.flip(bit);
            ++stats_.secondaryCorrections;
            if (!profile_.isAtRisk(word, bit)) {
                profile_.markAtRisk(word, bit);
                ++stats_.reactiveIdentifications;
                result.newlyProfiledBit = bit;
            }
            return;
        }
        // The decoder blamed a check bit, but check bits live in reliable
        // controller storage: the real error pattern had >= 3 data errors.
        ++stats_.uncorrectableEvents;
        result.corrupt = true;
        return;
      case ecc::SecondaryDecodeStatus::DetectedUncorrectable:
      default:
        ++stats_.uncorrectableEvents;
        result.corrupt = true;
        return;
    }
}

gf2::BitVector
MemoryController::readRaw(std::size_t word) const
{
    return chip_.readRaw(word);
}

const ControllerReadResult &
MemoryController::scrub(std::size_t word)
{
    ++stats_.scrubs;
    ControllerReadResult &result = scrubRead_;
    readInto(word, result);
    if (result.corrupt)
        return result; // cannot scrub what cannot be corrected
    // Detect whether the stored codeword carries raw *data* errors:
    // compare the bypass view (the stored data bits, which read() left
    // untouched) against the corrected data, in place. Note that a
    // controller-side scrubber cannot see parity-cell errors (the
    // bypass path hides parity, section 5.2), so parity-only corruption
    // persists until the next write — a faithful consequence of on-die
    // ECC opacity.
    if (!result.dataword.equalsPrefixOf(chip_.storedCodeword(word))) {
        // Write the clean value back, resetting accumulated raw errors.
        writeInternal(word, result.dataword);
        ++stats_.scrubWritebacks;
    }
    return result;
}

std::size_t
MemoryController::scrubAll()
{
    std::size_t corrupt_words = 0;
    for (std::size_t w = 0; w < chip_.numWords(); ++w)
        if (scrub(w).corrupt)
            ++corrupt_words;
    return corrupt_words;
}

} // namespace harp::mem
