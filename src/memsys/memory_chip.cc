#include "memsys/memory_chip.hh"

#include <cassert>
#include <stdexcept>

namespace harp::mem {

MemoryChip::MemoryChip(ecc::HammingCode on_die_ecc, std::size_t num_words)
    : onDieEcc_(std::move(on_die_ecc)),
      storage_(num_words, gf2::BitVector(onDieEcc_.n())),
      faultModels_(num_words,
                   fault::WordFaultModel(onDieEcc_.n(), {}))
{
}

void
MemoryChip::setFaultModel(std::size_t word, fault::WordFaultModel model)
{
    if (model.wordBits() != onDieEcc_.n())
        throw std::invalid_argument("fault model size != codeword size");
    faultModels_.at(word) = std::move(model);
}

void
MemoryChip::write(std::size_t word, const gf2::BitVector &dataword)
{
    assert(dataword.size() == onDieEcc_.k());
    storage_.at(word) = onDieEcc_.encode(dataword);
}

void
MemoryChip::readInto(std::size_t word, gf2::BitVector &data_out) const
{
    onDieEcc_.decodeDataInto(storage_.at(word), data_out);
}

gf2::BitVector
MemoryChip::readRaw(std::size_t word) const
{
    return storage_.at(word).slice(0, onDieEcc_.k());
}

std::size_t
MemoryChip::retentionTick(std::size_t word, common::Xoshiro256 &rng)
{
    const gf2::BitVector mask =
        faultModels_.at(word).injectErrors(storage_.at(word), rng);
    storage_.at(word) ^= mask;
    return mask.popcount();
}

void
MemoryChip::corrupt(std::size_t word, const gf2::BitVector &error_mask)
{
    assert(error_mask.size() == onDieEcc_.n());
    storage_.at(word) ^= error_mask;
}

const gf2::BitVector &
MemoryChip::storedCodeword(std::size_t word) const
{
    return storage_.at(word);
}

} // namespace harp::mem
