#include "memsys/memory_chip.hh"

#include <cassert>
#include <stdexcept>

namespace harp::mem {

MemoryChip::MemoryChip(const ecc::HammingCode &on_die_ecc,
                       std::size_t num_words)
{
    reset(on_die_ecc, num_words);
}

void
MemoryChip::reset(const ecc::HammingCode &on_die_ecc, std::size_t num_words)
{
    onDieEcc_ = &on_die_ecc;
    const std::size_t n = onDieEcc_->n();
    storage_.resize(num_words);
    for (gf2::BitVector &stored : storage_)
        stored.reset(n);
    syndromes_.assign(num_words, 0);
    faultModels_.assign(num_words, fault::WordFaultModel(n, {}));
}

void
MemoryChip::setFaultModel(std::size_t word, fault::WordFaultModel model)
{
    if (model.wordBits() != onDieEcc_->n())
        throw std::invalid_argument("fault model size != codeword size");
    faultModels_.at(word) = std::move(model);
}

void
MemoryChip::write(std::size_t word, const gf2::BitVector &dataword)
{
    assert(dataword.size() == onDieEcc_->k());
    onDieEcc_->encodeInto(dataword, storage_.at(word));
    syndromes_[word] = 0;
}

void
MemoryChip::readInto(std::size_t word, gf2::BitVector &data_out) const
{
    const gf2::BitVector &stored = storage_.at(word);
    assert(syndromes_[word] == onDieEcc_->syndrome(stored));
    onDieEcc_->correctDataInto(stored, syndromes_[word], data_out);
}

gf2::BitVector
MemoryChip::readRaw(std::size_t word) const
{
    return storage_.at(word).slice(0, onDieEcc_->k());
}

std::size_t
MemoryChip::retentionTick(std::size_t word, common::Xoshiro256 &rng)
{
    const gf2::BitVector mask =
        faultModels_.at(word).injectErrors(storage_.at(word), rng);
    flipCells(word, mask);
    return mask.popcount();
}

void
MemoryChip::corrupt(std::size_t word, const gf2::BitVector &error_mask)
{
    assert(error_mask.size() == onDieEcc_->n());
    flipCells(word, error_mask);
}

void
MemoryChip::flipCells(std::size_t word, const gf2::BitVector &error_mask)
{
    storage_.at(word) ^= error_mask;
    std::uint32_t &syndrome = syndromes_[word];
    error_mask.forEachSetBit([&](std::size_t pos) {
        syndrome ^= onDieEcc_->codewordColumn(pos);
    });
}

const gf2::BitVector &
MemoryChip::storedCodeword(std::size_t word) const
{
    return storage_.at(word);
}

} // namespace harp::mem
