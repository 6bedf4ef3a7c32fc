#include "fault/fault_model.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace harp::fault {

WordFaultModel::WordFaultModel(std::size_t word_bits,
                               std::vector<CellFault> faults,
                               CellTechnology tech)
    : wordBits_(word_bits), faults_(std::move(faults)), tech_(tech)
{
    std::sort(faults_.begin(), faults_.end(),
              [](const CellFault &a, const CellFault &b) {
                  return a.position < b.position;
              });
    for (std::size_t i = 0; i < faults_.size(); ++i) {
        if (faults_[i].position >= wordBits_)
            throw std::invalid_argument("WordFaultModel: position >= n");
        if (i > 0 && faults_[i].position == faults_[i - 1].position)
            throw std::invalid_argument("WordFaultModel: duplicate position");
        if (faults_[i].probability < 0.0 || faults_[i].probability > 1.0)
            throw std::invalid_argument("WordFaultModel: bad probability");
    }
}

WordFaultModel
WordFaultModel::makeUniformFixedCount(std::size_t word_bits,
                                      std::size_t count, double probability,
                                      common::Xoshiro256 &rng)
{
    if (count > word_bits)
        throw std::invalid_argument(
            "WordFaultModel: " + std::to_string(count) +
            " at-risk cells do not fit a " + std::to_string(word_bits) +
            "-bit word");
    // Floyd's algorithm for a uniform distinct sample.
    std::vector<bool> chosen(word_bits, false);
    std::vector<CellFault> faults;
    faults.reserve(count);
    for (std::size_t j = word_bits - count; j < word_bits; ++j) {
        std::size_t t = rng.nextBelow(j + 1);
        if (chosen[t])
            t = j;
        chosen[t] = true;
        faults.push_back({t, probability});
    }
    return WordFaultModel(word_bits, std::move(faults));
}

WordFaultModel
WordFaultModel::makeUniformRber(std::size_t word_bits, double rber,
                                double probability, common::Xoshiro256 &rng)
{
    std::vector<CellFault> faults;
    for (std::size_t pos = 0; pos < word_bits; ++pos)
        if (rng.nextBernoulli(rber))
            faults.push_back({pos, probability});
    return WordFaultModel(word_bits, std::move(faults));
}

gf2::BitVector
WordFaultModel::injectErrors(const gf2::BitVector &stored_codeword,
                             common::Xoshiro256 &rng) const
{
    assert(stored_codeword.size() == wordBits_);
    gf2::BitVector mask(wordBits_);
    for (const CellFault &f : faults_) {
        if (!isCharged(tech_, stored_codeword.get(f.position)))
            continue;
        if (rng.nextBernoulli(f.probability))
            mask.set(f.position, true);
    }
    return mask;
}

void
WordFaultModel::injectErrorsCrn(const gf2::BitVector &stored_codeword,
                                const std::vector<double> &uniforms,
                                gf2::BitVector &target) const
{
    assert(stored_codeword.size() == wordBits_);
    assert(target.size() == wordBits_);
    assert(uniforms.size() >= faults_.size());
    for (std::size_t i = 0; i < faults_.size(); ++i) {
        const CellFault &f = faults_[i];
        if (!isCharged(tech_, stored_codeword.get(f.position)))
            continue;
        if (uniforms[i] < f.probability)
            target.flip(f.position);
    }
}

} // namespace harp::fault
