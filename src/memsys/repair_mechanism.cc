#include "memsys/repair_mechanism.hh"

namespace harp::mem {

RepairMechanism::RepairMechanism(std::size_t num_words) : spares_(num_words)
{
}

void
RepairMechanism::onWrite(std::size_t word, const gf2::BitVector &dataword,
                         const ErrorProfile &profile)
{
    auto &spare = spares_.at(word);
    profile.wordBitmap(word).forEachSetBit([&](std::size_t bit) {
        const auto it = spare.find(bit);
        if (it != spare.end()) {
            it->second = dataword.get(bit);
            return;
        }
        if (used_ >= capacity_) {
            ++dropped_;
            return;
        }
        spare.emplace(bit, dataword.get(bit));
        ++used_;
    });
}

std::size_t
RepairMechanism::repair(std::size_t word, gf2::BitVector &dataword) const
{
    std::size_t changed = 0;
    for (const auto &[bit, value] : spares_.at(word)) {
        if (dataword.get(bit) != value) {
            dataword.set(bit, value);
            ++changed;
        }
    }
    return changed;
}

std::size_t
RepairMechanism::spareBitsUsed() const
{
    return used_;
}

} // namespace harp::mem
