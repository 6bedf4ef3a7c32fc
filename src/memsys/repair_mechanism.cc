#include "memsys/repair_mechanism.hh"

#include <bit>

namespace harp::mem {

RepairMechanism::RepairMechanism(std::size_t num_words)
{
    reset(num_words);
}

void
RepairMechanism::reset(std::size_t num_words)
{
    capacity_ = kUnlimited;
    used_ = 0;
    dropped_ = 0;
    spares_.resize(num_words);
    for (Spares &spare : spares_) {
        spare.allocated.reset(0);
        spare.value.reset(0);
    }
}

void
RepairMechanism::onWrite(std::size_t word, const gf2::BitVector &dataword,
                         const ErrorProfile &profile)
{
    Spares &spare = spares_.at(word);
    if (spare.allocated.size() != dataword.size()) {
        spare.allocated.reset(dataword.size());
        spare.value.reset(dataword.size());
    }
    const auto &profiled = profile.wordBitmap(word).words();
    const auto &data = dataword.words();
    for (std::size_t w = 0; w < data.size(); ++w) {
        std::uint64_t allocated = spare.allocated.words()[w];
        std::uint64_t fresh = profiled[w] & ~allocated;
        // First come, first served in ascending bit order: the lowest
        // fresh bits the budget still covers get slots, the rest drop.
        const std::size_t room = used_ < capacity_ ? capacity_ - used_ : 0;
        const auto wanted = static_cast<std::size_t>(std::popcount(fresh));
        if (wanted > room) {
            std::uint64_t granted = 0;
            for (std::size_t i = 0; i < room; ++i) {
                granted |= fresh & (~fresh + 1);
                fresh &= fresh - 1;
            }
            dropped_ += wanted - room;
            fresh = granted;
        }
        used_ += static_cast<std::size_t>(std::popcount(fresh));
        allocated |= fresh;
        spare.allocated.setWord(w, allocated);
        spare.value.setWord(w, data[w] & allocated);
    }
}

std::size_t
RepairMechanism::repair(std::size_t word, gf2::BitVector &dataword) const
{
    const Spares &spare = spares_.at(word);
    // A word never written since reset() holds no spares yet.
    if (spare.allocated.size() != dataword.size())
        return 0;
    const auto &allocated = spare.allocated.words();
    const auto &value = spare.value.words();
    const auto &data = dataword.words();
    std::size_t changed = 0;
    for (std::size_t w = 0; w < data.size(); ++w) {
        const std::uint64_t wrong = (data[w] ^ value[w]) & allocated[w];
        if (wrong == 0)
            continue;
        changed += static_cast<std::size_t>(std::popcount(wrong));
        dataword.setWord(w, data[w] ^ wrong);
    }
    return changed;
}

std::size_t
RepairMechanism::spareBitsUsed() const
{
    return used_;
}

} // namespace harp::mem
