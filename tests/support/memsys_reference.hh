/**
 * @file
 * Bit-at-a-time reference for the memory-system read chain: on-die SEC
 * decode, bit repair, SECDED codeword assembly and the SECDED decode,
 * each written the obvious way (per-bit slices, a freshly assembled
 * codeword per read). The production MemoryController decodes on whole
 * words into caller buffers and classifies the secondary word from its
 * split data and check bits; the property tests require the two to
 * agree on every read result, counter, profile bit and stored cell.
 */

#ifndef HARP_TESTS_SUPPORT_MEMSYS_REFERENCE_HH
#define HARP_TESTS_SUPPORT_MEMSYS_REFERENCE_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "ecc/extended_hamming_code.hh"
#include "ecc/hamming_code.hh"
#include "gf2/bit_vector.hh"
#include "memsys/error_profile.hh"
#include "memsys/memory_controller.hh"
#include "memsys/repair_mechanism.hh"

namespace harp::test {

/** Bits [begin, end) of @p bits, copied one bit at a time. */
gf2::BitVector referenceSlice(const gf2::BitVector &bits, std::size_t begin,
                              std::size_t end);

/** SEC syndrome of @p codeword from a sliced data copy. */
std::uint32_t referenceSyndrome(const ecc::HammingCode &code,
                                const gf2::BitVector &codeword);

/** SEC decode: copy, flip the matched position, slice the data. */
ecc::DecodeResult referenceDecode(const ecc::HammingCode &code,
                                  const gf2::BitVector &codeword);

/** SECDED encode, one bit at a time. */
gf2::BitVector referenceSecdedEncode(const ecc::ExtendedHammingCode &code,
                                     const gf2::BitVector &dataword);

/** SECDED decode over an assembled codeword [data | parity | overall]. */
ecc::SecondaryDecodeResult
referenceSecdedDecode(const ecc::ExtendedHammingCode &code,
                      const gf2::BitVector &codeword);

/**
 * One chip plus its controller, with the same public operations as
 * mem::MemoryChip + mem::MemoryController but every step of the read
 * chain taken through the reference functions above. ErrorProfile and
 * RepairMechanism are shared with production: they hold state, not the
 * decode chain under test.
 */
class ReferenceMemorySystem
{
  public:
    ReferenceMemorySystem(ecc::HammingCode on_die, std::size_t num_words,
                          std::optional<ecc::ExtendedHammingCode> secondary);

    void write(std::size_t word, const gf2::BitVector &dataword);
    mem::ControllerReadResult read(std::size_t word);
    gf2::BitVector readRaw(std::size_t word) const;
    mem::ControllerReadResult scrub(std::size_t word);
    std::size_t scrubAll();

    /** XOR @p error_mask into the stored codeword (chip corrupt()). */
    void corrupt(std::size_t word, const gf2::BitVector &error_mask);

    void setRepairCapacity(std::size_t bits) { repair_.setCapacity(bits); }

    const gf2::BitVector &storedCodeword(std::size_t word) const
    {
        return storage_.at(word);
    }
    mem::ErrorProfile &profile() { return profile_; }
    const mem::ErrorProfile &profile() const { return profile_; }
    const mem::RepairMechanism &repairMechanism() const { return repair_; }
    const mem::ControllerStats &stats() const { return stats_; }

  private:
    void writeInternal(std::size_t word, const gf2::BitVector &dataword);

    ecc::HammingCode onDie_;
    std::optional<ecc::ExtendedHammingCode> secondary_;
    std::vector<gf2::BitVector> storage_;
    mem::ErrorProfile profile_;
    mem::RepairMechanism repair_;
    std::vector<gf2::BitVector> secondaryCheckBits_;
    mem::ControllerStats stats_;
};

} // namespace harp::test

#endif // HARP_TESTS_SUPPORT_MEMSYS_REFERENCE_HH
