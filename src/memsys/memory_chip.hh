/**
 * @file
 * Simulated memory chip with proprietary on-die ECC (HARP Fig. 3).
 *
 * The chip stores raw codewords, encodes on write, and syndrome-decodes on
 * read. Two read paths are exposed:
 *  - readInto(): the normal path — on-die ECC corrects into a caller
 *                buffer; pre-correction state stays hidden.
 *  - readRaw():  the HARP decode-bypass path (section 5.2) — returns the
 *                raw stored *data* bits. Parity bits remain invisible,
 *                exactly the transparency limit the paper assumes.
 *
 * Retention errors are injected explicitly via retentionTick(), modelling
 * the "program, wait, read" structure of a profiling round.
 */

#ifndef HARP_MEMSYS_MEMORY_CHIP_HH
#define HARP_MEMSYS_MEMORY_CHIP_HH

#include <cstddef>
#include <vector>

#include "common/rng.hh"
#include "ecc/hamming_code.hh"
#include "fault/fault_model.hh"
#include "gf2/bit_vector.hh"

namespace harp::mem {

/**
 * A memory chip: an array of ECC words behind a single on-die ECC engine.
 */
class MemoryChip
{
  public:
    /**
     * @param on_die_ecc The chip's proprietary SEC code.
     * @param num_words  Number of addressable ECC words.
     */
    MemoryChip(ecc::HammingCode on_die_ecc, std::size_t num_words);

    /** Number of addressable ECC words. */
    std::size_t numWords() const { return storage_.size(); }
    /** Dataword length k of the on-die ECC code. */
    std::size_t datawordBits() const { return onDieEcc_.k(); }

    /** Attach a fault model to word @p word. */
    void setFaultModel(std::size_t word, fault::WordFaultModel model);

    /** Encode @p dataword through on-die ECC and store it. */
    void write(std::size_t word, const gf2::BitVector &dataword);

    /** Normal read: on-die ECC decodes (and possibly miscorrects) into
     *  @p data_out (pre-sized k) without allocating. */
    void readInto(std::size_t word, gf2::BitVector &data_out) const;

    /** Decode-bypass read: raw stored data bits, no parity, no correction. */
    gf2::BitVector readRaw(std::size_t word) const;

    /**
     * Let retention errors strike word @p word once: samples the fault
     * model against the currently stored codeword and flips the victims
     * in place (errors persist until the next write).
     *
     * @return Number of cells flipped.
     */
    std::size_t retentionTick(std::size_t word, common::Xoshiro256 &rng);

    /** Apply a precomputed error mask (for deterministic tests). */
    void corrupt(std::size_t word, const gf2::BitVector &error_mask);

    /** White-box access to the stored codeword: tests, fault
     *  injection, and the controller's in-place scrub comparison. */
    const gf2::BitVector &storedCodeword(std::size_t word) const;

  private:
    ecc::HammingCode onDieEcc_;
    std::vector<gf2::BitVector> storage_;
    std::vector<fault::WordFaultModel> faultModels_;
};

} // namespace harp::mem

#endif // HARP_MEMSYS_MEMORY_CHIP_HH
