/**
 * @file
 * Property test: the production memory-controller read chain agrees
 * with the bit-at-a-time reference (support/memsys_reference) on every
 * observable. Interleaved writes, CRN-style retention strikes, reads,
 * raw reads and scrubs drive both systems in lockstep over several code
 * lengths, fault masks that hit data and parity cells, and repair
 * budgets; after every step each read result, controller counter,
 * profile bitmap and stored codeword must match exactly.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "fault/fault_model.hh"
#include "memsys/memory_controller.hh"
#include "support/memsys_reference.hh"
#include "support/property.hh"

namespace harp::mem {
namespace {

constexpr std::size_t kWords = 5;
constexpr std::size_t kSteps = 160;

void
expectSameRead(const ControllerReadResult &actual,
               const ControllerReadResult &expected)
{
    EXPECT_EQ(actual.dataword, expected.dataword);
    EXPECT_EQ(actual.corrupt, expected.corrupt);
    EXPECT_EQ(actual.newlyProfiledBit, expected.newlyProfiledBit);
}

void
expectSameState(const MemoryChip &chip, const MemoryController &controller,
                const test::ReferenceMemorySystem &ref)
{
    const ControllerStats &a = controller.stats();
    const ControllerStats &b = ref.stats();
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.repairedBits, b.repairedBits);
    EXPECT_EQ(a.secondaryCorrections, b.secondaryCorrections);
    EXPECT_EQ(a.uncorrectableEvents, b.uncorrectableEvents);
    EXPECT_EQ(a.reactiveIdentifications, b.reactiveIdentifications);
    EXPECT_EQ(a.scrubs, b.scrubs);
    EXPECT_EQ(a.scrubWritebacks, b.scrubWritebacks);
    EXPECT_EQ(controller.repairMechanism().spareBitsUsed(),
              ref.repairMechanism().spareBitsUsed());
    EXPECT_EQ(controller.repairMechanism().droppedAllocations(),
              ref.repairMechanism().droppedAllocations());
    for (std::size_t w = 0; w < kWords; ++w) {
        EXPECT_EQ(controller.profile().wordBitmap(w),
                  ref.profile().wordBitmap(w))
            << "profile of word " << w;
        EXPECT_EQ(chip.storedCodeword(w), ref.storedCodeword(w))
            << "stored codeword of word " << w;
    }
}

/** Word @p w's at-risk cells: weight w % 5 (0-4); from weight 2 up
 *  the set always holds a data cell and a parity cell. */
fault::WordFaultModel
faultsFor(std::size_t w, const ecc::HammingCode &code,
          common::Xoshiro256 &rng)
{
    const std::size_t weight = w % 5;
    std::vector<std::size_t> positions;
    auto add = [&](std::size_t lo, std::size_t hi) {
        for (;;) {
            const std::size_t pos = lo + rng.nextBelow(hi - lo);
            bool fresh = true;
            for (const std::size_t p : positions)
                fresh = fresh && p != pos;
            if (fresh) {
                positions.push_back(pos);
                return;
            }
        }
    };
    for (std::size_t i = 0; i < weight; ++i) {
        if (i == 0)
            add(0, code.k());
        else if (i == 1)
            add(code.k(), code.n());
        else
            add(0, code.n());
    }
    std::vector<fault::CellFault> cells;
    for (const std::size_t pos : positions)
        cells.push_back({pos, 0.6});
    return fault::WordFaultModel(code.n(), std::move(cells));
}

/** Counters summed over a sweep, proving every branch was exercised. */
struct Coverage
{
    std::size_t corrections = 0;
    std::size_t uncorrectable = 0;
    std::size_t identifications = 0;
    std::size_t repaired = 0;
    std::size_t writebacks = 0;
    std::size_t dropped = 0;
};

void
runLockstep(std::size_t k, std::size_t budget, bool with_secondary,
            std::uint64_t seed, common::Xoshiro256 &rng, Coverage &cov)
{
    const ecc::HammingCode code = ecc::HammingCode::randomSec(k, rng);
    std::optional<ecc::ExtendedHammingCode> secondary;
    if (with_secondary)
        secondary = ecc::ExtendedHammingCode::randomSecDed(k, rng);

    MemoryChip chip(code, kWords);
    MemoryController controller(chip, secondary ? &*secondary : nullptr);
    test::ReferenceMemorySystem ref(code, kWords, secondary);
    controller.setRepairCapacity(budget);
    ref.setRepairCapacity(budget);

    std::vector<fault::WordFaultModel> faults;
    for (std::size_t w = 0; w < kWords; ++w) {
        faults.push_back(faultsFor(w + seed, code, rng));
        // Pre-profile one of the word's data cells half the time, so
        // repair and its budget act from the first write.
        for (const fault::CellFault &cell : faults.back().faults())
            if (code.isDataPosition(cell.position) && rng.nextBelow(2)) {
                controller.profile().markAtRisk(w, cell.position);
                ref.profile().markAtRisk(w, cell.position);
                break;
            }
    }

    std::vector<double> uniforms;
    for (std::size_t step = 0; step < kSteps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const std::size_t w = rng.nextBelow(kWords);
        switch (rng.nextBelow(6)) {
          case 0: {
            const gf2::BitVector data = gf2::BitVector::random(k, rng);
            controller.write(w, data);
            ref.write(w, data);
            break;
          }
          case 1:
          case 2: {
            uniforms.resize(faults[w].numFaults());
            for (double &u : uniforms)
                u = rng.nextDouble();
            gf2::BitVector mask(chip.storedCodeword(w).size());
            faults[w].injectErrorsCrn(chip.storedCodeword(w), uniforms,
                                      mask);
            chip.corrupt(w, mask);
            ref.corrupt(w, mask);
            break;
          }
          case 3:
            expectSameRead(controller.read(w), ref.read(w));
            break;
          case 4:
            EXPECT_EQ(controller.readRaw(w), ref.readRaw(w));
            expectSameRead(controller.scrub(w), ref.scrub(w));
            break;
          default:
            EXPECT_EQ(controller.scrubAll(), ref.scrubAll());
            break;
        }
        expectSameState(chip, controller, ref);
        if (::testing::Test::HasFailure())
            return;
    }
    const ControllerStats &s = controller.stats();
    cov.corrections += s.secondaryCorrections;
    cov.uncorrectable += s.uncorrectableEvents;
    cov.identifications += s.reactiveIdentifications;
    cov.repaired += s.repairedBits;
    cov.writebacks += s.scrubWritebacks;
    cov.dropped += controller.repairMechanism().droppedAllocations();
}

class ReadChainReference
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ReadChainReference, MatchesBitAtATimeChain)
{
    const std::size_t k = GetParam();
    Coverage cov;
    for (const std::size_t budget :
         {std::size_t{0}, std::size_t{2}, RepairMechanism::kUnlimited}) {
        for (const bool with_secondary : {true, false}) {
            SCOPED_TRACE("budget " + std::to_string(budget) +
                         (with_secondary ? " secded" : " no secded"));
            test::forEachSeed(
                12,
                [&](std::uint64_t seed, common::Xoshiro256 &rng) {
                    runLockstep(k, budget, with_secondary, seed, rng, cov);
                },
                0x4D454D ^ k);
        }
    }
    // The sweep reaches every branch of the chain.
    EXPECT_GT(cov.corrections, 0u);
    EXPECT_GT(cov.uncorrectable, 0u);
    EXPECT_GT(cov.identifications, 0u);
    EXPECT_GT(cov.repaired, 0u);
    EXPECT_GT(cov.writebacks, 0u);
    EXPECT_GT(cov.dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(CodeLengths, ReadChainReference,
                         ::testing::Values(16, 64, 128),
                         [](const auto &info) {
                             return "k" + std::to_string(info.param);
                         });

} // namespace
} // namespace harp::mem
