/**
 * @file
 * Obviously-correct reference for core::AtRiskAnalyzer: the same
 * enumeration, but each pattern's feasibility is decided by building and
 * eliminating a fresh gf2::ConstraintSystem, and each outcome's
 * post-correction errors go through a std::set. The production analyzer
 * decides feasibility from the rows' left nullspace instead; the
 * property tests require the two to agree field for field.
 */

#ifndef HARP_TESTS_SUPPORT_AT_RISK_REFERENCE_HH
#define HARP_TESTS_SUPPORT_AT_RISK_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "core/at_risk_analyzer.hh"

namespace harp::test {

/** Per-subset-elimination ground truth for one (code, fault model). */
class ReferenceAtRiskAnalyzer
{
  public:
    ReferenceAtRiskAnalyzer(const ecc::HammingCode &code,
                            const fault::WordFaultModel &faults);

    /** Every feasible failing pattern, in ascending mask order. */
    const std::vector<core::ErrorPatternOutcome> &outcomes() const
    {
        return outcomes_;
    }

    const gf2::BitVector &directAtRisk() const { return directAtRisk_; }
    const gf2::BitVector &indirectAtRisk() const { return indirectAtRisk_; }
    const gf2::BitVector &postCorrectionAtRisk() const
    {
        return postCorrectionAtRisk_;
    }

    /** Same subset order and product order as the production analyzer,
     *  so the doubles must match bit for bit. */
    std::vector<double>
    perBitErrorProbability(const gf2::BitVector &dataword) const;

  private:
    /** True iff some dataword charges exactly the cells that must fail
     *  (members of @p mask) while discharging at-risk cells that would
     *  otherwise fail deterministically (probability-1 cells outside
     *  @p mask). */
    bool feasible(std::uint32_t mask) const;

    core::ErrorPatternOutcome computeOutcome(std::uint32_t mask) const;

    const ecc::HammingCode &code_;
    const fault::WordFaultModel &faults_;
    std::vector<fault::CellFault> cells_;

    std::vector<core::ErrorPatternOutcome> outcomes_;
    gf2::BitVector directAtRisk_;
    gf2::BitVector indirectAtRisk_;
    gf2::BitVector postCorrectionAtRisk_;
};

} // namespace harp::test

#endif // HARP_TESTS_SUPPORT_AT_RISK_REFERENCE_HH
