#include "support/at_risk_reference.hh"

#include <set>

#include "fault/cell.hh"
#include "gf2/linear_solver.hh"

namespace harp::test {

ReferenceAtRiskAnalyzer::ReferenceAtRiskAnalyzer(
    const ecc::HammingCode &code, const fault::WordFaultModel &faults)
    : code_(code),
      faults_(faults),
      cells_(faults.faults()),
      directAtRisk_(code.k()),
      indirectAtRisk_(code.k()),
      postCorrectionAtRisk_(code.k())
{
    for (const fault::CellFault &f : cells_)
        if (code_.isDataPosition(f.position))
            directAtRisk_.set(f.position, true);

    const std::size_t m = cells_.size();
    for (std::uint32_t mask = 1; mask < (std::uint32_t{1} << m); ++mask) {
        if (!feasible(mask))
            continue;
        core::ErrorPatternOutcome outcome = computeOutcome(mask);
        for (const std::uint16_t pos : outcome.postErrors) {
            postCorrectionAtRisk_.set(pos, true);
            if (outcome.correctedPosition &&
                *outcome.correctedPosition == pos) {
                indirectAtRisk_.set(pos, true);
            }
        }
        outcomes_.push_back(std::move(outcome));
    }
}

core::ErrorPatternOutcome
ReferenceAtRiskAnalyzer::computeOutcome(std::uint32_t mask) const
{
    core::ErrorPatternOutcome outcome;
    outcome.failingMask = mask;

    std::uint32_t syndrome = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i)
        if ((mask >> i) & 1)
            syndrome ^= code_.codewordColumn(cells_[i].position);
    outcome.syndrome = syndrome;

    std::set<std::uint16_t> errors;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (((mask >> i) & 1) == 0)
            continue;
        const std::size_t pos = cells_[i].position;
        if (code_.isDataPosition(pos))
            errors.insert(static_cast<std::uint16_t>(pos));
    }
    if (syndrome != 0) {
        const auto corrected = code_.syndromeToPosition(syndrome);
        outcome.correctedPosition = corrected;
        if (corrected && code_.isDataPosition(*corrected)) {
            const auto pos = static_cast<std::uint16_t>(*corrected);
            if (errors.count(pos))
                errors.erase(pos);
            else
                errors.insert(pos);
        }
    }
    outcome.postErrors.assign(errors.begin(), errors.end());
    return outcome;
}

bool
ReferenceAtRiskAnalyzer::feasible(std::uint32_t mask) const
{
    const bool charged_value =
        faults_.technology() == fault::CellTechnology::TrueCell;
    gf2::ConstraintSystem cs(code_.k());
    auto constrain = [&](std::size_t cell, bool charged) {
        const bool stored = charged == charged_value;
        if (code_.isDataPosition(cell)) {
            cs.pinVariable(cell, stored);
        } else {
            cs.addConstraint(code_.parityRow(cell - code_.k()), stored);
        }
    };
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if ((mask >> i) & 1)
            constrain(cells_[i].position, true);
        else if (cells_[i].probability >= 1.0)
            constrain(cells_[i].position, false);
    }
    return cs.consistent();
}

std::vector<double>
ReferenceAtRiskAnalyzer::perBitErrorProbability(
    const gf2::BitVector &dataword) const
{
    const gf2::BitVector codeword = code_.encode(dataword);

    std::vector<std::size_t> charged_idx;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (fault::isCharged(faults_.technology(),
                             codeword.get(cells_[i].position)))
            charged_idx.push_back(i);
    }

    std::vector<double> prob(code_.k(), 0.0);
    const std::size_t m = charged_idx.size();
    for (std::uint32_t sub = 1; sub < (std::uint32_t{1} << m); ++sub) {
        double weight = 1.0;
        std::uint32_t full_mask = 0;
        for (std::size_t i = 0; i < m; ++i) {
            const fault::CellFault &cell = cells_[charged_idx[i]];
            if ((sub >> i) & 1) {
                weight *= cell.probability;
                full_mask |= std::uint32_t{1} << charged_idx[i];
            } else {
                weight *= 1.0 - cell.probability;
            }
        }
        if (weight == 0.0)
            continue;
        const core::ErrorPatternOutcome outcome = computeOutcome(full_mask);
        for (const std::uint16_t pos : outcome.postErrors)
            prob[pos] += weight;
    }
    return prob;
}

} // namespace harp::test
