#include "core/at_risk_analyzer.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace harp::core {

AtRiskAnalyzer::AtRiskAnalyzer(const ecc::HammingCode &code,
                               const fault::WordFaultModel &faults,
                               std::size_t max_cells)
    : code_(code),
      faults_(faults),
      cells_(faults.faults()),
      directAtRisk_(code.k()),
      indirectAtRisk_(code.k()),
      postCorrectionAtRisk_(code.k())
{
    if (faults_.wordBits() != code_.n())
        throw std::invalid_argument("AtRiskAnalyzer: fault model size");
    if (max_cells > 31)
        throw std::invalid_argument(
            "AtRiskAnalyzer: max_cells above the 31-cell pattern mask");
    if (cells_.size() > max_cells)
        throw std::invalid_argument(
            "AtRiskAnalyzer: too many at-risk cells to enumerate");

    for (const fault::CellFault &f : cells_)
        if (code_.isDataPosition(f.position))
            directAtRisk_.set(f.position, true);

    const PatternFeasibility feasibility(code_, faults_);
    const std::size_t m = cells_.size();
    for (std::uint32_t mask = 1; mask < (std::uint32_t{1} << m); ++mask) {
        if (!feasibility.feasible(mask))
            continue;
        ErrorPatternOutcome outcome = computeOutcome(mask);
        for (const std::uint16_t pos : outcome.postErrors) {
            postCorrectionAtRisk_.set(pos, true);
            // Indirect error: the decoder itself flipped this bit.
            if (outcome.correctedPosition &&
                *outcome.correctedPosition == pos) {
                indirectAtRisk_.set(pos, true);
            }
        }
        outcomes_.push_back(std::move(outcome));
    }
}

ErrorPatternOutcome
AtRiskAnalyzer::computeOutcome(std::uint32_t mask) const
{
    ErrorPatternOutcome outcome;
    outcome.failingMask = mask;

    // Syndrome of the failing pattern (XOR of member columns) and its
    // uncorrected direct errors, ascending since cells_ is sorted by
    // position...
    std::uint32_t syndrome = 0;
    std::vector<std::uint16_t> &errors = outcome.postErrors;
    errors.reserve(static_cast<std::size_t>(std::popcount(mask)) + 1);
    for (std::uint32_t rest = mask; rest != 0; rest &= rest - 1) {
        const std::size_t pos = cells_[std::countr_zero(rest)].position;
        syndrome ^= code_.codewordColumn(pos);
        if (code_.isDataPosition(pos))
            errors.push_back(static_cast<std::uint16_t>(pos));
    }
    outcome.syndrome = syndrome;
    // ... adjusted by whatever the decoder flips.
    if (syndrome != 0) {
        const auto corrected = code_.syndromeToPosition(syndrome);
        outcome.correctedPosition = corrected;
        if (corrected && code_.isDataPosition(*corrected)) {
            const auto pos = static_cast<std::uint16_t>(*corrected);
            const auto it =
                std::lower_bound(errors.begin(), errors.end(), pos);
            if (it != errors.end() && *it == pos)
                errors.erase(it); // genuine correction
            else
                errors.insert(it, pos); // miscorrection (indirect error)
        }
    }
    return outcome;
}

std::size_t
AtRiskAnalyzer::maxSimultaneousErrors(const gf2::BitVector &profile) const
{
    std::size_t max_count = 0;
    for (const ErrorPatternOutcome &outcome : outcomes_) {
        std::size_t count = 0;
        for (const std::uint16_t pos : outcome.postErrors)
            if (!profile.get(pos))
                ++count;
        max_count = std::max(max_count, count);
    }
    return max_count;
}

std::size_t
AtRiskAnalyzer::unsafeBitsAfterReactive(const gf2::BitVector &profile) const
{
    gf2::BitVector unsafe(code_.k());
    for (const ErrorPatternOutcome &outcome : outcomes_) {
        std::size_t count = 0;
        for (const std::uint16_t pos : outcome.postErrors)
            if (!profile.get(pos))
                ++count;
        if (count < 2)
            continue; // a single residual error is absorbed by the
                      // secondary SEC and reactively profiled
        for (const std::uint16_t pos : outcome.postErrors)
            if (!profile.get(pos))
                unsafe.set(pos, true);
    }
    return unsafe.popcount();
}

std::size_t
AtRiskAnalyzer::unidentifiedAtRisk(const gf2::BitVector &profile) const
{
    return postCorrectionAtRisk_.popcount() -
           postCorrectionAtRisk_.intersectionCount(profile);
}

std::vector<double>
AtRiskAnalyzer::perBitErrorProbability(const gf2::BitVector &dataword) const
{
    const gf2::BitVector codeword = code_.encode(dataword);

    // Charged at-risk cells under this pattern, with their probabilities.
    std::vector<std::size_t> charged_idx;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (fault::isCharged(faults_.technology(),
                             codeword.get(cells_[i].position)))
            charged_idx.push_back(i);
    }

    std::vector<double> prob(code_.k(), 0.0);
    const std::size_t m = charged_idx.size();
    for (std::uint32_t sub = 1; sub < (std::uint32_t{1} << m); ++sub) {
        // Probability that exactly this subset of charged cells fails.
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
        const ErrorPatternOutcome outcome = computeOutcome(full_mask);
        for (const std::uint16_t pos : outcome.postErrors)
            prob[pos] += weight;
    }
    return prob;
}

} // namespace harp::core
