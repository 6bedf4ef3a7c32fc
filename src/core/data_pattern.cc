#include "core/data_pattern.hh"

#include <stdexcept>

namespace harp::core {

PatternKind
patternKindFromName(const std::string &name)
{
    if (name == "random")
        return PatternKind::Random;
    if (name == "charged")
        return PatternKind::Charged;
    if (name == "checkered")
        return PatternKind::Checkered;
    throw std::invalid_argument("unknown pattern kind: " + name);
}

PatternGenerator::PatternGenerator(PatternKind kind, std::size_t k,
                                   std::uint64_t seed)
    : kind_(kind), k_(k), rng_(seed), base_(k)
{
    switch (kind_) {
      case PatternKind::Random:
        // Base refreshed lazily in patternView().
        break;
      case PatternKind::Charged:
        base_.fill(true);
        break;
      case PatternKind::Checkered:
        for (std::size_t i = 0; i < k_; ++i)
            base_.set(i, (i % 2) == 0);
        break;
    }
}

} // namespace harp::core
