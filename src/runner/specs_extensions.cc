/**
 * @file
 * Experiment specs for the extension studies beyond the paper's
 * evaluation: stronger (t-error-correcting) on-die ECC — both the
 * exact small-word bound study and the Monte-Carlo `bch_t_sweep` on
 * the sliced profiling path — low-probability errors vs. the
 * active phase, and secondary ECC words interleaved across on-die
 * words.
 */

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/at_risk_analyzer.hh"
#include "core/data_pattern.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/profile_words.hh"
#include "ecc/bch_general.hh"
#include "ecc/extended_hamming_code.hh"
#include "ecc/hamming_code.hh"
#include "fault/fault_model.hh"
#include "runner/registry.hh"
#include "runner/sweeps.hh"

namespace harp::runner {

namespace {

using namespace harp;

/** The `words` knob: zero simulated words would report full coverage
 *  and a respected bound from no evidence at all. */
std::size_t
wordsFromContext(const RunContext &ctx)
{
    const std::size_t words = ctx.getCount("words");
    if (words == 0)
        throw std::invalid_argument("words must be at least 1");
    return words;
}

/**
 * Ground truth by enumeration of feasible failing subsets (the
 * analyzer's rule, core::PatternFeasibility) through the general
 * decoder (<= 2^numFaults subsets): the worst simultaneous
 * post-correction data errors over any subset, in total and restricted
 * to positions where @p unprofiled says the profile misses. Throws
 * std::invalid_argument past AtRiskAnalyzer's default enumeration
 * guard (the cell count comes from the `pre_errors` override).
 *
 * @return {worst total errors, worst unprofiled errors}.
 */
std::pair<std::size_t, std::size_t>
worstFeasibleErrors(const ecc::BchCode &code,
                    const fault::WordFaultModel &fm,
                    const std::function<bool(std::size_t)> &unprofiled)
{
    if (fm.numFaults() > core::AtRiskAnalyzer::defaultMaxCells)
        throw std::invalid_argument(
            "pre_errors " + std::to_string(fm.numFaults()) +
            " exceeds the ground-truth enumeration limit of " +
            std::to_string(core::AtRiskAnalyzer::defaultMaxCells) +
            " at-risk cells per word");
    const core::PatternFeasibility feasibility(code, fm);
    std::size_t worst_total = 0, worst_unprofiled = 0;
    for (std::uint32_t mask = 1;
         mask < (std::uint32_t{1} << fm.numFaults()); ++mask) {
        if (!feasibility.feasible(mask))
            continue;
        std::vector<std::size_t> failing;
        for (std::size_t i = 0; i < fm.numFaults(); ++i)
            if ((mask >> i) & 1)
                failing.push_back(fm.faults()[i].position);
        const auto errors = code.decodeErrorPattern(failing);
        worst_total = std::max(worst_total, errors.size());
        std::size_t count = 0;
        for (const std::size_t e : errors)
            if (unprofiled(e))
                ++count;
        worst_unprofiled = std::max(worst_unprofiled, count);
    }
    return {worst_total, worst_unprofiled};
}

/**
 * Generalization of the paper's key bound (section 6.3.2): with a
 * t-error-correcting on-die code and all direct-at-risk bits profiled,
 * at most t simultaneous post-correction errors remain possible. The
 * original bench evaluated t = 2 with the closed-form DEC decoder plus
 * a Berlekamp-Massey sweep; this spec sweeps t uniformly through the
 * general BCH decoder.
 */
ExperimentSpec
makeDecOnDieEcc()
{
    ExperimentSpec spec;
    spec.name = "extension_dec_on_die_ecc";
    spec.description =
        "HARP under t-error-correcting on-die BCH ECC: secondary-ECC "
        "bound equals t";
    spec.labels = {"bench", "extension"};

    ParamAxis t_axis{"on_die_t", {}};
    for (const std::size_t t : {1, 2, 3})
        t_axis.values.emplace_back(t);
    ParamAxis n_axis{"pre_errors", {}};
    for (const std::size_t n : {2, 3, 4, 5, 6})
        n_axis.values.emplace_back(n);
    spec.grid = ParamGrid({t_axis, n_axis});

    spec.tunables = {
        {"k", 64, "dataword length of the on-die BCH code"},
        {"words", 120, "simulated ECC words per point"},
        {"rounds", 128, "HARP active-profiling rounds"},
    };
    spec.schema = {
        {"code", JsonType::String, "(n,k) of the on-die BCH code"},
        {"max_simul_no_profile", JsonType::Int,
         "worst simultaneous post-correction errors with an empty "
         "profile"},
        {"max_simul_direct_profile", JsonType::Int,
         "worst simultaneous unprofiled errors once every direct bit is "
         "profiled"},
        {"bound_respected", JsonType::Bool,
         "max_simul_direct_profile <= t (the generalized HARP bound)"},
        {"words_unsafe_with_sec_secondary", JsonType::Int,
         "words where a single-error-correcting secondary ECC is "
         "insufficient"},
        {"words_unsafe_with_matched_secondary", JsonType::Int,
         "words where even a t-error-correcting secondary is "
         "insufficient (expect 0)"},
        {"harp_full_direct_coverage", JsonType::Int,
         "words whose HARP-U active phase identified every direct bit"},
        {"words", JsonType::Int, "simulated words"},
    };
    spec.run = [](const RunContext &ctx) {
        const auto t = ctx.getCount("on_die_t");
        const auto n = ctx.getCount("pre_errors");
        const auto k = ctx.getCount("k");
        const auto words = wordsFromContext(ctx);
        const auto rounds = ctx.getCount("rounds");
        const ecc::BchCode code(k, t);

        std::size_t worst_empty_all = 0, worst_direct_all = 0;
        std::size_t unsafe_sec = 0, unsafe_matched = 0, full_coverage = 0;

        for (std::size_t w = 0; w < words; ++w) {
            common::Xoshiro256 fault_rng(
                common::deriveSeed(ctx.seed(), {0xFA17u, n, w}));
            const fault::WordFaultModel fm =
                fault::WordFaultModel::makeUniformFixedCount(code.n(), n,
                                                             0.5,
                                                             fault_rng);
            std::set<std::size_t> direct;
            for (const fault::CellFault &f : fm.faults())
                if (f.position < code.k())
                    direct.insert(f.position);

            const auto [worst_empty, worst_direct] = worstFeasibleErrors(
                code, fm,
                [&direct](std::size_t e) { return direct.count(e) == 0; });
            worst_empty_all = std::max(worst_empty_all, worst_empty);
            worst_direct_all = std::max(worst_direct_all, worst_direct);
            if (worst_direct > 1)
                ++unsafe_sec;
            if (worst_direct > t)
                ++unsafe_matched; // the generalized bound says: never

            // HARP-U active phase: bypass reads are ECC-agnostic, so
            // coverage behaviour matches the SEC case.
            core::PatternGenerator patterns(
                core::PatternKind::Random, code.k(),
                common::deriveSeed(ctx.seed(), {0xACE5u, n, w}));
            common::Xoshiro256 inject_rng(
                common::deriveSeed(ctx.seed(), {0x113Cu, n, w}));
            gf2::BitVector identified(code.k());
            for (std::size_t r = 0; r < rounds; ++r) {
                const gf2::BitVector &d = patterns.patternView(r);
                const gf2::BitVector stored = code.encode(d);
                gf2::BitVector received = stored;
                received ^= fm.injectErrors(stored, inject_rng);
                gf2::BitVector raw = received.slice(0, code.k());
                raw ^= d;
                identified |= raw;
            }
            bool covered = true;
            for (const std::size_t pos : direct)
                covered = covered && identified.get(pos);
            if (covered)
                ++full_coverage;
        }

        JsonValue metrics = JsonValue::object();
        metrics.set("code", JsonValue("(" + std::to_string(code.n()) +
                                      "," + std::to_string(code.k()) +
                                      ")"));
        metrics.set("max_simul_no_profile", JsonValue(worst_empty_all));
        metrics.set("max_simul_direct_profile",
                    JsonValue(worst_direct_all));
        metrics.set("bound_respected", JsonValue(worst_direct_all <= t));
        metrics.set("words_unsafe_with_sec_secondary",
                    JsonValue(unsafe_sec));
        metrics.set("words_unsafe_with_matched_secondary",
                    JsonValue(unsafe_matched));
        metrics.set("harp_full_direct_coverage", JsonValue(full_coverage));
        metrics.set("words", JsonValue(words));
        return metrics;
    };
    return spec;
}

/**
 * Monte-Carlo sweep of the on-die code's correction capability t
 * through the round engines: the scaling study HARP section 6.3.2
 * sketches ("significantly more complex on-die ECC"), on the same
 * sliced profiling path as the coverage experiments. The sliced
 * engine runs the BCH datapath through ecc::SlicedBchCode (masked
 * XOR parity/syndromes + memoized correction), bit-identical to the
 * scalar Berlekamp-Massey decoder.
 */
ExperimentSpec
makeBchTSweep()
{
    ExperimentSpec spec;
    spec.name = "bch_t_sweep";
    spec.description =
        "Profiler coverage and worst-case unprofiled errors under "
        "t-error-correcting on-die BCH, t swept through the general "
        "decoder";
    spec.labels = {"bench", "extension"};

    ParamAxis t_axis{"on_die_t", {}};
    for (const std::size_t t : {1, 2, 3})
        t_axis.values.emplace_back(t);
    ParamAxis n_axis{"pre_errors", {}};
    for (const std::size_t n : {2, 3, 4, 5})
        n_axis.values.emplace_back(n);
    spec.grid = ParamGrid({t_axis, n_axis});

    spec.tunables = {
        {"k", 64, "dataword length of the on-die BCH code"},
        {"words", 64, "simulated ECC words per point"},
        {"rounds", 64, "active-profiling rounds"},
        {"prob", 0.5, "per-bit failure probability of at-risk cells"},
    };
    spec.schema = {
        {"code", JsonType::String, "(n,k) of the on-die BCH code"},
        {"words", JsonType::Int, "simulated words"},
        {"rounds", JsonType::Int, "profiling rounds per word"},
        {"naive_direct_coverage", JsonType::Double,
         "Naive: identified direct bits / ground-truth direct bits"},
        {"harpu_direct_coverage", JsonType::Double,
         "HARP-U: identified direct bits / ground-truth direct bits"},
        {"harpu_full_direct_words", JsonType::Int,
         "words whose HARP-U profile covers every direct bit"},
        {"max_simul_no_profile", JsonType::Int,
         "worst simultaneous post-correction errors with an empty "
         "profile"},
        {"max_simul_harpu_profile", JsonType::Int,
         "worst simultaneous unprofiled errors under the HARP-U "
         "profile"},
        {"bound_respected", JsonType::Bool,
         "every fully-covered word leaves <= t simultaneous unprofiled "
         "errors (the generalized HARP bound)"},
    };
    spec.run = [](const RunContext &ctx) {
        const auto t = ctx.getCount("on_die_t");
        const auto n_errors = ctx.getCount("pre_errors");
        const auto k = ctx.getCount("k");
        const auto words = wordsFromContext(ctx);
        const auto rounds = ctx.getCount("rounds");
        const double prob = ctx.getDouble("prob");

        const ecc::BchCode code(k, t);

        // Per-word state with the standard per-word seed derivations.
        struct SweepWord
        {
            fault::WordFaultModel faults;
            std::uint64_t seed;
            std::unique_ptr<core::NaiveProfiler> naive;
            std::unique_ptr<core::HarpUProfiler> harp;

            core::WordInputs inputs() const
            {
                return {nullptr, &faults, seed, {naive.get(), harp.get()}};
            }
        };
        const core::WordRun run{words, rounds, core::PatternKind::Random,
                                ctx.threads(), &code};
        const auto make = [&](std::size_t w) {
            common::Xoshiro256 fault_rng(
                common::deriveSeed(ctx.seed(), {0xFA17u, w}));
            return std::make_unique<SweepWord>(SweepWord{
                fault::WordFaultModel::makeUniformFixedCount(
                    code.n(), n_errors, prob, fault_rng),
                common::deriveSeed(ctx.seed(), {0xE221u, w}),
                std::make_unique<core::NaiveProfiler>(code.k()),
                std::make_unique<core::HarpUProfiler>(code.k())});
        };

        // Ground truth per word by enumeration of feasible failing
        // subsets through the general decoder (<= 2^pre_errors).
        std::size_t direct_total = 0;
        std::size_t naive_found = 0, harp_found = 0;
        std::size_t full_words = 0;
        std::size_t worst_empty_all = 0, worst_harp_all = 0;
        bool bound_respected = true;
        core::profileWords<SweepWord>(run, make, nullptr, [&](SweepWord &sim) {
            std::set<std::size_t> direct;
            for (const fault::CellFault &f : sim.faults.faults())
                if (f.position < code.k())
                    direct.insert(f.position);
            direct_total += direct.size();
            bool full = true;
            for (const std::size_t pos : direct) {
                naive_found += sim.naive->identified().get(pos) ? 1 : 0;
                const bool harp_hit = sim.harp->identified().get(pos);
                harp_found += harp_hit ? 1 : 0;
                full = full && harp_hit;
            }
            if (full)
                ++full_words;

            const auto [worst_empty, worst_harp] = worstFeasibleErrors(
                code, sim.faults, [&sim](std::size_t e) {
                    return !sim.harp->identified().get(e);
                });
            worst_empty_all = std::max(worst_empty_all, worst_empty);
            worst_harp_all = std::max(worst_harp_all, worst_harp);
            if (full && worst_harp > t)
                bound_respected = false;
        });

        JsonValue metrics = JsonValue::object();
        metrics.set("code", JsonValue("(" + std::to_string(code.n()) +
                                      "," + std::to_string(code.k()) +
                                      ")"));
        metrics.set("words", JsonValue(words));
        metrics.set("rounds", JsonValue(rounds));
        metrics.set(
            "naive_direct_coverage",
            JsonValue(direct_total == 0
                          ? 1.0
                          : static_cast<double>(naive_found) /
                                static_cast<double>(direct_total)));
        metrics.set(
            "harpu_direct_coverage",
            JsonValue(direct_total == 0
                          ? 1.0
                          : static_cast<double>(harp_found) /
                                static_cast<double>(direct_total)));
        metrics.set("harpu_full_direct_words", JsonValue(full_words));
        metrics.set("max_simul_no_profile", JsonValue(worst_empty_all));
        metrics.set("max_simul_harpu_profile", JsonValue(worst_harp_all));
        metrics.set("bound_respected", JsonValue(bound_respected));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeLowProbability()
{
    ExperimentSpec spec;
    spec.name = "extension_low_probability";
    spec.description =
        "Low-probability at-risk cells evading HARP's active phase";
    spec.labels = {"bench", "extension"};

    ParamAxis p_low{"p_low", {0.1, 0.02, 0.004}};
    ParamAxis rounds{"rounds",
                     {std::size_t{128}, std::size_t{512},
                      std::size_t{2048}}};
    spec.grid = ParamGrid({p_low, rounds});

    spec.tunables = {
        {"words", 150, "simulated ECC words per point"},
        {"normal_cells", 3, "at-risk cells at p = 0.5 per word"},
        {"low_cells", 2, "low-probability at-risk cells per word"},
    };
    spec.schema = {
        {"direct_coverage", JsonType::Double,
         "identified direct bits / ground-truth direct bits"},
        {"missed_direct_bits", JsonType::Int,
         "direct bits unidentified after the budget"},
        {"words_unsafe_for_sec_secondary", JsonType::Int,
         "words where >1 simultaneous unprofiled error stays possible"},
        {"words", JsonType::Int, "simulated words"},
    };
    spec.run = [](const RunContext &ctx) {
        const double p_low_v = ctx.getDouble("p_low");
        const auto rounds_v = ctx.getCount("rounds");
        const auto words = wordsFromContext(ctx);
        const auto n_normal = ctx.getCount("normal_cells");
        const auto n_low = ctx.getCount("low_cells");

        // Per-word codes (equal k) and seed derivations.
        struct TierWord
        {
            ecc::HammingCode code;
            fault::WordFaultModel faults;
            std::uint64_t seed;
            std::unique_ptr<core::HarpUProfiler> harp;

            core::WordInputs inputs() const
            {
                return {&code, &faults, seed, {harp.get()}};
            }
        };
        const core::WordRun run{words, rounds_v, core::PatternKind::Random,
                                ctx.threads()};
        const auto make = [&](std::size_t w) {
            common::Xoshiro256 code_rng(
                common::deriveSeed(ctx.seed(), {0xC0DEu, w}));
            ecc::HammingCode code = ecc::HammingCode::randomSec(64, code_rng);

            // Mixed fault model: distinct positions, two tiers.
            common::Xoshiro256 fault_rng(common::deriveSeed(
                ctx.seed(),
                {0xFA17u, w, static_cast<std::uint64_t>(p_low_v * 1e6)}));
            std::vector<fault::CellFault> cells =
                fault::WordFaultModel::makeUniformFixedCount(
                    code.n(), n_normal + n_low, 0.5, fault_rng)
                    .faults();
            for (std::size_t i = 0; i < cells.size(); ++i)
                cells[i].probability = i < n_normal ? 0.5 : p_low_v;
            fault::WordFaultModel faults(code.n(), cells);
            return std::make_unique<TierWord>(TierWord{
                std::move(code), std::move(faults),
                common::deriveSeed(ctx.seed(), {0xE221u, w, rounds_v}),
                std::make_unique<core::HarpUProfiler>(64)});
        };

        std::size_t direct_total = 0, direct_found = 0;
        std::size_t missed_bits = 0, unsafe_words = 0;
        core::profileWords<TierWord>(run, make, nullptr, [&](TierWord &sim) {
            const core::AtRiskAnalyzer analyzer(sim.code, sim.faults);
            const std::size_t total = analyzer.directAtRisk().popcount();
            const std::size_t found =
                sim.harp->identified().intersectionCount(
                    analyzer.directAtRisk());
            direct_total += total;
            direct_found += found;
            missed_bits += total - found;
            if (analyzer.maxSimultaneousErrors(sim.harp->identified()) > 1)
                ++unsafe_words;
        });

        JsonValue metrics = JsonValue::object();
        metrics.set("direct_coverage",
                    JsonValue(direct_total == 0
                                  ? 1.0
                                  : static_cast<double>(direct_found) /
                                        static_cast<double>(direct_total)));
        metrics.set("missed_direct_bits", JsonValue(missed_bits));
        metrics.set("words_unsafe_for_sec_secondary",
                    JsonValue(unsafe_words));
        metrics.set("words", JsonValue(words));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeSecondaryInterleaving()
{
    ExperimentSpec spec;
    spec.name = "extension_secondary_interleaving";
    spec.description =
        "Secondary ECC word interleaved across two on-die words: SECDED "
        "vs. DEC BCH";
    spec.labels = {"bench", "extension"};
    // No sweep: one end-to-end configuration, scaled by tunables.
    spec.grid = ParamGrid();

    spec.tunables = {
        {"pairs", 40, "pairs of on-die (71,64) words"},
        {"accesses", 2000, "accesses simulated per pair"},
        {"prob", 0.5, "per-bit failure probability of at-risk cells"},
        {"pre_errors", 4, "at-risk cells per on-die word"},
    };
    spec.schema = {
        {"accesses_total", JsonType::Int, "pairs x accesses"},
        {"single_indirect", JsonType::Int,
         "accesses with exactly 1 residual (indirect) error"},
        {"double_indirect", JsonType::Int,
         "accesses with >= 2 residual errors (interleaving hazard)"},
        {"secded_uncorrectable", JsonType::Int,
         "SECDED secondary: detected-uncorrectable events"},
        {"secded_wrong", JsonType::Int,
         "SECDED secondary: silently wrong data"},
        {"bch_failures", JsonType::Int,
         "DEC BCH secondary: any failure (expect 0)"},
    };
    spec.run = [](const RunContext &ctx) {
        const auto pairs = ctx.getCount("pairs");
        const auto accesses = ctx.getCount("accesses");
        const double prob = ctx.getDouble("prob");
        const auto n_cells = ctx.getCount("pre_errors");

        common::Xoshiro256 setup_rng(ctx.seed());
        const ecc::ExtendedHammingCode secded =
            ecc::ExtendedHammingCode::randomSecDed(128, setup_rng);
        const ecc::BchCode bch(128, 2);
        gf2::BitVector bch_codeword(bch.n());
        ecc::BchGeneralDecodeResult bch_result;

        std::size_t single_indirect = 0, double_indirect = 0;
        std::size_t secded_uncorrectable = 0, secded_wrong = 0;
        std::size_t bch_failures = 0;

        for (std::size_t pair = 0; pair < pairs; ++pair) {
            // Two independent on-die words with full HARP direct
            // profiles.
            std::vector<ecc::HammingCode> codes;
            std::vector<fault::WordFaultModel> faults;
            std::vector<gf2::BitVector> profiles;
            for (std::size_t w = 0; w < 2; ++w) {
                common::Xoshiro256 rng(
                    common::deriveSeed(ctx.seed(), {pair, w, 0xC0DEu}));
                codes.push_back(ecc::HammingCode::randomSec(64, rng));
                common::Xoshiro256 frng(
                    common::deriveSeed(ctx.seed(), {pair, w, 0xFA17u}));
                faults.push_back(
                    fault::WordFaultModel::makeUniformFixedCount(
                        codes[w].n(), n_cells, prob, frng));
                const core::AtRiskAnalyzer analyzer(codes[w], faults[w]);
                profiles.push_back(analyzer.directAtRisk());
            }

            common::Xoshiro256 access_rng(
                common::deriveSeed(ctx.seed(), {pair, 0xACCE55u}));
            for (std::size_t a = 0; a < accesses; ++a) {
                if (a % 4096 == 0 && ctx.cancelled())
                    throw JobCancelled();
                // Fresh write + retention + read per on-die word, with
                // the ideal repair masking every profiled (direct) bit.
                gf2::BitVector joined_written(128);
                gf2::BitVector joined_read(128);
                std::size_t residual_errors = 0;
                for (std::size_t w = 0; w < 2; ++w) {
                    const gf2::BitVector d =
                        gf2::BitVector::random(64, access_rng);
                    const gf2::BitVector stored = codes[w].encode(d);
                    gf2::BitVector received = stored;
                    received ^=
                        faults[w].injectErrors(stored, access_rng);
                    gf2::BitVector post =
                        codes[w].decode(received).dataword;
                    profiles[w].forEachSetBit([&](std::size_t bit) {
                        post.set(bit, d.get(bit));
                    });
                    for (std::size_t i = 0; i < 64; ++i) {
                        joined_written.set(w * 64 + i, d.get(i));
                        joined_read.set(w * 64 + i, post.get(i));
                        residual_errors +=
                            (post.get(i) != d.get(i)) ? 1 : 0;
                    }
                }
                if (residual_errors == 1)
                    ++single_indirect;
                if (residual_errors >= 2)
                    ++double_indirect;
                if (residual_errors == 0)
                    continue;

                // SECDED secondary over the interleaved 128-bit word.
                {
                    const gf2::BitVector check =
                        secded.encode(joined_written)
                            .slice(128, secded.n());
                    gf2::BitVector codeword(secded.n());
                    for (std::size_t i = 0; i < 128; ++i)
                        codeword.set(i, joined_read.get(i));
                    for (std::size_t i = 0; i < check.size(); ++i)
                        codeword.set(128 + i, check.get(i));
                    const ecc::SecondaryDecodeResult r =
                        secded.decode(codeword);
                    if (r.status == ecc::SecondaryDecodeStatus::
                                        DetectedUncorrectable)
                        ++secded_uncorrectable;
                    else if (!(r.dataword == joined_written))
                        ++secded_wrong;
                }
                // DEC BCH secondary over the same word: the check bits
                // of the written data, the data bits as read.
                bch.encodeInto(joined_written, bch_codeword);
                for (std::size_t i = 0; i < 128; ++i)
                    bch_codeword.set(i, joined_read.get(i));
                bch.decodeInto(bch_codeword, bch_result);
                if (bch_result.detectedUncorrectable ||
                    !(bch_result.dataword == joined_written))
                    ++bch_failures;
            }
        }

        JsonValue metrics = JsonValue::object();
        metrics.set("accesses_total", JsonValue(pairs * accesses));
        metrics.set("single_indirect", JsonValue(single_indirect));
        metrics.set("double_indirect", JsonValue(double_indirect));
        metrics.set("secded_uncorrectable",
                    JsonValue(secded_uncorrectable));
        metrics.set("secded_wrong", JsonValue(secded_wrong));
        metrics.set("bch_failures", JsonValue(bch_failures));
        return metrics;
    };
    return spec;
}

} // namespace

void
registerExtensionSpecs(Registry &registry)
{
    registry.add(makeDecOnDieEcc());
    registry.add(makeBchTSweep());
    registry.add(makeLowProbability());
    registry.add(makeSecondaryInterleaving());
}

} // namespace harp::runner
