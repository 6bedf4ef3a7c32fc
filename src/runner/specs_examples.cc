/**
 * @file
 * Experiment specs for the example walkthroughs: the quickstart
 * profiling demo, BEER-style ECC reverse engineering, the end-to-end
 * retention case study on the full memory system, and the secondary-ECC
 * sizing walkthrough. The narrative versions of these flows live in
 * docs/ARCHITECTURE.md; here they are campaign experiments with
 * machine-readable results.
 */

#include <optional>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "core/at_risk_analyzer.hh"
#include "core/beep_profiler.hh"
#include "core/data_pattern.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/round_engine.hh"
#include "ecc/extended_hamming_code.hh"
#include "ecc/hamming_code.hh"
#include "gf2/linear_solver.hh"
#include "memsys/memory_controller.hh"
#include "runner/registry.hh"
#include "runner/sweeps.hh"
#include "sat/cnf_builder.hh"

namespace harp::runner {

namespace {

using namespace harp;

ExperimentSpec
makeQuickstart()
{
    ExperimentSpec spec;
    spec.name = "quickstart";
    spec.description =
        "HARP-U vs. Naive profiling of one simulated ECC word";
    spec.labels = {"example"};
    spec.grid = ParamGrid();
    spec.tunables = {
        {"rounds", 32, "profiling rounds"},
        {"pre_errors", 4, "at-risk cells in the word"},
        {"prob", 0.5, "per-bit failure probability of at-risk cells"},
    };
    spec.schema = {
        {"direct_at_risk", JsonType::Int, "ground-truth direct bits"},
        {"indirect_at_risk", JsonType::Int, "ground-truth indirect bits"},
        {"harp_direct_coverage", JsonType::Int,
         "direct bits HARP-U identified"},
        {"naive_direct_coverage", JsonType::Int,
         "direct bits Naive identified"},
        {"max_simultaneous_with_harp_profile", JsonType::Int,
         "simultaneous post-correction errors still possible under "
         "HARP-U's profile"},
    };
    spec.run = [](const RunContext &ctx) {
        const auto rounds = ctx.getCount("rounds");
        const auto pre_errors = ctx.getCount("pre_errors");
        const double prob = ctx.getDouble("prob");

        common::Xoshiro256 code_rng(ctx.seed());
        const ecc::HammingCode on_die =
            ecc::HammingCode::randomSec(64, code_rng);
        common::Xoshiro256 fault_rng(ctx.seed() + 1);
        const fault::WordFaultModel faults =
            fault::WordFaultModel::makeUniformFixedCount(
                on_die.n(), pre_errors, prob, fault_rng);

        core::NaiveProfiler naive(on_die.k());
        core::HarpUProfiler harp(on_die.k());
        core::RoundEngine engine(on_die, faults,
                                 core::PatternKind::Random,
                                 ctx.seed() + 2, {&naive, &harp});
        for (std::size_t r = 0; r < rounds; ++r)
            engine.runRound();

        const core::AtRiskAnalyzer analyzer(on_die, faults);
        const auto coverage = [&](const core::Profiler &p) {
            return p.identified().intersectionCount(analyzer.directAtRisk());
        };
        JsonValue metrics = JsonValue::object();
        metrics.set("direct_at_risk",
                    JsonValue(analyzer.directAtRisk().popcount()));
        metrics.set("indirect_at_risk",
                    JsonValue(analyzer.indirectAtRisk().popcount()));
        metrics.set("harp_direct_coverage", JsonValue(coverage(harp)));
        metrics.set("naive_direct_coverage", JsonValue(coverage(naive)));
        metrics.set(
            "max_simultaneous_with_harp_profile",
            JsonValue(analyzer.maxSimultaneousErrors(harp.identified())));
        return metrics;
    };
    return spec;
}

/** Oracle for one BEER retention experiment: exactly cells {i, j} fail;
 *  returns the observed post-correction error positions, or nullopt
 *  when no dataword can charge both cells. */
std::optional<std::vector<std::size_t>>
runPairExperiment(const ecc::HammingCode &code, std::size_t i,
                  std::size_t j)
{
    gf2::ConstraintSystem cs(code.k());
    for (const std::size_t cell : {i, j}) {
        if (cell < code.k())
            cs.pinVariable(cell, true);
        else
            cs.addConstraint(code.parityRow(cell - code.k()), true);
    }
    const auto pattern = cs.solveAny();
    if (!pattern)
        return std::nullopt;
    gf2::BitVector received = code.encode(*pattern);
    received.flip(i);
    received.flip(j);
    const ecc::DecodeResult decoded = code.decode(received);
    gf2::BitVector diff = decoded.dataword;
    diff ^= *pattern;
    return diff.setBits();
}

ExperimentSpec
makeBeerReverseEngineering()
{
    ExperimentSpec spec;
    spec.name = "beer_reverse_engineering";
    spec.description =
        "BEER: recover a hidden on-die SEC code from pair-failure "
        "experiments via SAT";
    spec.labels = {"example"};
    spec.grid = ParamGrid();
    spec.tunables = {
        {"k", 8, "dataword length of the hidden code (<= 16)"},
    };
    spec.schema = {
        {"experiments", JsonType::Int, "pair experiments run"},
        {"miscorrections", JsonType::Int,
         "experiments that exposed a miscorrection"},
        {"cnf_vars", JsonType::Int, "SAT variables"},
        {"cnf_clauses", JsonType::Int, "SAT clauses"},
        {"recovered_exact", JsonType::Bool,
         "recovered parity-check columns are bit-exact"},
        {"solution_unique", JsonType::Bool,
         "UNSAT after blocking the model (BEER's uniqueness check)"},
    };
    spec.run = [](const RunContext &ctx) {
        const auto k = ctx.getCount("k");
        if (k > 16)
            throw std::runtime_error(
                "beer_reverse_engineering supports k <= 16 (SAT "
                "instance size)");

        common::Xoshiro256 rng(ctx.seed());
        const ecc::HammingCode hidden =
            ecc::HammingCode::randomSec(k, rng);
        const std::size_t p = hidden.p();

        sat::CnfBuilder cnf;
        // x[c][b]: bit b of hidden data column c.
        std::vector<std::vector<sat::Var>> x(k);
        for (std::size_t c = 0; c < k; ++c)
            x[c] = cnf.newVars(p);
        const auto lit = [&](std::size_t c, std::size_t b) {
            return sat::Lit::make(x[c][b], true);
        };

        // Structural constraints: weight >= 2 and pairwise-distinct
        // columns (systematic code, no collision with identity parity
        // columns).
        for (std::size_t c = 0; c < k; ++c) {
            sat::Clause nonzero;
            for (std::size_t b = 0; b < p; ++b)
                nonzero.push_back(lit(c, b));
            cnf.addClause(nonzero);
            for (std::size_t b = 0; b < p; ++b) {
                sat::Clause not_weight1;
                not_weight1.push_back(~lit(c, b));
                for (std::size_t b2 = 0; b2 < p; ++b2)
                    if (b2 != b)
                        not_weight1.push_back(lit(c, b2));
                cnf.addClause(not_weight1);
            }
        }
        for (std::size_t c1 = 0; c1 < k; ++c1) {
            for (std::size_t c2 = c1 + 1; c2 < k; ++c2) {
                std::vector<sat::Lit> diffs;
                for (std::size_t b = 0; b < p; ++b) {
                    const sat::Var d = cnf.newVar();
                    cnf.addXor({lit(c1, b), lit(c2, b),
                                sat::Lit::make(d, true)},
                               false);
                    diffs.push_back(sat::Lit::make(d, true));
                }
                cnf.addClause(sat::Clause(diffs.begin(), diffs.end()));
            }
        }

        // Observation constraints from every pair experiment.
        std::size_t experiments = 0, miscorrections = 0;
        const auto column_known = [&](std::size_t cell) {
            return cell >= k; // parity columns are identity
        };
        for (std::size_t i = 0; i < hidden.n(); ++i) {
            for (std::size_t j = i + 1; j < hidden.n(); ++j) {
                const auto observed = runPairExperiment(hidden, i, j);
                if (!observed)
                    continue;
                ++experiments;
                std::vector<std::size_t> extras;
                for (const std::size_t e : *observed)
                    if (e != i && e != j)
                        extras.push_back(e);
                if (!extras.empty())
                    ++miscorrections;

                for (std::size_t b = 0; b < p; ++b) {
                    std::vector<sat::Lit> xor_lits;
                    bool constant = false;
                    for (const std::size_t cell : {i, j}) {
                        if (column_known(cell))
                            constant ^=
                                ((hidden.codewordColumn(cell) >> b) & 1) !=
                                0;
                        else
                            xor_lits.push_back(lit(cell, b));
                    }
                    if (!extras.empty()) {
                        // s == H[m]: per-bit equality.
                        const std::size_t m = extras.front();
                        xor_lits.push_back(lit(m, b));
                        cnf.addXor(xor_lits, constant);
                    }
                }
                if (extras.empty()) {
                    // No miscorrection: s differs from every other data
                    // column.
                    for (std::size_t c = 0; c < k; ++c) {
                        if (c == i || c == j)
                            continue;
                        std::vector<sat::Lit> diffs;
                        for (std::size_t b = 0; b < p; ++b) {
                            const sat::Var d = cnf.newVar();
                            std::vector<sat::Lit> xor_def;
                            bool constant = false;
                            for (const std::size_t cell : {i, j}) {
                                if (column_known(cell))
                                    constant ^=
                                        ((hidden.codewordColumn(cell) >>
                                          b) &
                                         1) != 0;
                                else
                                    xor_def.push_back(lit(cell, b));
                            }
                            xor_def.push_back(lit(c, b));
                            xor_def.push_back(sat::Lit::make(d, true));
                            cnf.addXor(xor_def, constant);
                            diffs.push_back(sat::Lit::make(d, true));
                        }
                        cnf.addClause(
                            sat::Clause(diffs.begin(), diffs.end()));
                    }
                }
            }
        }

        const std::size_t cnf_vars = cnf.solver().numVars();
        const std::size_t cnf_clauses = cnf.solver().numClauses();
        if (cnf.solver().solve() != sat::SolveResult::Sat)
            throw std::runtime_error(
                "BEER constraints UNSAT (should never happen)");
        std::vector<std::uint32_t> recovered(k, 0);
        for (std::size_t c = 0; c < k; ++c)
            for (std::size_t b = 0; b < p; ++b)
                if (cnf.solver().modelValue(x[c][b]))
                    recovered[c] |= std::uint32_t{1} << b;
        bool exact = true;
        for (std::size_t c = 0; c < k; ++c)
            exact = exact && (recovered[c] == hidden.dataColumn(c));

        // Uniqueness: block this model and ask again.
        sat::Clause blocking;
        for (std::size_t c = 0; c < k; ++c)
            for (std::size_t b = 0; b < p; ++b)
                blocking.push_back(sat::Lit::make(
                    x[c][b], !cnf.solver().modelValue(x[c][b])));
        cnf.addClause(blocking);
        const bool unique =
            cnf.solver().solve() == sat::SolveResult::Unsat;

        JsonValue metrics = JsonValue::object();
        metrics.set("experiments", JsonValue(experiments));
        metrics.set("miscorrections", JsonValue(miscorrections));
        metrics.set("cnf_vars", JsonValue(cnf_vars));
        metrics.set("cnf_clauses", JsonValue(cnf_clauses));
        metrics.set("recovered_exact", JsonValue(exact));
        metrics.set("solution_unique", JsonValue(unique));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeRetentionCaseStudy()
{
    ExperimentSpec spec;
    spec.name = "retention_case_study";
    spec.description =
        "End-to-end retention study on the full memory system "
        "(active + reactive phases)";
    spec.labels = {"example"};
    spec.grid = ParamGrid();
    spec.tunables = {
        {"words", 256, "ECC words in the chip"},
        {"rber", 0.01, "raw bit error rate of the retention regime"},
        {"prob", 0.5, "per-bit failure probability of at-risk cells"},
        {"active_rounds", 64, "active-profiling rounds per word"},
        {"accesses", 20000, "normal-operation accesses"},
    };
    spec.schema = {
        {"at_risk_cells", JsonType::Int, "ground-truth at-risk cells"},
        {"active_profiled", JsonType::Int,
         "bits profiled by the active phase"},
        {"secondary_corrections", JsonType::Int,
         "secondary-ECC corrections during normal operation"},
        {"reactive_identifications", JsonType::Int,
         "bits identified reactively"},
        {"repaired_bit_reads", JsonType::Int,
         "reads fixed by the repair mechanism"},
        {"scrubs", JsonType::Int, "patrol scrub passes"},
        {"scrub_writebacks", JsonType::Int, "scrub writebacks"},
        {"uncorrectable_events", JsonType::Int,
         "detected-uncorrectable reads (expect 0)"},
        {"silent_corruptions", JsonType::Int,
         "reads returning wrong data unnoticed (expect 0)"},
        {"repair_capacity_bits", JsonType::Int,
         "total profile size consumed"},
        {"repair_capacity_fraction", JsonType::Double,
         "profile size / data capacity"},
    };
    spec.run = [](const RunContext &ctx) {
        const auto num_words = ctx.getCount("words");
        // The access loop draws words and scrub slots modulo num_words.
        if (num_words == 0)
            throw std::invalid_argument(
                "retention_case_study: words must be at least 1");
        const double rber = ctx.getDouble("rber");
        const double prob = ctx.getDouble("prob");
        const auto active_rounds = ctx.getCount("active_rounds");
        const auto accesses = ctx.getCount("accesses");
        const std::uint64_t seed = ctx.seed();

        common::Xoshiro256 code_rng(seed);
        const ecc::HammingCode on_die =
            ecc::HammingCode::randomSec(64, code_rng);
        mem::MemoryChip chip(on_die, num_words);
        common::Xoshiro256 secondary_rng(seed + 1);
        const ecc::ExtendedHammingCode secondary =
            ecc::ExtendedHammingCode::randomSecDed(64, secondary_rng);
        mem::MemoryController controller(chip, &secondary);

        common::Xoshiro256 fault_rng(seed + 2);
        std::size_t total_at_risk = 0;
        for (std::size_t w = 0; w < num_words; ++w) {
            auto model = fault::WordFaultModel::makeUniformRber(
                on_die.n(), rber, prob, fault_rng);
            total_at_risk += model.numFaults();
            chip.setFaultModel(w, std::move(model));
        }

        // Phase 1: HARP active profiling over the bypass read path.
        common::Xoshiro256 retention_rng(seed + 3);
        for (std::size_t w = 0; w < num_words; ++w) {
            core::PatternGenerator patterns(
                core::PatternKind::Random, 64,
                common::deriveSeed(seed, {0xACF1u, w}));
            for (std::size_t r = 0; r < active_rounds; ++r) {
                const gf2::BitVector &pattern = patterns.patternView(r);
                controller.write(w, pattern);
                chip.retentionTick(w, retention_rng);
                gf2::BitVector raw = controller.readRaw(w);
                raw ^= pattern;
                raw.forEachSetBit([&](std::size_t bit) {
                    controller.profile().markAtRisk(w, bit);
                });
            }
        }
        const std::size_t active_found =
            controller.profile().totalAtRisk();

        // Phase 2: normal operation with reactive profiling + patrol
        // scrubbing.
        common::Xoshiro256 workload_rng(seed + 4);
        std::vector<gf2::BitVector> shadow(num_words,
                                           gf2::BitVector(64));
        for (std::size_t w = 0; w < num_words; ++w) {
            shadow[w] = gf2::BitVector::random(64, workload_rng);
            controller.write(w, shadow[w]);
        }
        std::size_t silent_corruptions = 0;
        const std::size_t scrub_interval = num_words * 4;
        for (std::size_t a = 0; a < accesses; ++a) {
            const std::size_t w = workload_rng.nextBelow(num_words);
            if (workload_rng.nextBernoulli(0.5)) {
                shadow[w] = gf2::BitVector::random(64, workload_rng);
                controller.write(w, shadow[w]);
            } else {
                chip.retentionTick(w, retention_rng);
                const mem::ControllerReadResult r = controller.read(w);
                if (!r.corrupt && !(r.dataword == shadow[w]))
                    ++silent_corruptions;
            }
            if (a % scrub_interval == scrub_interval - 1)
                controller.scrubAll();
        }

        const mem::ControllerStats &stats = controller.stats();
        JsonValue metrics = JsonValue::object();
        metrics.set("at_risk_cells", JsonValue(total_at_risk));
        metrics.set("active_profiled", JsonValue(active_found));
        metrics.set("secondary_corrections",
                    JsonValue(stats.secondaryCorrections));
        metrics.set("reactive_identifications",
                    JsonValue(stats.reactiveIdentifications));
        metrics.set("repaired_bit_reads", JsonValue(stats.repairedBits));
        metrics.set("scrubs", JsonValue(stats.scrubs));
        metrics.set("scrub_writebacks", JsonValue(stats.scrubWritebacks));
        metrics.set("uncorrectable_events",
                    JsonValue(stats.uncorrectableEvents));
        metrics.set("silent_corruptions", JsonValue(silent_corruptions));
        metrics.set("repair_capacity_bits",
                    JsonValue(controller.profile().totalAtRisk()));
        metrics.set(
            "repair_capacity_fraction",
            JsonValue(static_cast<double>(
                          controller.profile().totalAtRisk()) /
                      static_cast<double>(num_words * 64)));
        return metrics;
    };
    return spec;
}

ExperimentSpec
makeSecondaryEccSizing()
{
    ExperimentSpec spec;
    spec.name = "secondary_ecc_sizing";
    spec.description =
        "Required secondary-ECC correction capability per round per "
        "profiler";
    spec.labels = {"example"};
    spec.grid = ParamGrid();
    spec.tunables = {
        {"pre_errors", 5, "at-risk cells in the word"},
        {"prob", 0.5, "per-bit failure probability of at-risk cells"},
        {"rounds", 64, "profiling rounds"},
    };
    spec.schema = {
        {"direct_at_risk", JsonType::Int, "ground-truth direct bits"},
        {"indirect_at_risk", JsonType::Int, "ground-truth indirect bits"},
        {"feasible_patterns", JsonType::Int,
         "feasible pre-correction error patterns"},
        {"checkpoints", JsonType::Array,
         "round numbers (0 = before profiling)"},
        {"required_capability", JsonType::Object,
         "per profiler: max simultaneous unrepaired errors at each "
         "checkpoint"},
    };
    spec.run = [](const RunContext &ctx) {
        const auto pre_errors = ctx.getCount("pre_errors");
        const double prob = ctx.getDouble("prob");
        const auto rounds = ctx.getCount("rounds");

        common::Xoshiro256 code_rng(ctx.seed());
        const ecc::HammingCode on_die =
            ecc::HammingCode::randomSec(64, code_rng);
        common::Xoshiro256 fault_rng(ctx.seed() + 1);
        const fault::WordFaultModel faults =
            fault::WordFaultModel::makeUniformFixedCount(
                on_die.n(), pre_errors, prob, fault_rng);
        const core::AtRiskAnalyzer analyzer(on_die, faults);

        core::NaiveProfiler naive(on_die.k());
        core::BeepProfiler beep(on_die);
        core::HarpUProfiler harp_u(on_die.k());
        core::HarpAProfiler harp_a(on_die);
        std::vector<core::Profiler *> profilers = {&naive, &beep,
                                                   &harp_u, &harp_a};
        core::RoundEngine engine(on_die, faults,
                                 core::PatternKind::Random,
                                 ctx.seed() + 2, profilers);

        // Checkpoints: round 0, the first 8 rounds, powers of two, and
        // the final round.
        std::vector<std::size_t> checkpoints = {0};
        std::vector<std::vector<std::size_t>> capability(
            profilers.size());
        const gf2::BitVector empty(on_die.k());
        for (std::size_t p = 0; p < profilers.size(); ++p)
            capability[p].push_back(
                analyzer.maxSimultaneousErrors(empty));
        for (std::size_t r = 0; r < rounds; ++r) {
            engine.runRound();
            const bool checkpoint =
                (r + 1) <= 8 || ((r + 1) & r) == 0 || r + 1 == rounds;
            if (!checkpoint)
                continue;
            checkpoints.push_back(r + 1);
            for (std::size_t p = 0; p < profilers.size(); ++p)
                capability[p].push_back(analyzer.maxSimultaneousErrors(
                    profilers[p]->identified()));
        }

        JsonValue cap = JsonValue::object();
        for (std::size_t p = 0; p < profilers.size(); ++p) {
            JsonValue arr = JsonValue::array();
            for (const std::size_t v : capability[p])
                arr.push(JsonValue(v));
            cap.set(profilers[p]->name(), std::move(arr));
        }
        JsonValue metrics = JsonValue::object();
        metrics.set("direct_at_risk",
                    JsonValue(analyzer.directAtRisk().popcount()));
        metrics.set("indirect_at_risk",
                    JsonValue(analyzer.indirectAtRisk().popcount()));
        metrics.set("feasible_patterns",
                    JsonValue(analyzer.outcomes().size()));
        metrics.set("checkpoints", checkpointsJson(checkpoints));
        metrics.set("required_capability", std::move(cap));
        return metrics;
    };
    return spec;
}

} // namespace

void
registerExampleSpecs(Registry &registry)
{
    registry.add(makeQuickstart());
    registry.add(makeBeerReverseEngineering());
    registry.add(makeRetentionCaseStudy());
    registry.add(makeSecondaryEccSizing());
}

} // namespace harp::runner
