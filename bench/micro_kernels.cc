/**
 * @file
 * google-benchmark microkernels for the performance-critical primitives:
 * ECC encode/decode, fault injection, ground-truth analysis, GF(2)
 * solving, SAT solving, full profiling rounds per profiler, and the
 * leaf kernels under them (64x64 bit transpose, sliced Bernoulli draws,
 * the wasted-storage Monte Carlo, BCH encode and Chien search). These
 * are throughput sanity checks for the Monte-Carlo engine, not paper
 * figures.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.hh"
#include "core/at_risk_analyzer.hh"
#include "core/beep_profiler.hh"
#include "core/harp_profiler.hh"
#include "core/naive_profiler.hh"
#include "core/round_engine.hh"
#include "core/waste_model.hh"
#include "ecc/bch_general.hh"
#include "fault/sliced_injector.hh"
#include "gf2/bit_slice.hh"
#include "gf2/linear_solver.hh"
#include "sat/cnf_builder.hh"

namespace {

using namespace harp;

ecc::HammingCode
makeCode(std::size_t k)
{
    common::Xoshiro256 rng(12345);
    return ecc::HammingCode::randomSec(k, rng);
}

void
BM_EccEncode(benchmark::State &state)
{
    const auto k = static_cast<std::size_t>(state.range(0));
    const ecc::HammingCode code = makeCode(k);
    common::Xoshiro256 rng(1);
    const gf2::BitVector d = gf2::BitVector::random(k, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(code.encode(d));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EccEncode)->Arg(64)->Arg(128);

void
BM_EccDecodeClean(benchmark::State &state)
{
    const auto k = static_cast<std::size_t>(state.range(0));
    const ecc::HammingCode code = makeCode(k);
    common::Xoshiro256 rng(2);
    const gf2::BitVector c = code.encode(gf2::BitVector::random(k, rng));
    for (auto _ : state)
        benchmark::DoNotOptimize(code.decode(c));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EccDecodeClean)->Arg(64)->Arg(128);

void
BM_EccDecodeWithError(benchmark::State &state)
{
    const ecc::HammingCode code = makeCode(64);
    common::Xoshiro256 rng(3);
    gf2::BitVector c = code.encode(gf2::BitVector::random(64, rng));
    c.flip(17);
    for (auto _ : state)
        benchmark::DoNotOptimize(code.decode(c));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EccDecodeWithError);

void
BM_FaultInjection(benchmark::State &state)
{
    const ecc::HammingCode code = makeCode(64);
    common::Xoshiro256 rng(4);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(
            code.n(), static_cast<std::size_t>(state.range(0)), 0.5, rng);
    const gf2::BitVector c = code.encode(gf2::BitVector::random(64, rng));
    for (auto _ : state)
        benchmark::DoNotOptimize(fm.injectErrors(c, rng));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaultInjection)->Arg(2)->Arg(5)->Arg(8);

void
BM_AtRiskAnalyzerConstruction(benchmark::State &state)
{
    const ecc::HammingCode code = makeCode(64);
    common::Xoshiro256 rng(5);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(
            code.n(), static_cast<std::size_t>(state.range(0)), 0.5, rng);
    for (auto _ : state) {
        core::AtRiskAnalyzer analyzer(code, fm);
        benchmark::DoNotOptimize(analyzer.outcomes().size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AtRiskAnalyzerConstruction)->Arg(2)->Arg(5)->Arg(8);

void
BM_Gf2Solve(benchmark::State &state)
{
    common::Xoshiro256 rng(6);
    const gf2::BitMatrix a = gf2::BitMatrix::random(8, 64, rng);
    const gf2::BitVector b = gf2::BitVector::random(8, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(gf2::solve(a, b));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Gf2Solve);

void
BM_SatSolveRandom3Sat(benchmark::State &state)
{
    // Satisfiable-density random 3-SAT instances, rebuilt per iteration.
    const int num_vars = static_cast<int>(state.range(0));
    const int num_clauses = num_vars * 3;
    std::uint64_t seed = 7;
    for (auto _ : state) {
        common::Xoshiro256 rng(seed++);
        sat::Solver solver;
        for (int i = 0; i < num_vars; ++i)
            solver.newVar();
        for (int c = 0; c < num_clauses; ++c) {
            sat::Clause clause;
            for (int l = 0; l < 3; ++l)
                clause.push_back(sat::Lit::make(
                    static_cast<sat::Var>(rng.nextBelow(
                        static_cast<std::uint64_t>(num_vars))),
                    rng.nextBernoulli(0.5)));
            solver.addClause(clause);
        }
        benchmark::DoNotOptimize(solver.solve());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SatSolveRandom3Sat)->Arg(30)->Arg(60);

void
BM_ProfilingRound(benchmark::State &state)
{
    // One full profiling round for a given profiler (argument selects).
    const ecc::HammingCode code = makeCode(64);
    common::Xoshiro256 rng(8);
    const fault::WordFaultModel fm =
        fault::WordFaultModel::makeUniformFixedCount(code.n(), 4, 0.5,
                                                     rng);
    std::unique_ptr<core::Profiler> profiler;
    switch (state.range(0)) {
      case 0:
        profiler = std::make_unique<core::NaiveProfiler>(code.k());
        break;
      case 1:
        profiler = std::make_unique<core::BeepProfiler>(code);
        break;
      case 2:
        profiler = std::make_unique<core::HarpUProfiler>(code.k());
        break;
      default:
        profiler = std::make_unique<core::HarpAProfiler>(code);
        break;
    }
    core::RoundEngine engine(code, fm, core::PatternKind::Random, 99,
                             {profiler.get()});
    for (auto _ : state)
        engine.runRound();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel(profiler->name());
}
BENCHMARK(BM_ProfilingRound)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void
BM_Transpose64x64(benchmark::State &state)
{
    common::Xoshiro256 rng(9);
    std::uint64_t m[64];
    for (std::uint64_t &row : m)
        row = rng();
    for (auto _ : state) {
        gf2::transpose64x64(m);
        benchmark::DoNotOptimize(m);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Transpose64x64);

void
BM_SlicedCrnDraw(benchmark::State &state)
{
    // One round of Bernoulli trials for 64 lanes of 8 at-risk cells at
    // p = 0.5, the least predictable outcome.
    std::vector<fault::WordFaultModel> models;
    std::vector<common::Xoshiro256> rngs;
    for (std::uint64_t w = 0; w < 64; ++w) {
        common::Xoshiro256 rng(100 + w);
        models.push_back(
            fault::WordFaultModel::makeUniformFixedCount(71, 8, 0.5, rng));
        rngs.emplace_back(200 + w);
    }
    std::vector<const fault::WordFaultModel *> lanes;
    for (const fault::WordFaultModel &model : models)
        lanes.push_back(&model);
    fault::SlicedCrnInjector injector(lanes);
    for (auto _ : state) {
        injector.drawRound(rngs);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64 * 8);
}
BENCHMARK(BM_SlicedCrnDraw);

void
BM_WastedFractionMonteCarlo(benchmark::State &state)
{
    // 16 blocks of 1024 bits at p = 0.5 (Bernoulli outcomes a branch
    // predictor cannot learn).
    common::Xoshiro256 rng(10);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::simulateWastedFraction(1024, 0.5, 16, rng));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1024 * 16);
}
BENCHMARK(BM_WastedFractionMonteCarlo);

void
BM_BchEncode(benchmark::State &state)
{
    const ecc::BchCode code(64, 2);
    common::Xoshiro256 rng(11);
    const gf2::BitVector d = gf2::BitVector::random(64, rng);
    gf2::BitVector c(code.n());
    for (auto _ : state) {
        code.encodeInto(d, c);
        benchmark::DoNotOptimize(c);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BchEncode);

void
BM_BchDecodeWithErrors(benchmark::State &state)
{
    // t errors: Berlekamp-Massey plus a full Chien search.
    const auto t = static_cast<std::size_t>(state.range(0));
    const ecc::BchCode code(64, t);
    common::Xoshiro256 rng(12);
    gf2::BitVector c = code.encode(gf2::BitVector::random(64, rng));
    for (std::size_t e = 0; e < t; ++e)
        c.flip(7 * e + 3);
    ecc::BchGeneralDecodeResult result;
    for (auto _ : state) {
        code.decodeInto(c, result);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BchDecodeWithErrors)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();
