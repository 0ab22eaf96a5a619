// Micro benchmarks of the end-to-end single-point evaluation pipeline:
// the real-time cost of one simulated tool run (parse + box + TCL + map +
// time + report round-trip) and the cache-hit fast path.
//
// The fresh-point benches walk a grid without repeats against one warm
// evaluator (its memoizing cache and its tool session live across
// iterations, as in a campaign lane), and check their own precondition:
// every timed iteration must be exactly one fresh tool run. A walk that
// runs off its grid would time cache hits instead, so the benchmark is
// marked failed and the program exits non-zero.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/core/evaluator.hpp"

namespace {

using namespace dovado;

bool g_precondition_failed = false;

core::ProjectConfig fifo_project() {
  core::ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                            hdl::HdlLanguage::kSystemVerilog, "work", false});
  config.top_module = "cv32e40p_fifo";
  config.part = "xc7k70tfbv676-1";
  config.target_period_ns = 1.0;
  return config;
}

core::ProjectConfig systolic_project() {
  core::ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/systolic_mm.sv",
                            hdl::HdlLanguage::kSystemVerilog, "work", false});
  config.top_module = "systolic_mm";
  config.part = "xcvu9p-flga2104-2l-e";
  config.target_period_ns = 1.0;
  return config;
}

/// Point i of DEPTH 8..1031 x DATA_WIDTH 8..128/8 (16,384 distinct points).
core::DesignPoint fifo_point(std::int64_t i) {
  return {{"DEPTH", 8 + i % 1024}, {"DATA_WIDTH", 8 * (1 + (i / 1024) % 16)}};
}

/// Point i of ROWS 1..32 x COLS 1..32 x DATA_W 4..32/4 x ACC_W 8..64/8
/// (65,536 distinct points).
core::DesignPoint systolic_point(std::int64_t i) {
  return {{"ROWS", 1 + i % 32},
          {"COLS", 1 + (i / 32) % 32},
          {"DATA_W", 4 * (1 + (i / 1024) % 8)},
          {"ACC_W", 8 * (1 + (i / 8192) % 8)}};
}

/// Time fresh evaluations of grid points 0, 1, 2, ... on one evaluator and
/// fail unless each iteration paid exactly one tool run.
template <typename PointFn>
void run_fresh(benchmark::State& state, const core::ProjectConfig& project,
               std::int64_t grid_size, PointFn point_of) {
  core::PointEvaluator evaluator(project);
  const std::uint64_t flows_before = evaluator.backend().flows_run();
  std::int64_t i = 0;
  for (auto _ : state) {
    auto r = evaluator.evaluate(point_of(i % grid_size));
    benchmark::DoNotOptimize(r);
    ++i;
  }
  const std::uint64_t fresh = evaluator.backend().flows_run() - flows_before;
  state.counters["fresh_runs"] = static_cast<double>(fresh);
  if (fresh != static_cast<std::uint64_t>(state.iterations())) {
    g_precondition_failed = true;
    state.SkipWithError("fresh tool runs != iterations: the walk timed cache hits");
  }
}

void BM_EvaluateFreshPoint(benchmark::State& state) {
  run_fresh(state, fifo_project(), 16384, fifo_point);
}
BENCHMARK(BM_EvaluateFreshPoint);

void BM_EvaluateFreshPointSystolic(benchmark::State& state) {
  run_fresh(state, systolic_project(), 65536, systolic_point);
}
BENCHMARK(BM_EvaluateFreshPointSystolic);

void BM_EvaluateCachedPoint(benchmark::State& state) {
  core::PointEvaluator evaluator(fifo_project());
  (void)evaluator.evaluate({{"DEPTH", 64}});
  for (auto _ : state) {
    auto r = evaluator.evaluate({{"DEPTH", 64}});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EvaluateCachedPoint);

void BM_SynthesisOnlyVsFullFlow(benchmark::State& state) {
  core::ProjectConfig config = fifo_project();
  config.run_implementation = state.range(0) != 0;
  run_fresh(state, config, 16384, fifo_point);
}
BENCHMARK(BM_SynthesisOnlyVsFullFlow)->Arg(0)->Arg(1);

void BM_BoxGeneration(benchmark::State& state) {
  core::PointEvaluator evaluator(fifo_project());
  // Isolate the constructor cost (parse of the project sources).
  for (auto _ : state) {
    core::PointEvaluator fresh(fifo_project());
    benchmark::DoNotOptimize(fresh.module().name);
  }
}
BENCHMARK(BM_BoxGeneration);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_precondition_failed) {
    std::fprintf(stderr, "micro_sim: a fresh-point bench timed cache hits\n");
    return 1;
  }
  return 0;
}
