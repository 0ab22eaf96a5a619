// Micro benchmarks of the end-to-end single-point evaluation pipeline:
// the real-time cost of one simulated tool run (parse + box + TCL + map +
// time + report round-trip) and the cache-hit fast path.
//
// The fresh-point benches walk a grid without repeats against one warm
// evaluator (its memoizing cache and its tool session live across
// iterations, as in a campaign lane), for a fixed number of iterations well
// under the grid's size, however fast the host. They check their own
// precondition: every timed iteration must be exactly one fresh tool run.
// A walk that ran off its grid would time cache hits instead, so the
// benchmark is marked failed and the program exits non-zero.
//
// Both fresh-point benches also count heap allocations (alloc_counter.cpp
// replaces the global operator new/delete in this binary) and report
// `allocs_per_eval` and `bytes_per_eval`. The systolic count is gated:
// above kSystolicAllocBudget the program exits non-zero. Unlike wall-clock,
// the count does not swing with the host; it moves with the toolchain's
// standard library, so the budget names the one it was measured with.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/alloc_counter.hpp"
#include "src/boxing/box.hpp"
#include "src/core/evaluator.hpp"

namespace {

using namespace dovado;

bool g_precondition_failed = false;
bool g_alloc_budget_exceeded = false;

/// Heap allocations allowed per fresh systolic evaluation: 38, the count
/// measured with gcc 12.2 and its libstdc++ (Debian 12, release build),
/// plus 15% headroom.
constexpr double kSystolicAllocBudget = 44;

/// Timed iterations of the fresh-point benches: a quarter of the fifo grid
/// and an eighth of the systolic one.
constexpr std::int64_t kFifoFreshIterations = 4096;
constexpr std::int64_t kSystolicFreshIterations = 8192;

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
/// fail unless each iteration paid exactly one tool run. Returns the heap
/// allocations per iteration. The evaluator first runs the grid's last
/// point untimed, so that one-time work (the first read of the project
/// sources, compiling the flow script) is in neither the time nor the count.
template <typename PointFn>
double run_fresh(benchmark::State& state, const core::ProjectConfig& project,
                 std::int64_t grid_size, PointFn point_of) {
  core::PointEvaluator evaluator(project);
  (void)evaluator.evaluate(point_of(grid_size - 1));
  const std::uint64_t flows_before = evaluator.backend().flows_run();
  std::int64_t i = 0;
  const bench::AllocCount before = bench::alloc_count();
  for (auto _ : state) {
    auto r = evaluator.evaluate(point_of(i % grid_size));
    benchmark::DoNotOptimize(r);
    ++i;
  }
  const bench::AllocCount after = bench::alloc_count();
  const double iterations = static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  const double allocs = static_cast<double>(after.allocs - before.allocs) / iterations;
  state.counters["allocs_per_eval"] = allocs;
  state.counters["bytes_per_eval"] = static_cast<double>(after.bytes - before.bytes) / iterations;
  const std::uint64_t fresh = evaluator.backend().flows_run() - flows_before;
  state.counters["fresh_runs"] = static_cast<double>(fresh);
  if (fresh != static_cast<std::uint64_t>(state.iterations())) {
    g_precondition_failed = true;
    state.SkipWithError("fresh tool runs != iterations: the walk timed cache hits");
  }
  return allocs;
}

void BM_EvaluateFreshPoint(benchmark::State& state) {
  run_fresh(state, fifo_project(), 16384, fifo_point);
}
BENCHMARK(BM_EvaluateFreshPoint)->Iterations(kFifoFreshIterations);

void BM_EvaluateFreshPointSystolic(benchmark::State& state) {
  const double allocs = run_fresh(state, systolic_project(), 65536, systolic_point);
  if (allocs > kSystolicAllocBudget) {
    g_alloc_budget_exceeded = true;
    state.SkipWithError("heap allocations per fresh systolic evaluation over budget");
  }
}
BENCHMARK(BM_EvaluateFreshPointSystolic)->Iterations(kSystolicFreshIterations);

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
BENCHMARK(BM_SynthesisOnlyVsFullFlow)->Arg(0)->Arg(1)->Iterations(kFifoFreshIterations);

/// PointEvaluator construction: parsing the project sources, building the
/// box template and the flow script, creating the backend.
void BM_EvaluatorConstruction(benchmark::State& state) {
  for (auto _ : state) {
    core::PointEvaluator fresh(fifo_project());
    benchmark::DoNotOptimize(fresh.module().name);
  }
}
BENCHMARK(BM_EvaluatorConstruction);

/// boxing::generate_box alone on systolic_mm's parsed interface, walking
/// the systolic grid: one box template built and one point rendered per
/// call, as the analyzer and perfbench's boxing layer call it.
void BM_GenerateBoxSystolic(benchmark::State& state) {
  const core::PointEvaluator evaluator(systolic_project());
  const hdl::Module& module = evaluator.module();
  boxing::BoxConfig config;
  config.target_period_ns = 1.0;
  std::int64_t i = 0;
  const bench::AllocCount before = bench::alloc_count();
  for (auto _ : state) {
    config.parameters = systolic_point(i++ % 65536);
    const boxing::BoxResult box = boxing::generate_box(module, config);
    benchmark::DoNotOptimize(box.box_source.data());
  }
  const bench::AllocCount after = bench::alloc_count();
  const double iterations = static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  state.counters["allocs_per_eval"] = static_cast<double>(after.allocs - before.allocs) / iterations;
}
BENCHMARK(BM_GenerateBoxSystolic);

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
  if (g_alloc_budget_exceeded) {
    std::fprintf(stderr,
                 "micro_sim: a fresh systolic evaluation made more than %.0f heap "
                 "allocations\n",
                 kSystolicAllocBudget);
    return 1;
  }
  return 0;
}
