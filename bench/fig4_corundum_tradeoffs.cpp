// Figure 4 + Table I reproduction: non-dominated trade-offs of Corundum's
// completion queue manager on a Kintex-7 (paper Sec. IV-B).
//
// Paper setup: Verilog cpl_queue_manager, direct Vivado evaluations (the
// approximation model disabled), figures of merit LUTs / Registers / BRAM /
// maximum frequency, design parameters (# outstanding operations, # of
// queues, pipeline stages). Expected shape: BRAM count constant across the
// non-dominated set, LUTs and Registers vary with the configurations, and
// running frequency lands near 200 MHz.
//
// Usage: fig4_corundum_tradeoffs [--json FILE]
//   --json FILE  also write the non-dominated set (every parameter and
//                objective, %.17g) so a golden copy
//                (tests/golden/fig4_front.json) can be compared exactly.
#include <algorithm>
#include <cstdio>
#include <string>

#include "src/core/dse.hpp"
#include "src/core/writers.hpp"
#include "bench/front_json.hpp"

using namespace dovado;

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  if (!bench::parse_json_flag(argc, argv, "fig4_corundum_tradeoffs", json_path)) return 2;

  core::ProjectConfig project;
  project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/corundum_cq_manager.v",
                             hdl::HdlLanguage::kVerilog, "work", false});
  project.top_module = "cpl_queue_manager";
  project.part = "xc7k70tfbv676-1";
  project.target_period_ns = 1.0;

  core::DseConfig config;
  // Table I's observed ranges: ops 8..35, queue index width 4..7, pipe 2..5.
  config.space.params.push_back({"OP_TABLE_SIZE", core::ParamDomain::range(8, 35)});
  config.space.params.push_back({"QUEUE_INDEX_WIDTH", core::ParamDomain::range(4, 7)});
  config.space.params.push_back({"PIPELINE", core::ParamDomain::range(2, 5)});
  config.objectives = {{"lut", false}, {"ff", false}, {"bram", false}, {"fmax_mhz", true}};
  config.ga.population_size = 26;
  config.ga.max_generations = 14;
  config.ga.seed = 4;
  config.use_approximation = false;  // "disabling the approximator model"

  core::DseEngine engine(project, config);
  const core::DseResult result = engine.run();

  // Order like the paper's Table I (by register count ascending) and label
  // the design points A, B, C, ...
  std::vector<core::ExploredPoint> pareto = result.pareto;
  std::sort(pareto.begin(), pareto.end(),
            [](const core::ExploredPoint& a, const core::ExploredPoint& b) {
              return a.metrics.get("ff") < b.metrics.get("ff");
            });
  const std::size_t shown = std::min<std::size_t>(pareto.size(), 13);

  std::printf("Table I: configurations of the non-dominated design points\n");
  std::printf("%-26s", "Design Point");
  for (std::size_t i = 0; i < shown; ++i) std::printf(" %5c", static_cast<char>('A' + i));
  std::printf("\n%-26s", "# operations outstanding");
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf(" %5lld", static_cast<long long>(pareto[i].params.at("OP_TABLE_SIZE")));
  }
  std::printf("\n%-26s", "queue index width");
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf(" %5lld", static_cast<long long>(pareto[i].params.at("QUEUE_INDEX_WIDTH")));
  }
  std::printf("\n%-26s", "Pipe. stages");
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf(" %5lld", static_cast<long long>(pareto[i].params.at("PIPELINE")));
  }

  std::printf("\n\nFigure 4: solution trade-offs\n");
  std::printf("%-6s %8s %10s %6s %10s\n", "point", "LUTs", "Registers", "BRAM", "Fmax_MHz");
  double bram_min = 1e18;
  double bram_max = -1e18;
  double fmax_best = 0.0;
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& p = pareto[i];
    std::printf("%-6c %8.0f %10.0f %6.0f %10.1f\n", static_cast<char>('A' + i),
                p.metrics.get("lut"), p.metrics.get("ff"), p.metrics.get("bram"),
                p.metrics.get("fmax_mhz"));
    bram_min = std::min(bram_min, p.metrics.get("bram"));
    bram_max = std::max(bram_max, p.metrics.get("bram"));
    fmax_best = std::max(fmax_best, p.metrics.get("fmax_mhz"));
  }

  std::printf("\npaper expectation vs measured:\n");
  std::printf("  - BRAM constant across the set .......... measured %s (%.0f)\n",
              bram_min == bram_max ? "constant" : "NOT constant", bram_min);
  std::printf("  - frequency near 200 MHz ................ best %.0f MHz\n", fmax_best);
  std::printf("  - %zu non-dominated configurations (paper: 13)\n", pareto.size());
  std::printf("  - tool runs: %zu over %zu explored points, %.0f simulated seconds\n",
              result.stats.tool_runs, result.explored.size(),
              result.stats.simulated_tool_seconds);
  if (json_path != nullptr &&
      !bench::write_fronts_json(json_path, "fig4_corundum_tradeoffs", config.objectives,
                                {{"xc7k70t", &result.pareto}})) {
    return 1;
  }
  return 0;
}
