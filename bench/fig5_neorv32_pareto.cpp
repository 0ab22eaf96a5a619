// Figure 5 reproduction: non-dominated solutions of the Neorv32 memory
// exploration on a Kintex-7 (paper Sec. IV-C).
//
// Paper setup: VHDL top module, instruction/data memory sizes restricted to
// powers of two, approximation model disabled. Expected shape: a handful of
// non-dominated solutions (the paper found five) whose main difference is
// BRAM usage — the configuration with 2^15 memories shows a sensible BRAM
// change while leaving the other metrics almost unchanged.
//
// Usage: fig5_neorv32_pareto [--json FILE]
//   --json FILE  also write the non-dominated set (every parameter and
//                objective, %.17g) so a golden copy
//                (tests/golden/fig5_front.json) can be compared exactly.
#include <algorithm>
#include <cstdio>
#include <string>

#include "src/core/dse.hpp"
#include "src/core/writers.hpp"
#include "bench/front_json.hpp"

using namespace dovado;

namespace {

int log2_of(std::int64_t v) {
  int e = 0;
  while (v > 1) {
    v >>= 1;
    ++e;
  }
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  if (!bench::parse_json_flag(argc, argv, "fig5_neorv32_pareto", json_path)) return 2;

  core::ProjectConfig project;
  project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/neorv32_top.vhd",
                             hdl::HdlLanguage::kVhdl, "work", false});
  project.top_module = "neorv32_top";
  project.part = "xc7k70tfbv676-1";
  project.target_period_ns = 1.0;

  core::DseConfig config;
  config.space.params.push_back(
      {"MEM_INT_IMEM_SIZE", core::ParamDomain::power_of_two(11, 15)});
  config.space.params.push_back(
      {"MEM_INT_DMEM_SIZE", core::ParamDomain::power_of_two(11, 15)});
  config.objectives = {{"bram", false}, {"lut", false}, {"ff", false},
                       {"fmax_mhz", true}};
  config.ga.population_size = 14;
  config.ga.max_generations = 12;
  config.ga.seed = 32;
  config.use_approximation = false;

  core::DseEngine engine(project, config);
  const core::DseResult result = engine.run();

  std::vector<core::ExploredPoint> pareto = result.pareto;
  std::sort(pareto.begin(), pareto.end(),
            [](const core::ExploredPoint& a, const core::ExploredPoint& b) {
              return a.metrics.get("bram") > b.metrics.get("bram");
            });

  std::printf("Figure 5: non-dominated solutions for Neorv32 (xc7k70t)\n");
  std::printf("%-6s %10s %10s %8s %8s %6s %10s\n", "sol", "IMEM", "DMEM", "LUTs", "FFs",
              "BRAM", "Fmax_MHz");
  for (std::size_t i = 0; i < pareto.size(); ++i) {
    const auto& p = pareto[i];
    std::printf("%-6zu %7s2^%-2d %7s2^%-2d %8.0f %8.0f %6.0f %10.1f\n", i + 1, "",
                log2_of(p.params.at("MEM_INT_IMEM_SIZE")), "",
                log2_of(p.params.at("MEM_INT_DMEM_SIZE")), p.metrics.get("lut"),
                p.metrics.get("ff"), p.metrics.get("bram"), p.metrics.get("fmax_mhz"));
  }

  // The paper's headline comparison: 2^15/2^15 vs 2^14/2^13.
  const auto comparison = engine.evaluate_set({
      {{"MEM_INT_IMEM_SIZE", 1 << 15}, {"MEM_INT_DMEM_SIZE", 1 << 15}},
      {{"MEM_INT_IMEM_SIZE", 1 << 14}, {"MEM_INT_DMEM_SIZE", 1 << 13}},
  });
  const double bram_big = comparison[0].metrics.get("bram");
  const double bram_small = comparison[1].metrics.get("bram");
  const double lut_big = comparison[0].metrics.get("lut");
  const double lut_small = comparison[1].metrics.get("lut");

  std::printf("\npaper expectation vs measured:\n");
  std::printf("  - few non-dominated solutions (paper: 5) ....... measured %zu\n",
              pareto.size());
  std::printf("  - 2^15 memories show a sensible BRAM change .... %.0f vs %.0f BRAM\n",
              bram_big, bram_small);
  std::printf("  - other metrics almost unchanged ............... LUT %.0f vs %.0f (%.1f%%)\n",
              lut_big, lut_small, 100.0 * (lut_big - lut_small) / lut_small);
  if (json_path != nullptr &&
      !bench::write_fronts_json(json_path, "fig5_neorv32_pareto", config.objectives,
                                {{"xc7k70t", &result.pareto}})) {
    return 1;
  }
  return 0;
}
