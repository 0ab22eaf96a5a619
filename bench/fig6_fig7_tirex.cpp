// Figures 6-7 + Table II reproduction: TiReX design space exploration on a
// Zynq UltraScale+ ZU3EG (16 nm) and a Kintex-7 XC7K70T (28 nm)
// (paper Sec. IV-D).
//
// Paper setup: VHDL top, parameters NCluster (datapath parallelism /
// instruction width), context-switch stack size, instruction and data
// memory sizes, all power-of-two restricted. Expected shape: fewer
// non-dominated solutions on the ZU3EG than on the XC7K70T (paper: 4 vs 8),
// similar parameter choices on both devices, and a large technology gap in
// achievable frequency (~550 vs ~190 MHz) despite near-identical
// configurations.
//
// Usage: fig6_fig7_tirex [--json FILE]
//   --json FILE  also write both non-dominated sets (every parameter and
//                objective, %.17g) so a golden copy
//                (tests/golden/fig6_fig7_fronts.json) can be compared exactly.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

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

const std::vector<core::Objective> kObjectives = {
    {"lut", false}, {"bram", false}, {"fmax_mhz", true}};

core::DseResult explore(const std::string& part, std::uint64_t seed) {
  core::ProjectConfig project;
  project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/tirex_top.vhd",
                             hdl::HdlLanguage::kVhdl, "work", false});
  project.top_module = "tirex_top";
  project.part = part;
  project.target_period_ns = 1.0;

  core::DseConfig config;
  // Table II's observed ranges: NCluster 1, stack 2^0..2^8, memories
  // 2^3..2^4 (we let NCluster scale up to 4 so the optimizer has to discover
  // that 1 is the area-optimal choice).
  config.space.params.push_back({"NCLUSTER", core::ParamDomain::power_of_two(0, 2)});
  config.space.params.push_back({"STACK_SIZE", core::ParamDomain::power_of_two(0, 8)});
  config.space.params.push_back({"INSTR_MEM_SIZE", core::ParamDomain::power_of_two(3, 4)});
  config.space.params.push_back({"DATA_MEM_SIZE", core::ParamDomain::power_of_two(3, 4)});
  config.objectives = kObjectives;
  config.ga.population_size = 22;
  config.ga.max_generations = 14;
  config.ga.seed = seed;
  config.use_approximation = false;

  core::DseEngine engine(project, config);
  return engine.run();
}

void print_table(const char* device_label, const std::vector<core::ExploredPoint>& pareto) {
  std::printf("Table II (%s): configuration parameters\n", device_label);
  std::printf("%-18s", device_label);
  for (std::size_t i = 0; i < pareto.size(); ++i) {
    std::printf(" %6c", static_cast<char>('A' + i));
  }
  auto row = [&](const char* label, const char* param, bool as_pow) {
    std::printf("\n%-18s", label);
    for (const auto& p : pareto) {
      if (as_pow) std::printf("   2^%-2d", log2_of(p.params.at(param)));
      else std::printf(" %6lld", static_cast<long long>(p.params.at(param)));
    }
  };
  row("NCluster", "NCLUSTER", false);
  row("Stack. Size", "STACK_SIZE", true);
  row("Instr. Mem. Size", "INSTR_MEM_SIZE", true);
  row("Data Mem. Size", "DATA_MEM_SIZE", true);
  std::printf("\n\n");
}

double best_fmax(const std::vector<core::ExploredPoint>& pareto) {
  double best = 0.0;
  for (const auto& p : pareto) best = std::max(best, p.metrics.get("fmax_mhz"));
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  if (!bench::parse_json_flag(argc, argv, "fig6_fig7_tirex", json_path)) return 2;

  const auto zu3eg = explore("xczu3eg-sbva484-1-e", 6);
  const auto xc7k = explore("xc7k70tfbv676-1", 6);

  auto sorted = [](core::DseResult result) {
    std::sort(result.pareto.begin(), result.pareto.end(),
              [](const core::ExploredPoint& a, const core::ExploredPoint& b) {
                return a.metrics.get("lut") < b.metrics.get("lut");
              });
    return result.pareto;
  };
  const auto zu_pareto = sorted(zu3eg);
  const auto k7_pareto = sorted(xc7k);

  print_table("ZU3EG", zu_pareto);
  print_table("XC7K", k7_pareto);

  std::printf("Figure 6: non-dominated solutions on the ZU3EG\n%s\n",
              core::format_table(zu_pareto).c_str());
  std::printf("Figure 7: non-dominated solutions on the XC7K70T\n%s\n",
              core::format_table(k7_pareto).c_str());

  const double zu_fmax = best_fmax(zu_pareto);
  const double k7_fmax = best_fmax(k7_pareto);
  std::printf("paper expectation vs measured:\n");
  std::printf("  - technology gap in frequency (paper ~550 vs ~190 MHz): %.0f vs %.0f MHz"
              " (ratio %.1fx)\n",
              zu_fmax, k7_fmax, zu_fmax / k7_fmax);
  std::printf("  - solution-count differs across devices (paper 4 vs 8): %zu vs %zu\n",
              zu_pareto.size(), k7_pareto.size());
  std::printf("  - tool runs: ZU3EG %zu, XC7K %zu\n", zu3eg.stats.tool_runs,
              xc7k.stats.tool_runs);
  if (json_path != nullptr &&
      !bench::write_fronts_json(json_path, "fig6_fig7_tirex", kObjectives,
                                {{"xczu3eg", &zu3eg.pareto}, {"xc7k70t", &xc7k.pareto}})) {
    return 1;
  }
  return 0;
}
