// Ablation: the approximation control model's threshold policy.
//
// Compares the paper's adaptive threshold Gamma (mean nearest-neighbour
// distance, updated after every dataset addition) against fixed thresholds,
// measuring how many tool calls the DSE needs and how good the resulting
// front is relative to a direct (no-approximation) run.
//
// Usage: ablation_control_model [--json FILE]
//   --json FILE  also write every row to FILE (hypervolume with %.17g), so
//                a golden copy (tests/golden/ablation_control_model.json)
//                can be compared exactly.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/front_json.hpp"
#include "src/core/dse.hpp"
#include "src/opt/indicators.hpp"

using namespace dovado;

namespace {

core::ProjectConfig fifo_project() {
  core::ProjectConfig project;
  project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                             hdl::HdlLanguage::kSystemVerilog, "work", false});
  project.top_module = "cv32e40p_fifo";
  project.part = "xc7k70tfbv676-1";
  project.target_period_ns = 1.0;
  return project;
}

core::DseConfig base_config() {
  core::DseConfig config;
  config.space.params.push_back({"DEPTH", core::ParamDomain::range(8, 507)});
  config.objectives = {{"lut", false}, {"fmax_mhz", true}};
  config.ga.population_size = 20;
  config.ga.max_generations = 15;
  config.ga.seed = 99;
  return config;
}

struct Row {
  std::string policy;
  std::size_t tool_runs;
  std::size_t estimates;
  double hv;
};

double front_hypervolume(const core::DseEngine& engine, const core::DseResult& result) {
  std::vector<opt::Objectives> objs;
  for (const auto& p : result.pareto) objs.push_back(engine.to_objectives(p.metrics));
  // Reference: worst corner with margin (lut <= 7000, fmax >= 100 =>
  // -fmax <= -100).
  return opt::hypervolume(objs, {8000.0, -100.0});
}

bool write_rows_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "ablation_control_model: cannot write %s\n", path);
    return false;
  }
  std::fprintf(out, "{\"figure\": \"ablation_control_model\", \"rows\": [\n");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::fprintf(out,
                 "  {\"policy\": \"%s\", \"tool_runs\": %zu, \"estimates\": %zu, "
                 "\"hypervolume\": %.17g}%s\n",
                 rows[r].policy.c_str(), rows[r].tool_runs, rows[r].estimates, rows[r].hv,
                 r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "ablation_control_model: cannot write %s\n", path);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  if (!bench::parse_json_flag(argc, argv, "ablation_control_model", json_path)) return 2;

  std::vector<Row> rows;

  {
    core::DseEngine engine(fifo_project(), base_config());
    const auto result = engine.run();
    rows.push_back({"direct (no model)", result.stats.tool_runs, 0,
                    front_hypervolume(engine, result)});
  }

  {
    core::DseConfig config = base_config();
    config.use_approximation = true;
    config.pretrain_samples = 40;
    core::DseEngine engine(fifo_project(), config);
    const auto result = engine.run();
    rows.push_back({"adaptive Gamma (paper)",
                    result.stats.tool_runs + result.stats.pretrain_runs,
                    result.stats.estimates, front_hypervolume(engine, result)});
  }

  for (double fixed : {1.0, 10.0, 100.0}) {
    core::DseConfig config = base_config();
    config.use_approximation = true;
    config.pretrain_samples = 40;
    config.control.adaptive_threshold = false;
    config.control.fixed_threshold = fixed;
    core::DseEngine engine(fifo_project(), config);
    const auto result = engine.run();
    char label[64];
    std::snprintf(label, sizeof(label), "fixed threshold %.0f", fixed);
    rows.push_back({label, result.stats.tool_runs + result.stats.pretrain_runs,
                    result.stats.estimates, front_hypervolume(engine, result)});
  }

  std::printf("Ablation: control-model threshold policy (cv32e40p FIFO DSE)\n\n");
  std::printf("%-26s %10s %10s %14s\n", "policy", "tool runs", "estimates", "hypervolume");
  for (const auto& r : rows) {
    std::printf("%-26s %10zu %10zu %14.1f\n", r.policy.c_str(), r.tool_runs, r.estimates,
                r.hv);
  }
  std::printf(
      "\nReading: the adaptive threshold cuts tool calls well below the direct\n"
      "run while keeping the front competitive; a too-small fixed threshold\n"
      "degenerates to the direct run, a too-large one floods the search with\n"
      "estimates of degrading quality.\n");
  if (json_path != nullptr && !write_rows_json(json_path, rows)) return 1;
  return 0;
}
