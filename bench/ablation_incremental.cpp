// Ablation: Vivado's incremental design flow (paper Sec. III-B.2).
//
// Dovado exploits synthesis/implementation checkpoints so that runs whose
// parameters change only a small part of the design reuse the previous
// result. This bench sweeps a parameter with small steps (the
// checkpoint-friendly case) and with large jumps, with and without the
// incremental flow, and reports the simulated tool time.
//
// Usage: ablation_incremental [--json FILE]
//   --json FILE  also write every row to FILE (tool seconds with %.17g), so
//                a golden copy (tests/golden/ablation_incremental.json) can
//                be compared exactly.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/front_json.hpp"
#include "src/core/evaluator.hpp"

using namespace dovado;

namespace {

core::ProjectConfig project(bool incremental) {
  core::ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                            hdl::HdlLanguage::kSystemVerilog, "work", false});
  config.top_module = "cv32e40p_fifo";
  config.part = "xc7k70tfbv676-1";
  config.target_period_ns = 1.0;
  config.incremental_synth = incremental;
  config.incremental_impl = incremental;
  return config;
}

double sweep_seconds(bool incremental, const std::vector<std::int64_t>& depths) {
  core::PointEvaluator evaluator(project(incremental));
  for (std::int64_t depth : depths) {
    const auto r = evaluator.evaluate({{"DEPTH", depth}});
    if (!r.ok) std::fprintf(stderr, "evaluation failed: %s\n", r.error.c_str());
  }
  return evaluator.tool_seconds();
}

struct Row {
  std::string workload;
  double flat;
  double incremental;
};

bool write_rows_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "ablation_incremental: cannot write %s\n", path);
    return false;
  }
  std::fprintf(out, "{\"figure\": \"ablation_incremental\", \"rows\": [\n");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::fprintf(out,
                 "  {\"workload\": \"%s\", \"flat_tool_seconds\": %.17g, "
                 "\"incremental_tool_seconds\": %.17g}%s\n",
                 rows[r].workload.c_str(), rows[r].flat, rows[r].incremental,
                 r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "ablation_incremental: cannot write %s\n", path);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  if (!bench::parse_json_flag(argc, argv, "ablation_incremental", json_path)) return 2;

  std::vector<std::int64_t> small_steps;
  for (std::int64_t d = 200; d < 216; ++d) small_steps.push_back(d);
  std::vector<std::int64_t> large_jumps = {8,  64,  480, 16,  320, 96,
                                           400, 32, 256, 128, 48,  500,
                                           192, 80, 440, 24};

  std::vector<Row> rows;
  std::printf("Ablation: incremental synthesis/implementation flow\n\n");
  std::printf("%-28s %14s %14s %10s\n", "workload (16 evaluations)", "flat (s)",
              "incremental (s)", "saving");
  for (const auto& [label, depths] :
       {std::pair{std::string("small parameter steps"), small_steps},
        std::pair{std::string("large parameter jumps"), large_jumps}}) {
    const double flat = sweep_seconds(false, depths);
    const double inc = sweep_seconds(true, depths);
    std::printf("%-28s %14.0f %14.0f %9.1f%%\n", label.c_str(), flat, inc,
                100.0 * (flat - inc) / flat);
    rows.push_back({label, flat, inc});
  }
  std::printf(
      "\nReading: checkpoints pay off most when successive design points\n"
      "change only a small subsection of the design, as the paper notes for\n"
      "parametrized submodules of larger systems.\n");
  if (json_path != nullptr && !write_rows_json(json_path, rows)) return 1;
  return 0;
}
