// Fitness-approximation walkthrough (paper Sec. III-C and IV-A).
//
// Pre-trains the Nadaraya-Watson control model on tool samples of the
// cv32e40p FIFO, then shows, query by query, how the control model routes
// design points between the cached tool, the estimator and fresh tool runs,
// and how close the estimates are to the tool's answers.
#include <cstdio>
#include <string>

#include "src/core/dse.hpp"
#include "src/model/control.hpp"
#include "src/util/rng.hpp"

using namespace dovado;

int main() {
  core::ProjectConfig project;
  project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                             hdl::HdlLanguage::kSystemVerilog, "work", false});
  project.top_module = "cv32e40p_fifo";
  project.part = "xc7k70tfbv676-1";
  project.target_period_ns = 1.0;
  core::PointEvaluator evaluator(project);

  model::ControlModel control;
  util::Rng rng(42);

  // Pre-training: M distinct tool runs on random DEPTH values.
  const int kPretrain = 40;
  std::printf("pre-training on %d tool samples...\n", kPretrain);
  for (int i = 0; i < kPretrain; ++i) {
    const std::int64_t depth = rng.uniform_int(8, 507);
    const auto r = evaluator.evaluate({{"DEPTH", depth}});
    if (r.ok) {
      control.add_sample({static_cast<double>(depth)},
                         {r.metrics.get("ff"), r.metrics.get("lut"),
                          r.metrics.get("fmax_mhz")});
    }
  }
  std::printf("dataset size: %zu, adaptive threshold Gamma = %.2f\n\n",
              control.dataset().size(), control.threshold());

  std::printf("%-8s %-12s %-22s %-22s\n", "DEPTH", "decision", "estimate (ff/lut/fmax)",
              "tool (ff/lut/fmax)");
  for (std::int64_t depth : {16, 100, 101, 250, 400, 507}) {
    const model::Point x = {static_cast<double>(depth)};
    const model::Decision decision = control.decide_and_count(x);
    const char* name = decision == model::Decision::kCachedTool ? "cached"
                       : decision == model::Decision::kEstimate ? "estimate"
                                                                : "tool+add";
    const auto truth = evaluator.evaluate({{"DEPTH", depth}});
    std::string est = "-";
    if (decision == model::Decision::kEstimate) {
      const model::Values v = control.estimate(x);
      est = std::to_string(static_cast<int>(v[0])) + "/" +
            std::to_string(static_cast<int>(v[1])) + "/" +
            std::to_string(static_cast<int>(v[2]));
    } else if (decision == model::Decision::kToolAndAdd) {
      control.add_sample(x, {truth.metrics.get("ff"), truth.metrics.get("lut"),
                             truth.metrics.get("fmax_mhz")});
    }
    std::printf("%-8lld %-12s %-22s %d/%d/%d\n", static_cast<long long>(depth), name,
                est.c_str(), static_cast<int>(truth.metrics.get("ff")),
                static_cast<int>(truth.metrics.get("lut")),
                static_cast<int>(truth.metrics.get("fmax_mhz")));
  }

  const auto& stats = control.stats();
  std::printf(
      "\ncontrol-model statistics: %zu cached, %zu estimated, %zu tool calls\n",
      stats.cached_hits, stats.estimates, stats.tool_calls);
  std::printf("model bandwidths (LOO-CV): ");
  for (double h : control.bandwidths()) std::printf("%.2f ", h);
  std::printf("\n");
  return 0;
}
