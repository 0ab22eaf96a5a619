// Ablation: Nadaraya-Watson bandwidth selection.
//
// The paper selects the Gaussian kernel's bandwidth — its only free
// parameter — by Leave-One-Out cross-validation. This bench compares the
// LOO-CV choice against fixed bandwidths on tool data from the cv32e40p
// FIFO, reporting test MSE per metric.
//
// Usage: ablation_nwm_bandwidth [--json FILE]
//   --json FILE  also write every row's bandwidths and test MSEs to FILE
//                with %.17g, so a golden copy
//                (tests/golden/ablation_nwm_bandwidth.json) can be compared
//                exactly.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/front_json.hpp"
#include "src/core/evaluator.hpp"
#include "src/model/nadaraya_watson.hpp"
#include "src/util/rng.hpp"

using namespace dovado;

namespace {

/// One table row: a label, the bandwidth per metric and the test MSEs.
struct Row {
  std::string name;
  std::vector<double> bandwidths;
  std::vector<double> mse;
};

bool write_rows_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "ablation_nwm_bandwidth: cannot write %s\n", path);
    return false;
  }
  std::fprintf(out, "{\"figure\": \"ablation_nwm_bandwidth\", \"rows\": [\n");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    std::fprintf(out,
                 "  {\"bandwidth\": \"%s\", \"h_ff\": %.17g, \"h_lut\": %.17g, "
                 "\"h_freq\": %.17g, \"mse_ff\": %.17g, \"mse_lut\": %.17g, "
                 "\"mse_freq\": %.17g}%s\n",
                 row.name.c_str(), row.bandwidths[0], row.bandwidths[1], row.bandwidths[2],
                 row.mse[0], row.mse[1], row.mse[2], r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "ablation_nwm_bandwidth: cannot write %s\n", path);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  if (!bench::parse_json_flag(argc, argv, "ablation_nwm_bandwidth", json_path)) return 2;

  core::ProjectConfig project;
  project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                             hdl::HdlLanguage::kSystemVerilog, "work", false});
  project.top_module = "cv32e40p_fifo";
  project.part = "xc7k70tfbv676-1";
  core::PointEvaluator evaluator(project);

  // 60 training / 40 test samples over the DEPTH range, normalized metrics.
  util::Rng rng(7);
  std::vector<std::int64_t> depths;
  for (std::int64_t d = 8; d <= 507; ++d) depths.push_back(d);
  rng.shuffle(depths);

  auto metric_values = [&](std::int64_t depth) -> model::Values {
    const auto r = evaluator.evaluate({{"DEPTH", depth}});
    return {r.metrics.get("ff") / 16000.0, r.metrics.get("lut") / 6000.0,
            r.metrics.get("fmax_mhz") / 600.0};
  };

  model::Dataset train;
  for (int i = 0; i < 60; ++i) {
    train.add({static_cast<double>(depths[static_cast<std::size_t>(i)])},
              metric_values(depths[static_cast<std::size_t>(i)]));
  }
  std::vector<std::int64_t> test(depths.begin() + 60, depths.begin() + 100);

  auto test_mse = [&](const std::vector<double>& bandwidths) {
    model::NadarayaWatson nwm;
    nwm.fit(train, bandwidths);
    std::vector<double> mse(3, 0.0);
    for (std::int64_t d : test) {
      const model::Values est = nwm.predict({static_cast<double>(d)});
      const model::Values truth = metric_values(d);
      for (std::size_t m = 0; m < 3; ++m) {
        const double e = est[m] - truth[m];
        mse[m] += e * e;
      }
    }
    for (auto& v : mse) v /= static_cast<double>(test.size());
    return mse;
  };

  std::printf("Ablation: NWM bandwidth selection (60 train / 40 test samples)\n\n");
  std::printf("%-24s %12s %12s %12s\n", "bandwidth", "MSE(FF)", "MSE(LUT)", "MSE(Freq)");

  std::vector<Row> rows;
  const auto loo = model::select_bandwidths(train);
  const auto loo_mse = test_mse(loo);
  rows.push_back({"LOO-CV selected", loo, loo_mse});
  std::printf("%-24s %12.2e %12.2e %12.2e   <- paper's choice\n",
              "LOO-CV selected", loo_mse[0], loo_mse[1], loo_mse[2]);

  double best_fixed_freq = 1e18;
  for (double h : {0.5, 2.0, 8.0, 32.0, 128.0, 512.0}) {
    const auto mse = test_mse({h, h, h});
    rows.push_back({"fixed", {h, h, h}, mse});
    best_fixed_freq = std::min(best_fixed_freq, mse[2]);
    std::printf("fixed h = %-14.1f %12.2e %12.2e %12.2e\n", h, mse[0], mse[1], mse[2]);
  }

  std::printf("\nLOO-CV bandwidths per metric: %.2f / %.2f / %.2f\n", loo[0], loo[1],
              loo[2]);
  std::printf("Reading: LOO-CV lands within %.1fx of the best fixed bandwidth for the\n"
              "hardest metric without any hand tuning (paper: bandwidth is the only\n"
              "free parameter; LOO-CV is cheap on the small synthetic dataset).\n",
              loo_mse[2] / best_fixed_freq);
  if (json_path != nullptr && !write_rows_json(json_path, rows)) return 1;
  return 0;
}
