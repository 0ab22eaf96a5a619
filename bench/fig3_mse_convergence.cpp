// Figure 3 reproduction: Mean Squared Error of the Nadaraya-Watson
// estimator vs dataset size on the cv32e40p FIFO, Kintex-7 XC7K70T.
//
// Paper setup (Sec. IV-A): SystemVerilog FIFO submodule, DEPTH parameter
// with 500 possible values, model pre-trained on 100 samples, target 1 GHz.
// The paper reports very low MSE for all three metrics, with frequency the
// hardest (peak ~0.45e-2, stabilizing ~0.25e-2 after ~40 samples). We
// report MSE on min-max-normalized metrics so the magnitudes are
// comparable; expect the same *shape*: FF/LUT almost immediately accurate,
// frequency noisier and converging as samples accumulate.
//
// Usage: fig3_mse_convergence [--json FILE]
//   --json FILE  also write every MSE of the table to FILE with %.17g, so a
//                golden copy (tests/golden/fig3_mse.json) can be compared
//                exactly.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/evaluator.hpp"
#include "src/model/nadaraya_watson.hpp"
#include "src/util/rng.hpp"

using namespace dovado;

namespace {

constexpr std::int64_t kDepthMin = 8;
constexpr std::int64_t kDepthMax = 507;  // 500 possible values
constexpr const char* kMetrics[] = {"ff", "lut", "fmax_mhz"};
constexpr const char* kLabels[] = {"FF", "LUT", "Frequency"};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: fig3_mse_convergence [--json FILE]\n");
      return 2;
    }
  }

  core::ProjectConfig project;
  project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                             hdl::HdlLanguage::kSystemVerilog, "work", false});
  project.top_module = "cv32e40p_fifo";
  project.part = "xc7k70tfbv676-1";
  project.target_period_ns = 1.0;  // 1 GHz target, per the paper
  core::PointEvaluator evaluator(project);

  // Ground truth over the whole 500-value space (the simulated tool is fast
  // enough to allow an exact reference).
  std::vector<std::array<double, 3>> truth(kDepthMax - kDepthMin + 1);
  std::array<double, 2> range_lo_hi[3] = {{1e18, -1e18}, {1e18, -1e18}, {1e18, -1e18}};
  for (std::int64_t depth = kDepthMin; depth <= kDepthMax; ++depth) {
    const auto r = evaluator.evaluate({{"DEPTH", depth}});
    for (int m = 0; m < 3; ++m) {
      const double v = r.metrics.get(kMetrics[m]);
      truth[static_cast<std::size_t>(depth - kDepthMin)][static_cast<std::size_t>(m)] = v;
      range_lo_hi[m][0] = std::min(range_lo_hi[m][0], v);
      range_lo_hi[m][1] = std::max(range_lo_hi[m][1], v);
    }
  }
  auto normalize = [&](int metric, double v) {
    const double lo = range_lo_hi[metric][0];
    const double hi = range_lo_hi[metric][1];
    return hi > lo ? (v - lo) / (hi - lo) : 0.0;
  };

  // Held-out test set: every 9th depth (56 points), never used for training.
  std::vector<std::int64_t> test_depths;
  for (std::int64_t d = kDepthMin + 4; d <= kDepthMax; d += 9) test_depths.push_back(d);

  // Training stream: random distinct depths, as the paper's synthetic
  // dataset generation samples randomly from the parameter range.
  std::vector<std::int64_t> pool;
  for (std::int64_t d = kDepthMin; d <= kDepthMax; ++d) {
    if (std::find(test_depths.begin(), test_depths.end(), d) == test_depths.end()) {
      pool.push_back(d);
    }
  }
  util::Rng rng(2021);
  rng.shuffle(pool);

  std::printf("Figure 3: NWM estimation MSE vs #samples (cv32e40p FIFO, xc7k70t)\n");
  std::printf("MSE on min-max normalized metrics, held-out test set of %zu points\n\n",
              test_depths.size());
  std::printf("%8s  %12s  %12s  %12s\n", "samples", "MSE(FF)", "MSE(LUTs)", "MSE(Freq)");

  model::Dataset dataset;
  std::vector<std::pair<std::size_t, std::array<double, 3>>> rows;
  std::size_t next = 0;
  std::array<double, 3> first_mse{};
  std::array<double, 3> last_mse{};
  for (std::size_t target : {5u, 10u, 20u, 30u, 40u, 60u, 80u, 100u}) {
    while (dataset.size() < target && next < pool.size()) {
      const std::int64_t depth = pool[next++];
      const auto& t = truth[static_cast<std::size_t>(depth - kDepthMin)];
      dataset.add({static_cast<double>(depth)},
                  {normalize(0, t[0]), normalize(1, t[1]), normalize(2, t[2])});
    }
    model::NadarayaWatson nwm;
    nwm.fit(dataset, model::select_bandwidths(dataset));

    std::array<double, 3> mse{};
    for (std::int64_t depth : test_depths) {
      const model::Values est = nwm.predict({static_cast<double>(depth)});
      const auto& t = truth[static_cast<std::size_t>(depth - kDepthMin)];
      for (int m = 0; m < 3; ++m) {
        const double err = est[static_cast<std::size_t>(m)] - normalize(m, t[static_cast<std::size_t>(m)]);
        mse[static_cast<std::size_t>(m)] += err * err;
      }
    }
    for (auto& v : mse) v /= static_cast<double>(test_depths.size());
    if (target == 5u) first_mse = mse;
    last_mse = mse;
    rows.emplace_back(dataset.size(), mse);
    std::printf("%8zu  %12.3e  %12.3e  %12.3e\n", dataset.size(), mse[0], mse[1], mse[2]);
  }

  std::printf("\npaper expectation vs measured:\n");
  std::printf("  - all MSE very low .......................... measured <= %.1e at 100 samples\n",
              std::max({last_mse[0], last_mse[1], last_mse[2]}));
  std::printf("  - frequency is the hardest metric .......... freq MSE %.1e vs FF %.1e, LUT %.1e\n",
              last_mse[2], last_mse[0], last_mse[1]);
  std::printf("  - MSE shrinks as the dataset grows ......... freq: %.1e -> %.1e\n",
              first_mse[2], last_mse[2]);
  if (json_path != nullptr) {
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "fig3_mse_convergence: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out, "{\"figure\": \"fig3_mse_convergence\", \"rows\": [\n");
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto& [samples, mse] = rows[r];
      std::fprintf(out,
                   "  {\"samples\": %zu, \"mse_ff\": %.17g, \"mse_lut\": %.17g, "
                   "\"mse_freq\": %.17g}%s\n",
                   samples, mse[0], mse[1], mse[2], r + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    if (std::fclose(out) != 0) {
      std::fprintf(stderr, "fig3_mse_convergence: cannot write %s\n", json_path);
      return 1;
    }
  }
  return 0;
}
