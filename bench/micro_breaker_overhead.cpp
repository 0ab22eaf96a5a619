// Clean-path cost of the backend health layer (see DESIGN.md "Availability
// & degradation ladder"): on a healthy backend the circuit breaker is one
// closed-state admission check plus one outcome report per fresh
// evaluation. Times fresh-point evaluations through the broker with and
// without a health manager attached and prints a JSON summary — the
// committed artifact bench/breaker_overhead.json is this program's output.
// The acceptance bar is < 1% overhead on the clean path.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "src/core/broker.hpp"
#include "src/core/health/manager.hpp"

namespace {

using namespace dovado;

core::ProjectConfig fifo_project() {
  core::ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                            hdl::HdlLanguage::kSystemVerilog, "work", false});
  config.top_module = "cv32e40p_fifo";
  config.part = "xc7k70tfbv676-1";
  config.target_period_ns = 1.0;
  return config;
}

/// Wall-clock nanoseconds per fresh evaluation (cache never hits); min of
/// the caller's rounds filters scheduler noise.
double ns_per_eval(bool with_breaker, int evals) {
  core::EvaluationBroker broker(
      fifo_project(), core::BrokerConfig{},
      with_breaker ? std::make_shared<core::BackendHealthManager>(core::BreakerConfig{})
                   : nullptr);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < evals; ++i) {
    const auto r = broker.tool_evaluate({{"DEPTH", 8 + i}});
    if (!r.ok) return -1.0;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count() /
         static_cast<double>(evals);
}

}  // namespace

int main() {
  constexpr int kRepeats = 24;
  constexpr int kEvals = 300;

  // Warm up allocator/page caches, then interleave the modes per round —
  // alternating which goes first — so machine drift hits both equally
  // instead of biasing one side.
  (void)ns_per_eval(false, kEvals);
  (void)ns_per_eval(true, kEvals);
  double bare = 1e300;
  double with_breaker = 1e300;
  for (int round = 0; round < kRepeats; ++round) {
    if (round % 2 == 0) {
      bare = std::min(bare, ns_per_eval(false, kEvals));
      with_breaker = std::min(with_breaker, ns_per_eval(true, kEvals));
    } else {
      with_breaker = std::min(with_breaker, ns_per_eval(true, kEvals));
      bare = std::min(bare, ns_per_eval(false, kEvals));
    }
  }
  if (bare <= 0.0 || with_breaker <= 0.0) {
    std::fprintf(stderr, "evaluation failed\n");
    return 1;
  }

  const double overhead_pct = 100.0 * (with_breaker - bare) / bare;
  std::printf("{\n");
  std::printf("  \"benchmark\": \"micro_breaker_overhead\",\n");
  std::printf("  \"evals_per_round\": %d,\n", kEvals);
  std::printf("  \"rounds\": %d,\n", kRepeats);
  std::printf("  \"bare_ns_per_eval\": %.0f,\n", bare);
  std::printf("  \"breaker_ns_per_eval\": %.0f,\n", with_breaker);
  std::printf("  \"breaker_overhead_percent\": %.2f,\n", overhead_pct);
  std::printf("  \"budget_percent\": 1.0,\n");
  std::printf("  \"within_budget\": %s\n", overhead_pct < 1.0 ? "true" : "false");
  std::printf("}\n");
  return 0;
}
