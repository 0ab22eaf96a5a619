// Cost of the EdaBackend indirection (see DESIGN.md "Backend abstraction &
// multi-fidelity screening"): routing a flow through the VivadoSimBackend
// adapter — virtual dispatch plus the FlowOutcome report copy — must be
// noise against the flow itself. Times identical flows driven directly on
// a VivadoSim session vs. through the EdaBackend interface and prints a
// JSON summary — the committed artifact bench/backend_dispatch.json is this
// program's output. The acceptance bar is < 1% dispatch overhead.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/edatool/backend.hpp"
#include "src/edatool/report.hpp"
#include "src/edatool/vivado_sim.hpp"
#include "src/edatool/vivado_sim_backend.hpp"
#include "src/tcl/frames.hpp"

namespace {

using namespace dovado;

tcl::FrameConfig fifo_frame() {
  tcl::FrameConfig frame;
  frame.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                           hdl::HdlLanguage::kSystemVerilog, "work", false});
  frame.box_path = std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv";
  frame.box_language = hdl::HdlLanguage::kSystemVerilog;
  frame.xdc_path = "box.xdc";
  frame.top = "cv32e40p_fifo";
  frame.part = "xc7k70tfbv676-1";
  frame.run_implementation = true;
  return frame;
}

const char kXdc[] = "create_clock -period 1.000 [get_ports clk_i]\n";

/// Both paths do the same downstream work the evaluator would: walk the
/// report chunks and parse the utilization table. The accumulated sum
/// keeps the compiler from discarding either loop.
std::int64_t consume(const std::vector<std::string>& reports) {
  std::int64_t sum = 0;
  for (const auto& chunk : reports) {
    if (const auto report = edatool::UtilizationReport::parse_checked(chunk).report) {
      sum += report->used("Slice LUTs");
    }
  }
  return sum;
}

/// Wall-clock nanoseconds per flow, one session per round; min-of-rounds
/// filters scheduler noise.
double ns_per_flow_raw(int evals, std::int64_t& sink) {
  edatool::VivadoSim sim;
  sim.add_virtual_file("box.xdc", kXdc);
  const std::string script = tcl::generate_flow_script(fifo_frame());
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < evals; ++i) {
    const tcl::EvalResult r = sim.run_script(script);
    if (!r.ok) return -1.0;
    sink += consume(sim.interp().output());
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count() /
         static_cast<double>(evals);
}

double ns_per_flow_adapter(int evals, std::int64_t& sink) {
  edatool::VivadoSimBackend backend;
  backend.add_virtual_file("box.xdc", kXdc);
  edatool::FlowRequest request;
  request.frame = fifo_frame();
  request.period_ns = 1.0;
  request.script = tcl::generate_flow_script(request.frame);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < evals; ++i) {
    const edatool::FlowOutcome outcome = backend.run_flow(request);
    if (!outcome.ok) return -1.0;
    sink += consume(outcome.reports);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count() /
         static_cast<double>(evals);
}

}  // namespace

int main() {
  constexpr int kRepeats = 10;
  constexpr int kEvals = 200;

  // Warm up allocator/page caches, then interleave the two paths per round
  // so machine drift hits both equally instead of biasing the first.
  std::int64_t sink = 0;
  (void)ns_per_flow_raw(kEvals, sink);
  double raw = 1e300;
  double adapter = 1e300;
  for (int round = 0; round < kRepeats; ++round) {
    raw = std::min(raw, ns_per_flow_raw(kEvals, sink));
    adapter = std::min(adapter, ns_per_flow_adapter(kEvals, sink));
  }
  if (raw <= 0.0 || adapter <= 0.0 || sink == 0) {
    std::fprintf(stderr, "flow failed\n");
    return 1;
  }

  const double overhead_pct = 100.0 * (adapter - raw) / raw;
  std::printf("{\n");
  std::printf("  \"benchmark\": \"micro_backend_dispatch\",\n");
  std::printf("  \"flows_per_round\": %d,\n", kEvals);
  std::printf("  \"rounds\": %d,\n", kRepeats);
  std::printf("  \"raw_ns_per_flow\": %.0f,\n", raw);
  std::printf("  \"adapter_ns_per_flow\": %.0f,\n", adapter);
  std::printf("  \"dispatch_overhead_percent\": %.2f,\n", overhead_pct);
  std::printf("  \"budget_percent\": 1.0,\n");
  std::printf("  \"within_budget\": %s\n", overhead_pct < 1.0 ? "true" : "false");
  std::printf("}\n");
  return 0;
}
