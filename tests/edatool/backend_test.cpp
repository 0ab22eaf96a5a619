// EdaBackend interface: registry, capability flags, and the analytic
// low-fidelity estimator's contract (deterministic, parameter-sensitive,
// same failure texts as the simulated tool).
#include "src/edatool/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "src/edatool/analytic_backend.hpp"
#include "src/edatool/report.hpp"
#include "src/edatool/vivado_sim_backend.hpp"
#include "src/tcl/frames.hpp"

namespace dovado::edatool {
namespace {

const char* kFifoPath = DOVADO_RTL_DIR "/cv32e40p_fifo.sv";

/// A flow frame that drives the FIFO directly as top (no boxing layer);
/// `depth` < 0 keeps the module's default parameterization via a direct
/// top, anything else goes through a wrapper registered as a virtual file.
tcl::FrameConfig fifo_frame() {
  tcl::FrameConfig frame;
  frame.sources.push_back({kFifoPath, hdl::HdlLanguage::kSystemVerilog, "work", false});
  frame.box_path = kFifoPath;
  frame.box_language = hdl::HdlLanguage::kSystemVerilog;
  frame.xdc_path = "box.xdc";
  frame.top = "cv32e40p_fifo";
  frame.part = "xc7k70tfbv676-1";
  frame.run_implementation = false;
  return frame;
}

std::string wrapper_box(std::int64_t depth) {
  return "module dovado_box(input wire clk_i);\n"
         "  cv32e40p_fifo #(.DEPTH(" +
         std::to_string(depth) + ")) u_box();\nendmodule\n";
}

FlowRequest fifo_request(const tcl::FrameConfig& frame) {
  FlowRequest request;
  request.frame = frame;
  request.period_ns = 1.0;
  request.script = tcl::generate_flow_script(frame);
  return request;
}

void add_clock_xdc(EdaBackend& backend) {
  backend.add_virtual_file("box.xdc",
                           "create_clock -period 1.000 [get_ports clk_i]\n");
}

std::int64_t used(const FlowOutcome& outcome, const std::string& site) {
  for (const auto& chunk : outcome.reports) {
    if (auto report = UtilizationReport::parse_checked(chunk).report) return report->used(site);
  }
  return -1;
}

TEST(BackendRegistry, ListsBuiltins) {
  const auto names = BackendRegistry::names();
  EXPECT_NE(std::find(names.begin(), names.end(), "vivado-sim"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "analytic"), names.end());
}

TEST(BackendRegistry, UnknownNameSuggestsClosest) {
  try {
    (void)BackendRegistry::create("vivado-sin");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown backend 'vivado-sin'"), std::string::npos) << message;
    EXPECT_NE(message.find("did you mean 'vivado-sim'"), std::string::npos) << message;
  }
}

TEST(BackendRegistry, CapabilityFlags) {
  const auto hifi = BackendRegistry::create("vivado-sim");
  EXPECT_EQ(hifi->info().name, "vivado-sim");
  EXPECT_EQ(hifi->info().fidelity, BackendFidelity::kHigh);
  EXPECT_TRUE(hifi->info().supports_implementation);
  EXPECT_TRUE(hifi->info().supports_fault_injection);

  const auto lofi = BackendRegistry::create("analytic");
  EXPECT_EQ(lofi->info().name, "analytic");
  EXPECT_EQ(lofi->info().fidelity, BackendFidelity::kLow);
  EXPECT_FALSE(lofi->info().supports_implementation);
}

TEST(BackendRegistry, MetricNamesAreTheStandardSet) {
  const auto backend = BackendRegistry::create("analytic");
  EXPECT_EQ(backend->metric_names(), standard_metric_names());
  const auto& names = backend->metric_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "lut"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "fmax_mhz"), names.end());
}

TEST(VivadoSimBackend, RunsFlowAndCountsIt) {
  VivadoSimBackend backend;
  add_clock_xdc(backend);
  const FlowOutcome outcome = backend.run_flow(fifo_request(fifo_frame()));
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_GT(outcome.tool_seconds, 0.0);
  EXPECT_EQ(backend.flows_run(), 1u);
  EXPECT_DOUBLE_EQ(backend.total_seconds(), outcome.tool_seconds);
  EXPECT_GT(used(outcome, "Slice Registers"), 0);
}

TEST(AnalyticBackend, DeterministicAcrossSessions) {
  AnalyticBackend a;
  AnalyticBackend b;
  const FlowRequest request = fifo_request(fifo_frame());
  const FlowOutcome ra = a.run_flow(request);
  const FlowOutcome rb = b.run_flow(request);
  ASSERT_TRUE(ra.ok) << ra.error;
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_EQ(ra.reports, rb.reports);  // byte-identical reports
  EXPECT_DOUBLE_EQ(ra.tool_seconds, rb.tool_seconds);
  EXPECT_EQ(a.flows_run(), 1u);
}

TEST(AnalyticBackend, MuchCheaperThanHighFidelity) {
  AnalyticBackend lofi;
  VivadoSimBackend hifi;
  add_clock_xdc(hifi);
  const FlowRequest request = fifo_request(fifo_frame());
  const FlowOutcome cheap = lofi.run_flow(request);
  const FlowOutcome full = hifi.run_flow(request);
  ASSERT_TRUE(cheap.ok) << cheap.error;
  ASSERT_TRUE(full.ok) << full.error;
  EXPECT_LT(cheap.tool_seconds * 100.0, full.tool_seconds);
}

TEST(AnalyticBackend, RespondsToParameterOverrides) {
  AnalyticBackend backend;
  tcl::FrameConfig frame = fifo_frame();
  frame.box_path = "dovado_box.v";
  frame.box_language = hdl::HdlLanguage::kVerilog;
  frame.top = "dovado_box";

  backend.add_virtual_file("dovado_box.v", wrapper_box(16));
  const FlowOutcome small = backend.run_flow(fifo_request(frame));
  backend.add_virtual_file("dovado_box.v", wrapper_box(512));
  const FlowOutcome large = backend.run_flow(fifo_request(frame));
  ASSERT_TRUE(small.ok) << small.error;
  ASSERT_TRUE(large.ok) << large.error;
  EXPECT_GT(used(large, "Slice Registers"), used(small, "Slice Registers"));
}

TEST(AnalyticBackend, InvalidPartFailsLikeTheTool) {
  AnalyticBackend backend;
  tcl::FrameConfig frame = fifo_frame();
  frame.part = "xc0nosuchpart";
  const FlowOutcome outcome = backend.run_flow(fifo_request(frame));
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("invalid part"), std::string::npos) << outcome.error;
}

TEST(AnalyticBackend, NoiseAmplitudeZeroMatchesCostModelExactly) {
  AnalyticBackend noisy;
  AnalyticBackend exact;
  exact.set_noise_amplitude(0.0);
  const FlowRequest request = fifo_request(fifo_frame());
  const FlowOutcome rn = noisy.run_flow(request);
  const FlowOutcome re = exact.run_flow(request);
  ASSERT_TRUE(rn.ok);
  ASSERT_TRUE(re.ok);
  // Default amplitude perturbs something for this design; zero does not.
  EXPECT_NE(rn.reports, re.reports);
}

TEST(CorruptReportText, GarblesDigitsAndPrependsWarning) {
  const std::string garbled = corrupt_report_text("| Slice LUTs | 1234 | 41000 |\n");
  EXPECT_NE(garbled.find("report stream interrupted"), std::string::npos);
  EXPECT_EQ(garbled.find("1234"), std::string::npos);
}

}  // namespace
}  // namespace dovado::edatool
