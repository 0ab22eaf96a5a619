// Differential test of a simulated tool session: every generate_flow_script
// frame variant under every fault kind runs once through VivadoSim as
// shipped (its compiled tcl::Interp) and once through the reference copy of
// the on-the-fly interpreter (tests/tcl/reference_interp.hpp) driving the
// same tool commands of a second session. The emitted log (reports
// included), the variables, the errors and the simulated tool seconds must
// be identical.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/edatool/faults.hpp"
#include "src/edatool/vivado_sim.hpp"
#include "src/tcl/frames.hpp"
#include "tests/tcl/reference_interp.hpp"

namespace dovado::edatool {
namespace {

const std::map<std::string, std::string>& design_files() {
  static const std::map<std::string, std::string> kFiles = {
      {"counter.vhd", R"(
library ieee;
use ieee.std_logic_1164.all;
entity counter is
  generic (WIDTH : integer := 8);
  port (clk : in std_logic; count : out std_logic_vector(WIDTH-1 downto 0));
end counter;
)"},
      {"box.vhd", R"(
library ieee;
use ieee.std_logic_1164.all;
entity box is
  port (clk : in std_logic);
end entity box;
architecture box_arch of box is
  signal s_count : std_logic_vector(23 downto 0);
begin
  BOXED: entity work.counter
    generic map (WIDTH => 24)
    port map (clk => clk, count => s_count);
end architecture box_arch;
)"},
      {"box.v", R"(
module box (input wire clk);
  wire [23:0] s_q;
  counter #(.WIDTH(24)) BOXED (.clk(clk), .count(s_q));
endmodule
)"},
      {"box.xdc", "create_clock -period 2.500 -name clk [get_ports clk]\n"
                  "set_property IOSTANDARD LVCMOS33 [get_ports clk]\n"},
  };
  return kFiles;
}

tcl::FrameConfig frame(hdl::HdlLanguage box, bool impl, bool inc_synth, bool inc_impl) {
  tcl::FrameConfig config;
  config.sources = {{"counter.vhd", hdl::HdlLanguage::kVhdl, "work", false}};
  config.box_path = box == hdl::HdlLanguage::kVhdl ? "box.vhd" : "box.v";
  config.box_language = box;
  config.xdc_path = "box.xdc";
  config.top = "box";
  config.part = "xc7k70tfbv676-1";
  config.run_implementation = impl;
  config.incremental_synth = inc_synth;
  config.incremental_impl = inc_impl;
  return config;
}

std::shared_ptr<const FaultInjector> injector(FaultKind kind) {
  FaultPlan plan;
  plan.seed = 11;
  switch (kind) {
    case FaultKind::kNone: return nullptr;
    case FaultKind::kCrash: plan.crash_rate = 1.0; break;
    case FaultKind::kPersistentAbort: plan.abort_rate = 1.0; break;
    case FaultKind::kHang: plan.hang_rate = 1.0; break;
    case FaultKind::kCorruptReport: plan.corrupt_rate = 1.0; break;
  }
  return std::make_shared<FaultInjector>(plan);
}

/// What one run_script call leaves behind.
struct FlowRun {
  bool ok = false;
  std::string value;
  std::string error;
  std::vector<std::string> log;
  std::map<std::string, std::string> vars;
  double tool_seconds = 0.0;
  FaultKind fault = FaultKind::kNone;
  double period_ns = 0.0;
  bool routed = false;
};

void prepare(VivadoSim& sim, FaultKind kind) {
  for (const auto& [path, text] : design_files()) sim.add_virtual_file(path, text);
  sim.set_fault_injector(injector(kind));
}

/// Two runs of the script in one session (the second one finds the first
/// one's checkpoints), through the shipped interpreter.
std::vector<FlowRun> run_shipped(const std::string& script, FaultKind kind) {
  VivadoSim sim;
  prepare(sim, kind);
  std::vector<FlowRun> runs;
  for (int attempt = 0; attempt < 2; ++attempt) {
    sim.set_fault_context(0x5eed, attempt);
    const tcl::EvalResult r = sim.run_script(script);
    runs.push_back({r.ok, r.value, r.error, sim.interp().output(), sim.interp().variables(),
                    sim.last_run_seconds(), sim.last_fault(), sim.period_ns(), sim.routed()});
  }
  return runs;
}

/// The same two runs through the reference interpreter. The session's
/// run_script still decides faults and clears state; the script it runs is
/// a single command that hands the flow script to the reference, whose tool
/// commands are the session's own (called through Interp::invoke).
std::vector<FlowRun> run_reference(const std::string& script, FaultKind kind) {
  VivadoSim sim;
  prepare(sim, kind);
  tcl::reference::Interp ref;
  for (const char* name :
       {"read_vhdl", "read_verilog", "create_clock", "get_ports", "get_nets", "set_property",
        "synth_design", "opt_design", "place_design", "route_design", "write_checkpoint",
        "read_checkpoint", "report_utilization", "report_timing", "report_power"}) {
    ref.register_command(name, [&sim](tcl::reference::Interp& in,
                                      const std::vector<std::string>& words) -> std::string {
      tcl::Interp& tool = sim.interp();
      const std::size_t logged = tool.output().size();
      auto forward_log = [&] {
        for (std::size_t i = logged; i < tool.output().size(); ++i) in.emit(tool.output()[i]);
      };
      try {
        std::string value = tool.invoke(words);
        forward_log();
        return value;
      } catch (const tcl::TclError& e) {
        forward_log();
        tcl::reference::Interp::fail(e.message);
      }
    });
  }
  ref.register_command("read_xdc", [](tcl::reference::Interp& in,
                                      const std::vector<std::string>& words) -> std::string {
    const auto file = design_files().find(words.back());
    if (file == design_files().end()) {
      tcl::reference::Interp::fail("ERROR: [Common 17-55] file not found: " + words.back());
    }
    in.eval_or_throw(file->second);
    return {};
  });

  tcl::EvalResult flow;
  bool flow_ran = false;
  sim.interp().register_command(
      "reference_flow", [&](tcl::Interp&, const std::vector<std::string>&) -> std::string {
        ref.clear_output();
        const auto r = ref.eval(script);
        flow = {r.ok, r.value, r.error};
        flow_ran = true;
        return {};
      });

  std::vector<FlowRun> runs;
  for (int attempt = 0; attempt < 2; ++attempt) {
    sim.set_fault_context(0x5eed, attempt);
    flow_ran = false;
    const tcl::EvalResult session = sim.run_script("reference_flow");
    const tcl::EvalResult& r = flow_ran ? flow : session;
    runs.push_back({r.ok, r.value, r.error, flow_ran ? ref.output() : sim.interp().output(),
                    ref.variables(), sim.last_run_seconds(), sim.last_fault(), sim.period_ns(),
                    sim.routed()});
  }
  return runs;
}

TEST(VivadoSimDifferential, EveryFrameVariantUnderEveryFaultMatchesTheReference) {
  int compared = 0;
  for (const auto box : {hdl::HdlLanguage::kVhdl, hdl::HdlLanguage::kVerilog,
                         hdl::HdlLanguage::kSystemVerilog}) {
    for (const bool impl : {false, true}) {
      for (const bool inc_synth : {false, true}) {
        for (const bool inc_impl : {false, true}) {
          const std::string script =
              tcl::generate_flow_script(frame(box, impl, inc_synth, inc_impl));
          for (const auto kind : {FaultKind::kNone, FaultKind::kCrash,
                                  FaultKind::kPersistentAbort, FaultKind::kHang,
                                  FaultKind::kCorruptReport}) {
            SCOPED_TRACE(script + "fault " + std::to_string(static_cast<int>(kind)));
            const std::vector<FlowRun> shipped = run_shipped(script, kind);
            const std::vector<FlowRun> reference = run_reference(script, kind);
            ASSERT_EQ(shipped.size(), reference.size());
            for (std::size_t i = 0; i < shipped.size(); ++i) {
              const FlowRun& got = shipped[i];
              const FlowRun& want = reference[i];
              EXPECT_EQ(got.fault, kind);
              EXPECT_EQ(got.ok, want.ok);
              EXPECT_EQ(got.value, want.value);
              EXPECT_EQ(got.error, want.error);
              EXPECT_EQ(got.log, want.log);
              EXPECT_EQ(got.vars, want.vars);
              EXPECT_EQ(got.tool_seconds, want.tool_seconds);  // bit-identical
              EXPECT_EQ(got.period_ns, want.period_ns);
              EXPECT_EQ(got.routed, want.routed);
              // A clean run must really have run the flow.
              if (kind == FaultKind::kNone) {
                EXPECT_TRUE(got.ok) << got.error;
                EXPECT_EQ(got.period_ns, 2.5);
              }
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 24 * 5 * 2);
}

}  // namespace
}  // namespace dovado::edatool
