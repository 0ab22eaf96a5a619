#include "src/edatool/vivado_sim.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "src/util/strings.hpp"

namespace dovado::edatool {
namespace {

// A handmade VHDL box around the counter generator-module.
const char* kVhdlBox = R"(
library ieee;
use ieee.std_logic_1164.all;

entity box is
  port (clk : in std_logic);
end entity box;

architecture box_arch of box is
  attribute DONT_TOUCH : string;
  attribute DONT_TOUCH of BOXED : label is "TRUE";
  signal s_count : std_logic_vector(15 downto 0);
begin
  BOXED: entity work.counter
    generic map (WIDTH => 16)
    port map (
      clk => clk,
      count => s_count
    );
end architecture box_arch;
)";

const char* kVhdlCounter = R"(
library ieee;
use ieee.std_logic_1164.all;
entity counter is
  generic (WIDTH : integer := 8);
  port (clk : in std_logic; count : out std_logic_vector(WIDTH-1 downto 0));
end counter;
)";

const char* kVerilogBox = R"(
module box (
  input wire clk
);
  wire [15:0] s_q;
  (* DONT_TOUCH = "TRUE" *)
  counter #(
    .WIDTH(16)
  ) BOXED (
    .clk(clk),
    .count(s_q)
  );
endmodule
)";

void load_counter_files(VivadoSim& sim) {
  sim.add_virtual_file("counter.vhd", kVhdlCounter);
  sim.add_virtual_file("box.vhd", kVhdlBox);
  sim.add_virtual_file("box.xdc", "create_clock -period 1.000 -name clk [get_ports clk]\n");
}

TEST(ExtractInstantiation, VhdlGenericMap) {
  const auto inst = extract_instantiation(kVhdlBox, hdl::HdlLanguage::kVhdl);
  ASSERT_TRUE(inst.ok) << inst.error;
  EXPECT_EQ(inst.module, "counter");
  ASSERT_EQ(inst.params.size(), 1u);
  EXPECT_EQ(inst.params.at("WIDTH"), 16);
}

TEST(ExtractInstantiation, VhdlWithoutGenericMap) {
  const char* box = R"(
entity box is port (clk : in std_logic); end box;
architecture a of box is
begin
  BOXED: entity work.thing port map (clk => clk);
end a;
)";
  const auto inst = extract_instantiation(box, hdl::HdlLanguage::kVhdl);
  ASSERT_TRUE(inst.ok);
  EXPECT_EQ(inst.module, "thing");
  EXPECT_TRUE(inst.params.empty());
}

TEST(ExtractInstantiation, VerilogHashParams) {
  const auto inst = extract_instantiation(kVerilogBox, hdl::HdlLanguage::kVerilog);
  ASSERT_TRUE(inst.ok) << inst.error;
  EXPECT_EQ(inst.module, "counter");
  EXPECT_EQ(inst.params.at("WIDTH"), 16);
}

TEST(ExtractInstantiation, VerilogNoParams) {
  const char* box = R"(
module box(input wire clk);
  wire w;
  thing BOXED ( .clk(clk), .q(w) );
endmodule
)";
  const auto inst = extract_instantiation(box, hdl::HdlLanguage::kVerilog);
  ASSERT_TRUE(inst.ok);
  EXPECT_EQ(inst.module, "thing");
  EXPECT_TRUE(inst.params.empty());
}

TEST(ExtractInstantiation, NoInstanceFails) {
  EXPECT_FALSE(extract_instantiation("entity e is end e;", hdl::HdlLanguage::kVhdl).ok);
  EXPECT_FALSE(
      extract_instantiation("module m(input wire c); endmodule", hdl::HdlLanguage::kVerilog)
          .ok);
}

TEST(VivadoSim, FullSynthesisFlow) {
  VivadoSim sim;
  load_counter_files(sim);
  const auto r = sim.run_script(R"(
read_vhdl {counter.vhd}
read_vhdl {box.vhd}
read_xdc {box.xdc}
synth_design -top box -part xc7k70tfbv676-1 -directive {Default}
report_utilization
report_timing
)");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(sim.mapped().has_value());
  EXPECT_EQ(sim.mapped()->util.ff, 16);  // counter WIDTH=16 from the box
  EXPECT_FALSE(sim.routed());
  EXPECT_EQ(sim.synthesis_runs(), 1);
  EXPECT_DOUBLE_EQ(sim.period_ns(), 1.0);
  EXPECT_GT(sim.last_run_seconds(), 0.0);

  // Reports are in the captured output and parse back.
  bool found_util = false;
  bool found_timing = false;
  for (const auto& chunk : sim.interp().output()) {
    if (UtilizationReport::parse_checked(chunk).report) found_util = true;
    if (TimingReport::parse_checked(chunk).report) found_timing = true;
  }
  EXPECT_TRUE(found_util);
  EXPECT_TRUE(found_timing);
}

TEST(VivadoSim, ReadXdcWithCrlfLineEndings) {
  // A carriage return separates words like a space: `set period 3.125 \r`
  // has two arguments, not a third "\r".
  VivadoSim sim;
  load_counter_files(sim);
  sim.add_virtual_file("crlf.xdc",
                       "set period 3.125 \r\n"
                       "create_clock -name clk -period $period [get_ports clk]\r\n"
                       "set_property IOSTANDARD LVCMOS33 [get_ports {clk rst}]\r\n");
  const auto r = sim.run_script("read_xdc {crlf.xdc}\r\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(sim.period_ns(), 3.125);
}

TEST(VivadoSim, ReadsSourcesAndConstraintsFromDisk) {
  // Disk files go through the session's read buffer: the source read after
  // the constraint file must not disturb the constraints already run, and a
  // second run re-reads both.
  const std::string dir = ::testing::TempDir();
  const std::string counter_path = dir + "disk_counter.vhd";
  const std::string box_path = dir + "disk_box.vhd";
  const std::string xdc_path = dir + "disk_box.xdc";
  const std::string empty_path = dir + "disk_empty.xdc";
  for (const auto& [path, text] :
       {std::pair<std::string, std::string>{counter_path, kVhdlCounter},
        {box_path, kVhdlBox},
        {xdc_path, "set period 2.500\ncreate_clock -period $period -name clk [get_ports clk]\n"},
        {empty_path, ""}}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);
  }
  VivadoSim sim;
  const std::string script = "read_xdc {" + xdc_path + "}\nread_xdc {" + empty_path +
                             "}\nread_vhdl {" + counter_path + "}\nread_vhdl {" + box_path +
                             "}\nsynth_design -top box -part xc7k70tfbv676-1\n";
  for (int run = 0; run < 2; ++run) {
    const auto r = sim.run_script(script);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_DOUBLE_EQ(sim.period_ns(), 2.5);
    ASSERT_TRUE(sim.mapped().has_value());
    EXPECT_EQ(sim.mapped()->util.ff, 16);
  }
  EXPECT_EQ(sim.source_parses(), 2);
  for (const std::string& path : {counter_path, box_path, xdc_path, empty_path}) {
    std::remove(path.c_str());
  }
}

TEST(VivadoSim, FullImplementationFlow) {
  VivadoSim sim;
  load_counter_files(sim);
  const auto r = sim.run_script(R"(
read_vhdl {counter.vhd}
read_vhdl {box.vhd}
read_xdc {box.xdc}
synth_design -top box -part xc7k70tfbv676-1 -directive {Default}
opt_design
place_design -directive {Default}
route_design -directive {Default}
report_utilization
report_timing
)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(sim.routed());
  // Routed timing is worse than the synthesis estimate for the same design.
  VivadoSim synth_only;
  load_counter_files(synth_only);
  auto r2 = synth_only.run_script(R"(
read_vhdl {counter.vhd}
read_vhdl {box.vhd}
read_xdc {box.xdc}
synth_design -top box -part xc7k70tfbv676-1 -directive {Default}
)");
  ASSERT_TRUE(r2.ok);
  EXPECT_GT(sim.last_timing().data_path_ns, synth_only.last_timing().data_path_ns);
}

TEST(VivadoSim, DirectTopWithGeneratorModel) {
  // A module with a registered generator can be the top itself (no box).
  VivadoSim sim;
  sim.add_virtual_file("counter.vhd", kVhdlCounter);
  const auto r = sim.run_script(
      "read_vhdl {counter.vhd}\n"
      "synth_design -top counter -part xc7k70t -directive {Default}\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(sim.mapped()->util.ff, 8);  // default WIDTH
}

TEST(VivadoSim, ErrorsAreVivadoStyle) {
  VivadoSim sim;
  load_counter_files(sim);
  auto missing_part = sim.run_script(
      "read_vhdl {counter.vhd}\nsynth_design -top counter -part nonexistent-part\n");
  EXPECT_FALSE(missing_part.ok);
  EXPECT_TRUE(util::contains(missing_part.error, "invalid part"));

  auto missing_top = sim.run_script("synth_design -top ghost -part xc7k70t\n");
  EXPECT_FALSE(missing_top.ok);
  EXPECT_TRUE(util::contains(missing_top.error, "ghost"));

  auto missing_file = sim.run_script("read_vhdl {no_such_file.vhd}\n");
  EXPECT_FALSE(missing_file.ok);
  EXPECT_TRUE(util::contains(missing_file.error, "not found"));

  auto early_place = sim.run_script("place_design\n");
  EXPECT_FALSE(early_place.ok);

  auto early_report = VivadoSim().run_script("report_utilization\n");
  EXPECT_FALSE(early_report.ok);
}

TEST(VivadoSim, OverUtilizationFailsAtPlacement) {
  VivadoSim sim;
  // counter WIDTH huge -> FF over-utilization on a small part.
  sim.add_virtual_file("counter.vhd", kVhdlCounter);
  sim.add_virtual_file("box.xdc", "create_clock -period 1.0 [get_ports clk]\n");
  const auto r = sim.run_script(
      "read_vhdl {counter.vhd}\n"
      "read_xdc {box.xdc}\n"
      "synth_design -top counter -part xc7a35t -directive {Default}\n"
      "place_design\n");
  // WIDTH default (8) fits: adapt by... actually verify it fits first.
  ASSERT_TRUE(r.ok) << r.error;

  // Now force over-utilization through a box with an enormous width.
  const std::string big_box = util::replace_all(kVhdlBox, "WIDTH => 16", "WIDTH => 99999");
  VivadoSim sim2;
  sim2.add_virtual_file("counter.vhd", kVhdlCounter);
  sim2.add_virtual_file("box.vhd", big_box);
  const auto r2 = sim2.run_script(
      "read_vhdl {counter.vhd}\n"
      "read_vhdl {box.vhd}\n"
      "synth_design -top box -part xc7a35t -directive {Default}\n"
      "place_design\n");
  EXPECT_FALSE(r2.ok);
  EXPECT_TRUE(util::contains(r2.error, "Place 30-640")) << r2.error;
}

TEST(VivadoSim, IncrementalSynthesisReusesCheckpoint) {
  VivadoSim sim;
  load_counter_files(sim);
  const char* first = R"(
read_vhdl {counter.vhd}
read_vhdl {box.vhd}
read_xdc {box.xdc}
synth_design -top box -part xc7k70t -directive {Default}
write_checkpoint -force {post_synth.dcp}
)";
  ASSERT_TRUE(sim.run_script(first).ok);
  const double flat_seconds = sim.last_run_seconds();

  // Second run with -incremental: same design, near-total reuse.
  const char* second = R"(
read_vhdl {counter.vhd}
read_vhdl {box.vhd}
read_xdc {box.xdc}
synth_design -top box -part xc7k70t -directive {Default} -incremental {post_synth.dcp}
write_checkpoint -force {post_synth.dcp}
)";
  ASSERT_TRUE(sim.run_script(second).ok);
  EXPECT_LT(sim.last_run_seconds(), 0.75 * flat_seconds);
}

TEST(VivadoSim, MissingCheckpointWarnsAndContinues) {
  VivadoSim sim;
  load_counter_files(sim);
  const auto r = sim.run_script(
      "read_vhdl {counter.vhd}\nread_vhdl {box.vhd}\n"
      "synth_design -top box -part xc7k70t\n"
      "read_checkpoint -incremental {never_written.dcp}\n");
  ASSERT_TRUE(r.ok) << r.error;
  bool warned = false;
  for (const auto& line : sim.interp().output()) {
    warned |= util::contains(line, "WARNING");
  }
  EXPECT_TRUE(warned);
}

TEST(VivadoSim, RuntimeAccumulates) {
  VivadoSim sim;
  load_counter_files(sim);
  ASSERT_TRUE(sim
                  .run_script("read_vhdl {counter.vhd}\nread_vhdl {box.vhd}\n"
                              "synth_design -top box -part xc7k70t\n")
                  .ok);
  const double after_one = sim.total_seconds();
  EXPECT_GT(after_one, 0.0);
  ASSERT_TRUE(sim.run_script("synth_design -top box -part xc7k70t\n").ok);
  EXPECT_GT(sim.total_seconds(), after_one);
}

TEST(VivadoSim, UramReportedOnlyOnUramParts) {
  VivadoSim sim;
  load_counter_files(sim);
  ASSERT_TRUE(sim
                  .run_script("read_vhdl {counter.vhd}\nread_vhdl {box.vhd}\n"
                              "synth_design -top box -part xc7k70t\nreport_utilization\n")
                  .ok);
  bool has_uram_row = false;
  for (const auto& chunk : sim.interp().output()) {
    if (auto rep = UtilizationReport::parse_checked(chunk).report) {
      has_uram_row |= (rep->find("URAM") != nullptr);
    }
  }
  EXPECT_FALSE(has_uram_row);

  VivadoSim sim2;
  load_counter_files(sim2);
  ASSERT_TRUE(sim2
                  .run_script("read_vhdl {counter.vhd}\nread_vhdl {box.vhd}\n"
                              "synth_design -top box -part xcvu9p\nreport_utilization\n")
                  .ok);
  bool vu9p_has_uram = false;
  for (const auto& chunk : sim2.interp().output()) {
    if (auto rep = UtilizationReport::parse_checked(chunk).report) {
      vu9p_has_uram |= (rep->find("URAM") != nullptr);
    }
  }
  EXPECT_TRUE(vu9p_has_uram);
}

TEST(VivadoSim, DeterministicResults) {
  auto run_once = [] {
    VivadoSim sim;
  load_counter_files(sim);
    EXPECT_TRUE(sim
                    .run_script("read_vhdl {counter.vhd}\nread_vhdl {box.vhd}\n"
                                "read_xdc {box.xdc}\n"
                                "synth_design -top box -part xc7k70t\n"
                                "opt_design\nplace_design\nroute_design\n")
                    .ok);
    return sim.last_timing().data_path_ns;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dovado::edatool
