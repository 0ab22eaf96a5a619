// Property sweep of the boxing step over every shipped case study: at any
// in-domain design point the generated box must round-trip through our own
// front end and carry the exact parametrization.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/boxing/box.hpp"
#include "src/edatool/vivado_sim.hpp"
#include "src/hdl/frontend.hpp"
#include "src/util/strings.hpp"

namespace dovado::boxing {
namespace {

struct SweepCase {
  std::string label;
  std::string file;
  std::string top;
  util::FlatMap<std::int64_t> point;
};

std::vector<SweepCase> sweep_cases() {
  return {
      {"fifo_min", "cv32e40p_fifo.sv", "cv32e40p_fifo", {{"DEPTH", 1}}},
      {"fifo_big", "cv32e40p_fifo.sv", "cv32e40p_fifo", {{"DEPTH", 507}, {"DATA_WIDTH", 64}}},
      {"cq_small", "corundum_cq_manager.v", "cpl_queue_manager",
       {{"OP_TABLE_SIZE", 8}, {"QUEUE_INDEX_WIDTH", 4}, {"PIPELINE", 2}}},
      {"cq_big", "corundum_cq_manager.v", "cpl_queue_manager",
       {{"OP_TABLE_SIZE", 35}, {"QUEUE_INDEX_WIDTH", 7}, {"PIPELINE", 5}}},
      {"neorv_min", "neorv32_top.vhd", "neorv32_top",
       {{"MEM_INT_IMEM_SIZE", 1024}, {"MEM_INT_DMEM_SIZE", 1024}}},
      {"neorv_max", "neorv32_top.vhd", "neorv32_top",
       {{"MEM_INT_IMEM_SIZE", 32768}, {"MEM_INT_DMEM_SIZE", 32768}}},
      {"tirex_wide", "tirex_top.vhd", "tirex_top",
       {{"NCLUSTER", 8}, {"STACK_SIZE", 256}, {"INSTR_MEM_SIZE", 32}, {"DATA_MEM_SIZE", 32}}},
      {"systolic", "systolic_mm.sv", "systolic_mm", {{"ROWS", 8}, {"COLS", 2}}},
      {"switch", "axis_switch.v", "axis_switch", {{"PORTS", 8}, {"DATA_W", 128}}},
  };
}

class BoxingProperty : public ::testing::TestWithParam<SweepCase> {};

hdl::Module parse_module(const SweepCase& c) {
  auto parsed = hdl::parse_file(std::string(DOVADO_RTL_DIR) + "/" + c.file);
  EXPECT_TRUE(parsed.ok);
  const hdl::Module* m = parsed.file.find_module(c.top);
  EXPECT_NE(m, nullptr);
  return *m;
}

TEST_P(BoxingProperty, BoxGeneratesAndReparses) {
  const SweepCase& c = GetParam();
  const hdl::Module module = parse_module(c);
  BoxConfig config;
  config.parameters = c.point;
  const BoxResult box = generate_box(module, config);
  ASSERT_TRUE(box.ok) << box.error;

  // Round-trip: our own parser accepts the generated wrapper and finds a
  // single-port module named "box" with exactly the clk input.
  const auto reparsed = hdl::parse_source(box.box_source, box.language);
  ASSERT_TRUE(reparsed.ok);
  const hdl::Module* wrapper = reparsed.file.find_module("box");
  ASSERT_NE(wrapper, nullptr);
  ASSERT_EQ(wrapper->ports.size(), 1u);
  EXPECT_EQ(wrapper->ports[0].name, "clk");
  EXPECT_EQ(wrapper->ports[0].dir, hdl::PortDir::kIn);
}

TEST_P(BoxingProperty, InstantiationCarriesExactParameters) {
  const SweepCase& c = GetParam();
  const hdl::Module module = parse_module(c);
  BoxConfig config;
  config.parameters = c.point;
  const BoxResult box = generate_box(module, config);
  ASSERT_TRUE(box.ok) << box.error;

  const auto inst = edatool::extract_instantiation(box.box_source, box.language);
  ASSERT_TRUE(inst.ok) << inst.error;
  EXPECT_TRUE(util::iequals(inst.module, c.top));
  ASSERT_EQ(inst.params.size(), c.point.size());
  for (const auto& [name, value] : c.point) {
    ASSERT_TRUE(inst.params.count(name) == 1) << name;
    EXPECT_EQ(inst.params.at(name), value) << name;
  }
}

TEST_P(BoxingProperty, EveryModulePortIsWired) {
  const SweepCase& c = GetParam();
  const hdl::Module module = parse_module(c);
  BoxConfig config;
  config.parameters = c.point;
  const BoxResult box = generate_box(module, config);
  ASSERT_TRUE(box.ok) << box.error;
  for (const auto& port : module.ports) {
    EXPECT_TRUE(util::contains(box.box_source, port.name))
        << "port " << port.name << " missing from the box";
  }
}

INSTANTIATE_TEST_SUITE_P(
    CaseStudyPoints, BoxingProperty, ::testing::ValuesIn(sweep_cases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) { return info.param.label; });

}  // namespace
}  // namespace dovado::boxing
