#include "src/core/evaluator.hpp"

#include "src/core/dse.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dovado::core {
namespace {

ProjectConfig fifo_project() {
  ProjectConfig config;
  config.sources.push_back(
      {std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv", hdl::HdlLanguage::kSystemVerilog,
       "work", false});
  config.top_module = "cv32e40p_fifo";
  config.part = "xc7k70tfbv676-1";
  config.target_period_ns = 1.0;
  return config;
}

ProjectConfig neorv32_project() {
  ProjectConfig config;
  config.sources.push_back(
      {std::string(DOVADO_RTL_DIR) + "/neorv32_top.vhd", hdl::HdlLanguage::kVhdl, "work",
       false});
  config.top_module = "neorv32_top";
  config.part = "xc7k70t";
  return config;
}

TEST(PointEvaluator, ParsesTopModule) {
  PointEvaluator evaluator(fifo_project());
  EXPECT_EQ(evaluator.module().name, "cv32e40p_fifo");
  const auto params = evaluator.free_parameters();
  // FALL_THROUGH, DATA_WIDTH, DEPTH are free; ADDR_DEPTH is a localparam.
  EXPECT_EQ(params.size(), 3u);
}

TEST(PointEvaluator, MissingTopThrows) {
  ProjectConfig config = fifo_project();
  config.top_module = "nonexistent";
  EXPECT_THROW(PointEvaluator{config}, std::runtime_error);
}

TEST(PointEvaluator, MissingFileThrows) {
  ProjectConfig config = fifo_project();
  config.sources[0].path = "/no/such/file.sv";
  EXPECT_THROW(PointEvaluator{config}, std::runtime_error);
}

// The flow frame is validated once, by the constructor; an invalid one
// still fails every point, with no tool run.
TEST(PointEvaluator, InvalidFlowFrameFailsEveryPoint) {
  ProjectConfig config = fifo_project();
  config.part.clear();
  PointEvaluator evaluator(config);
  for (const std::int64_t depth : {64, 128}) {
    const EvalResult r = evaluator.evaluate({{"DEPTH", depth}});
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "invalid flow configuration: no target part specified");
  }
  EXPECT_EQ(evaluator.backend().flows_run(), 0u);
}

TEST(PointEvaluator, EvaluatesFifoPoint) {
  PointEvaluator evaluator(fifo_project());
  const EvalResult r = evaluator.evaluate({{"DEPTH", 64}});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.cache_hit);
  EXPECT_GT(r.tool_seconds, 0.0);
  // FF-based FIFO: 64 x 32 storage plus pointers.
  EXPECT_GT(r.metrics.get("ff"), 2048);
  EXPECT_GT(r.metrics.get("lut"), 0);
  EXPECT_GT(r.metrics.get("fmax_mhz"), 50.0);
  EXPECT_LT(r.metrics.get("fmax_mhz"), 1000.0);
  EXPECT_LT(r.metrics.get("wns_ns"), 0.0);  // 1 GHz is not achievable
  // No URAM key on a Kintex-7 (device-dependent resources only if present).
  EXPECT_EQ(r.metrics.values.count("uram"), 0u);
}

TEST(PointEvaluator, DeeperFifoUsesMoreResources) {
  PointEvaluator evaluator(fifo_project());
  const auto small = evaluator.evaluate({{"DEPTH", 16}});
  const auto large = evaluator.evaluate({{"DEPTH", 512}});
  ASSERT_TRUE(small.ok);
  ASSERT_TRUE(large.ok);
  EXPECT_GT(large.metrics.get("ff"), small.metrics.get("ff"));
  EXPECT_GT(large.metrics.get("lut"), small.metrics.get("lut"));
  EXPECT_LT(large.metrics.get("fmax_mhz"), small.metrics.get("fmax_mhz"));
}

TEST(PointEvaluator, CacheHitsAreFreeAndIdentical) {
  PointEvaluator evaluator(fifo_project());
  const auto first = evaluator.evaluate({{"DEPTH", 32}});
  const double seconds_after_first = evaluator.tool_seconds();
  const auto second = evaluator.evaluate({{"DEPTH", 32}});
  EXPECT_TRUE(second.cache_hit);
  EXPECT_DOUBLE_EQ(second.tool_seconds, 0.0);
  EXPECT_EQ(first.metrics.values, second.metrics.values);
  EXPECT_DOUBLE_EQ(evaluator.tool_seconds(), seconds_after_first);
}

TEST(PointEvaluator, SharedCacheAcrossEvaluators) {
  auto cache = std::make_shared<EvaluationCache>();
  PointEvaluator a(fifo_project(), cache);
  PointEvaluator b(fifo_project(), cache);
  ASSERT_TRUE(a.evaluate({{"DEPTH", 48}}).ok);
  const auto hit = b.evaluate({{"DEPTH", 48}});
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(cache->size(), 1u);
}

TEST(PointEvaluator, InvalidParameterFailsCleanly) {
  PointEvaluator evaluator(fifo_project());
  const auto r = evaluator.evaluate({{"NO_SUCH_PARAM", 1}});
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  // Deterministic failure: the retry is answered from the cache, not re-run.
  const auto again = evaluator.evaluate({{"NO_SUCH_PARAM", 1}});
  EXPECT_FALSE(again.ok);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.error, r.error);
}

TEST(PointEvaluator, BoxingFailuresAreCached) {
  // A bad clock-port override fails at the boxing step, before the tool
  // ever launches. The failure is deterministic for the point, so it must
  // be memoized — the old behaviour re-ran the doomed pipeline every time
  // the GA resampled the point.
  ProjectConfig config = fifo_project();
  config.clock_port = "no_such_port";
  PointEvaluator evaluator(config);
  const auto first = evaluator.evaluate({{"DEPTH", 16}});
  EXPECT_FALSE(first.ok);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_NE(first.error.find("no_such_port"), std::string::npos) << first.error;
  const auto second = evaluator.evaluate({{"DEPTH", 16}});
  EXPECT_FALSE(second.ok);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.error, first.error);
  EXPECT_EQ(evaluator.cache()->size(), 1u);
  // No tool time was ever paid for this point.
  EXPECT_EQ(evaluator.backend().flows_run(), 0u);
  EXPECT_DOUBLE_EQ(evaluator.tool_seconds(), 0.0);
}

TEST(PointEvaluator, VhdlProjectEvaluates) {
  PointEvaluator evaluator(neorv32_project());
  const auto r = evaluator.evaluate(
      {{"MEM_INT_IMEM_SIZE", 16384}, {"MEM_INT_DMEM_SIZE", 8192}});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.metrics.get("bram"), 0);
  EXPECT_GT(r.metrics.get("lut"), 2000);
}

TEST(PointEvaluator, Neorv32BramJump) {
  // Fig. 5's observation end-to-end through the full pipeline.
  PointEvaluator evaluator(neorv32_project());
  const auto small = evaluator.evaluate(
      {{"MEM_INT_IMEM_SIZE", 1 << 14}, {"MEM_INT_DMEM_SIZE", 1 << 13}});
  const auto big = evaluator.evaluate(
      {{"MEM_INT_IMEM_SIZE", 1 << 15}, {"MEM_INT_DMEM_SIZE", 1 << 15}});
  ASSERT_TRUE(small.ok);
  ASSERT_TRUE(big.ok);
  EXPECT_GE(big.metrics.get("bram"), 2.0 * small.metrics.get("bram"));
  EXPECT_NEAR(big.metrics.get("lut"), small.metrics.get("lut"),
              0.05 * small.metrics.get("lut"));
}

TEST(PointEvaluator, SynthesisOnlyFlow) {
  ProjectConfig config = fifo_project();
  config.run_implementation = false;
  PointEvaluator evaluator(config);
  const auto r = evaluator.evaluate({{"DEPTH", 64}});
  ASSERT_TRUE(r.ok) << r.error;
  // Synthesis estimates are optimistic vs the routed result.
  PointEvaluator routed(fifo_project());
  const auto impl = routed.evaluate({{"DEPTH", 64}});
  EXPECT_GT(r.metrics.get("fmax_mhz"), impl.metrics.get("fmax_mhz"));
}

TEST(PointEvaluator, DirectivesShiftResults) {
  ProjectConfig area = fifo_project();
  area.synth_directive = "AreaOptimized_high";
  ProjectConfig perf = fifo_project();
  perf.synth_directive = "PerformanceOptimized";
  const auto r_area = PointEvaluator(area).evaluate({{"DEPTH", 256}});
  const auto r_perf = PointEvaluator(perf).evaluate({{"DEPTH", 256}});
  ASSERT_TRUE(r_area.ok);
  ASSERT_TRUE(r_perf.ok);
  EXPECT_LT(r_area.metrics.get("lut"), r_perf.metrics.get("lut"));
  EXPECT_GT(r_perf.metrics.get("fmax_mhz"), r_area.metrics.get("fmax_mhz"));
}

TEST(PointEvaluator, IncrementalFlowSavesTime) {
  ProjectConfig flat = fifo_project();
  PointEvaluator flat_eval(flat);
  ASSERT_TRUE(flat_eval.evaluate({{"DEPTH", 100}}).ok);
  ASSERT_TRUE(flat_eval.evaluate({{"DEPTH", 101}}).ok);
  const double flat_seconds = flat_eval.tool_seconds();

  ProjectConfig incremental = fifo_project();
  incremental.incremental_synth = true;
  PointEvaluator inc_eval(incremental);
  ASSERT_TRUE(inc_eval.evaluate({{"DEPTH", 100}}).ok);
  ASSERT_TRUE(inc_eval.evaluate({{"DEPTH", 101}}).ok);
  EXPECT_LT(inc_eval.tool_seconds(), flat_seconds);
}

TEST(PointEvaluator, DeterministicAcrossInstances) {
  const auto a = PointEvaluator(fifo_project()).evaluate({{"DEPTH", 77}});
  const auto b = PointEvaluator(fifo_project()).evaluate({{"DEPTH", 77}});
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.metrics.values, b.metrics.values);
}

TEST(PointEvaluator, PowerMetricsExtracted) {
  PointEvaluator evaluator(fifo_project());
  const auto r = evaluator.evaluate({{"DEPTH", 128}});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.metrics.get("power_w"), 0.0);
  EXPECT_NEAR(r.metrics.get("power_w"),
              r.metrics.get("power_static_w") + r.metrics.get("power_dynamic_w"), 1e-6);
  // More logic toggling at a similar clock -> more power than a tiny FIFO.
  const auto small = evaluator.evaluate({{"DEPTH", 8}});
  EXPECT_GT(r.metrics.get("power_dynamic_w"), small.metrics.get("power_dynamic_w"));
}

TEST(PointEvaluator, PowerUsableAsObjective) {
  // End-to-end: a power-aware DSE configuration validates and runs.
  DseConfig config;
  config.space.params.push_back({"DEPTH", ParamDomain::range(8, 64)});
  config.objectives = {{"power_w", false}, {"fmax_mhz", true}};
  config.ga.population_size = 8;
  config.ga.max_generations = 4;
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();
  ASSERT_FALSE(result.pareto.empty());
  for (const auto& p : result.pareto) {
    EXPECT_GT(p.metrics.get("power_w"), 0.0);
  }
}

TEST(PointEvaluator, SystolicArrayDspMetrics) {
  ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/systolic_mm.sv",
                            hdl::HdlLanguage::kSystemVerilog, "work", false});
  config.top_module = "systolic_mm";
  config.part = "xc7k70t";
  PointEvaluator evaluator(config);
  const auto r = evaluator.evaluate({{"ROWS", 4}, {"COLS", 4}});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.metrics.get("dsp"), 16.0);

  // DSP over-utilization: 16x16 = 256 DSP MACs exceed an Artix-7's 90.
  ProjectConfig small = config;
  small.part = "xc7a35t";
  PointEvaluator small_eval(small);
  const auto fail = small_eval.evaluate({{"ROWS", 16}, {"COLS", 16}});
  EXPECT_FALSE(fail.ok);
  EXPECT_NE(fail.error.find("DSP"), std::string::npos) << fail.error;
}

TEST(PointEvaluator, AxisSwitchCongestionSlowsBigConfigs) {
  ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/axis_switch.v",
                            hdl::HdlLanguage::kVerilog, "work", false});
  config.top_module = "axis_switch";
  config.part = "xc7k70t";
  PointEvaluator evaluator(config);
  const auto small = evaluator.evaluate({{"PORTS", 4}});
  const auto large = evaluator.evaluate({{"PORTS", 16}});
  ASSERT_TRUE(small.ok) << small.error;
  ASSERT_TRUE(large.ok) << large.error;
  EXPECT_GT(large.metrics.get("lut"), 4.0 * small.metrics.get("lut"));
  EXPECT_LT(large.metrics.get("fmax_mhz"), small.metrics.get("fmax_mhz"));
}

TEST(PointEvaluator, UramMetricOnUramDevice) {
  ProjectConfig config = fifo_project();
  config.part = "xcvu9p";
  PointEvaluator evaluator(config);
  const auto r = evaluator.evaluate({{"DEPTH", 16}});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.metrics.values.count("uram"), 1u);
}

}  // namespace
}  // namespace dovado::core
