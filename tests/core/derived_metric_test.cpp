#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "src/core/dse.hpp"

namespace dovado::core {
namespace {

ProjectConfig tirex_project() {
  ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/tirex_top.vhd",
                            hdl::HdlLanguage::kVhdl, "work", false});
  config.top_module = "tirex_top";
  config.part = "xc7k70t";
  config.target_period_ns = 1.0;
  return config;
}

DerivedMetric throughput_metric() {
  // Static performance model: each cluster consumes one character per
  // cycle, so throughput (Mchar/s) = fmax * NCLUSTER.
  return {"throughput_mcps", [](const DesignPoint& point, const EvalMetrics& metrics) {
            return metrics.get("fmax_mhz") * static_cast<double>(point.at("NCLUSTER"));
          }};
}

DseConfig base_config() {
  DseConfig config;
  config.space.params.push_back({"NCLUSTER", ParamDomain::power_of_two(0, 2)});
  config.space.params.push_back({"STACK_SIZE", ParamDomain::power_of_two(2, 6)});
  config.ga.population_size = 10;
  config.ga.max_generations = 6;
  config.ga.seed = 17;
  return config;
}

TEST(DerivedMetric, ValidatedAtConstruction) {
  // Missing compute function.
  DseConfig config = base_config();
  config.objectives = {{"lut", false}};
  config.derived_metrics.push_back({"broken", nullptr});
  EXPECT_THROW(DseEngine(tirex_project(), config), std::runtime_error);

  // Name shadows a tool metric.
  DseConfig shadow = base_config();
  shadow.objectives = {{"lut", false}};
  shadow.derived_metrics.push_back(
      {"lut", [](const DesignPoint&, const EvalMetrics&) { return 0.0; }});
  EXPECT_THROW(DseEngine(tirex_project(), shadow), std::runtime_error);

  // Empty name.
  DseConfig unnamed = base_config();
  unnamed.objectives = {{"lut", false}};
  unnamed.derived_metrics.push_back(
      {"", [](const DesignPoint&, const EvalMetrics&) { return 0.0; }});
  EXPECT_THROW(DseEngine(tirex_project(), unnamed), std::runtime_error);
}

TEST(DerivedMetric, UsableAsObjective) {
  DseConfig config = base_config();
  config.derived_metrics.push_back(throughput_metric());
  config.objectives = {{"lut", false}, {"throughput_mcps", true}};
  DseEngine engine(tirex_project(), config);
  const DseResult result = engine.run();
  ASSERT_FALSE(result.pareto.empty());
  for (const auto& p : result.pareto) {
    // The derived metric is present and consistent with its definition.
    const double expected =
        p.metrics.get("fmax_mhz") * static_cast<double>(p.params.at("NCLUSTER"));
    EXPECT_NEAR(p.metrics.get("throughput_mcps"), expected, 1e-6);
  }
  // The throughput-optimal corner must exploit parallelism: at least one
  // front member uses more than one cluster (single-cluster has the best
  // area but not the best throughput).
  bool multi_cluster = false;
  for (const auto& p : result.pareto) multi_cluster |= (p.params.at("NCLUSTER") > 1);
  EXPECT_TRUE(multi_cluster);
}

TEST(DerivedMetric, UnknownObjectiveStillRejected) {
  DseConfig config = base_config();
  config.derived_metrics.push_back(throughput_metric());
  config.objectives = {{"throughput_typo", true}};
  EXPECT_THROW(DseEngine(tirex_project(), config), std::runtime_error);
}

TEST(DerivedMetric, AppliedInEvaluateSet) {
  DseConfig config = base_config();
  config.derived_metrics.push_back(throughput_metric());
  config.objectives = {{"lut", false}, {"throughput_mcps", true}};
  DseEngine engine(tirex_project(), config);
  const auto points = engine.evaluate_set({{{"NCLUSTER", 2}, {"STACK_SIZE", 8}}});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_GT(points[0].metrics.get("throughput_mcps"), 0.0);
}

TEST(DerivedMetric, FlowsThroughApproximationModel) {
  DseConfig config = base_config();
  config.space.params[1] = {"STACK_SIZE", ParamDomain::power_of_two(0, 8)};
  config.derived_metrics.push_back(throughput_metric());
  config.objectives = {{"lut", false}, {"throughput_mcps", true}};
  config.use_approximation = true;
  config.pretrain_samples = 12;
  DseEngine engine(tirex_project(), config);
  const DseResult result = engine.run();
  ASSERT_NE(engine.control_model(), nullptr);
  // The dataset's value vectors carry the derived metric (one per
  // objective), so estimates include it transparently.
  EXPECT_EQ(engine.control_model()->dataset().metric_count(), 2u);
  for (const auto& p : result.pareto) {
    EXPECT_TRUE(p.metrics.values.count("throughput_mcps") == 1);
  }
}

/// A stateful derived metric: each value is the number of calls so far.
/// Lanes compute derived metrics concurrently, so the count is atomic.
DerivedMetric call_counter(const std::shared_ptr<std::atomic<int>>& calls) {
  return {"call", [calls](const DesignPoint&, const EvalMetrics&) {
            return static_cast<double>(++*calls);
          }};
}

TEST(DerivedMetric, ComputedOncePerFreshAnswer) {
  // Derived metrics run where the leader builds a fresh answer, before it
  // is cached: a cache hit carries the value stored with that answer and
  // computes nothing.
  auto calls = std::make_shared<std::atomic<int>>(0);
  DseConfig config = base_config();
  config.derived_metrics.push_back(call_counter(calls));
  config.objectives = {{"lut", false}, {"call", false}};
  DseEngine engine(tirex_project(), config);
  const DesignPoint a{{"NCLUSTER", 1}, {"STACK_SIZE", 4}};
  const DesignPoint b{{"NCLUSTER", 2}, {"STACK_SIZE", 8}};
  const auto answers = engine.evaluate_set({a, a, b, a});
  ASSERT_EQ(answers.size(), 4u);
  EXPECT_EQ(calls->load(), 2);
  EXPECT_EQ(answers[0].metrics.get("call"), 1.0);
  EXPECT_EQ(answers[1].metrics.get("call"), 1.0);
  EXPECT_EQ(answers[2].metrics.get("call"), 2.0);
  EXPECT_EQ(answers[3].metrics.get("call"), 1.0);
}

TEST(DerivedMetric, CampaignComputesOncePerToolRun) {
  // A 15-point space under 70 asks: most asks are cache hits or
  // single-flight joins, and none of them computes the metric again.
  auto calls = std::make_shared<std::atomic<int>>(0);
  DseConfig config = base_config();
  config.workers = 2;
  config.derived_metrics.push_back(call_counter(calls));
  config.objectives = {{"lut", false}, {"call", false}};
  DseEngine engine(tirex_project(), config);
  const DseStats stats = engine.run().stats;
  ASSERT_EQ(stats.failures, 0u);
  EXPECT_GT(stats.cache_hits + stats.single_flight_joins, 0u);
  EXPECT_EQ(static_cast<std::size_t>(calls->load()), stats.tool_runs);
}

}  // namespace
}  // namespace dovado::core
