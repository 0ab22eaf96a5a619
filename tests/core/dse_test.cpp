#include "src/core/dse.hpp"

#include <gtest/gtest.h>

#include "src/fpga/device.hpp"
#include "src/opt/nds.hpp"

namespace dovado::core {
namespace {

ProjectConfig fifo_project() {
  ProjectConfig config;
  config.sources.push_back(
      {std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv", hdl::HdlLanguage::kSystemVerilog,
       "work", false});
  config.top_module = "cv32e40p_fifo";
  config.part = "xc7k70t";
  config.target_period_ns = 1.0;
  return config;
}

DseConfig fifo_dse(std::size_t pop = 10, std::size_t gens = 6) {
  DseConfig config;
  config.space.params.push_back({"DEPTH", ParamDomain::range(8, 200)});
  config.objectives = {{"lut", false}, {"fmax_mhz", true}};
  config.ga.population_size = pop;
  config.ga.max_generations = gens;
  config.ga.seed = 11;
  return config;
}

TEST(DseEngine, ValidatesConfiguration) {
  // Unknown metric.
  DseConfig bad_metric = fifo_dse();
  bad_metric.objectives = {{"latency", false}};
  EXPECT_THROW(DseEngine(fifo_project(), bad_metric), std::runtime_error);
  // Empty space.
  DseConfig empty_space = fifo_dse();
  empty_space.space.params.clear();
  EXPECT_THROW(DseEngine(fifo_project(), empty_space), std::runtime_error);
  // No objectives.
  DseConfig no_obj = fifo_dse();
  no_obj.objectives.clear();
  EXPECT_THROW(DseEngine(fifo_project(), no_obj), std::runtime_error);
  // Parameter not on the module.
  DseConfig wrong_param = fifo_dse();
  wrong_param.space.params[0].name = "BOGUS";
  EXPECT_THROW(DseEngine(fifo_project(), wrong_param), std::runtime_error);
  // localparams are not explorable.
  DseConfig local_param = fifo_dse();
  local_param.space.params[0].name = "ADDR_DEPTH";
  EXPECT_THROW(DseEngine(fifo_project(), local_param), std::runtime_error);
}

TEST(DseEngine, FindsNonDominatedSet) {
  DseEngine engine(fifo_project(), fifo_dse());
  const DseResult result = engine.run();
  ASSERT_FALSE(result.pareto.empty());
  ASSERT_FALSE(result.explored.empty());
  EXPECT_GT(result.stats.tool_runs, 0u);
  EXPECT_GT(result.stats.simulated_tool_seconds, 0.0);
  // Survivals: the initial population is not a generation.
  EXPECT_EQ(result.stats.generations, fifo_dse().ga.max_generations);

  // Mutual non-domination of the returned set.
  for (const auto& a : result.pareto) {
    for (const auto& b : result.pareto) {
      EXPECT_FALSE(opt::dominates(engine.to_objectives(a.metrics),
                                  engine.to_objectives(b.metrics)));
    }
  }
  // Nothing explored dominates a front member.
  for (const auto& p : result.pareto) {
    for (const auto& e : result.explored) {
      if (e.failed) continue;
      EXPECT_FALSE(opt::dominates(engine.to_objectives(e.metrics),
                                  engine.to_objectives(p.metrics)));
    }
  }
}

TEST(DseEngine, FrontShowsAreaFrequencyTradeoff) {
  DseEngine engine(fifo_project(), fifo_dse(12, 8));
  const DseResult result = engine.run();
  ASSERT_GE(result.pareto.size(), 2u);
  // Sorted by first objective (lut): frequency must increase along it,
  // otherwise later points would be dominated.
  for (std::size_t i = 1; i < result.pareto.size(); ++i) {
    EXPECT_GE(result.pareto[i].metrics.get("lut"),
              result.pareto[i - 1].metrics.get("lut"));
    EXPECT_GE(result.pareto[i].metrics.get("fmax_mhz"),
              result.pareto[i - 1].metrics.get("fmax_mhz"));
  }
}

TEST(DseEngine, SmallestDepthOnFront) {
  // lut is minimized and grows monotonically with DEPTH, so DEPTH=8 must be
  // non-dominated (it has the least area).
  DseConfig config = fifo_dse(12, 10);
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();
  bool has_min = false;
  for (const auto& p : result.pareto) has_min |= (p.params.at("DEPTH") == 8);
  EXPECT_TRUE(has_min);
}

TEST(DseEngine, EvaluateSetMode) {
  // Design-automation mode: the paper's "exact exploration of a given set".
  DseEngine engine(fifo_project(), fifo_dse());
  const auto points = engine.evaluate_set({{{"DEPTH", 16}}, {{"DEPTH", 64}}});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_FALSE(points[0].failed);
  EXPECT_LT(points[0].metrics.get("ff"), points[1].metrics.get("ff"));
}

TEST(DseEngine, DeterministicRuns) {
  auto run_once = [] {
    DseEngine engine(fifo_project(), fifo_dse());
    return engine.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (std::size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i].params, b.pareto[i].params);
  }
}

TEST(DseEngine, DeadlineStopsExploration) {
  DseConfig config = fifo_dse(10, 500);
  config.deadline_tool_seconds = 200.0;  // a handful of tool runs
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();
  EXPECT_TRUE(result.stats.deadline_hit);
  EXPECT_LT(result.stats.generations, 500u);
  // The soft deadline lets in-flight work finish, so allow overshoot of a
  // few evaluations' worth of simulated time.
  EXPECT_LT(result.stats.simulated_tool_seconds, 2000.0);
}

TEST(DseEngine, StopRequestEndsTheCampaignEarly) {
  // The stop hook passed to run() (the CLI's SIGINT handler) is polled
  // before every submission, like the deadline: once it fires the campaign
  // stops submitting, drains what is in flight and returns its front.
  for (const bool steady : {false, true}) {
    DseConfig config = fifo_dse(10, 1000);
    config.steady_state = steady;
    DseEngine engine(fifo_project(), config);
    std::size_t polls = 0;
    const DseResult result = engine.run([&polls] { return ++polls > 25; });
    EXPECT_EQ(polls, 26u) << (steady ? "steady" : "generational");
    EXPECT_EQ(result.stats.ga_evaluations, 25u);
    // Generational: one survival (the initial 10, then 10 offspring; the
    // third generation never closed). Steady: 25 completions of 10.
    EXPECT_EQ(result.stats.generations, steady ? 2u : 1u);
    EXPECT_FALSE(result.stats.deadline_hit);
    EXPECT_EQ(result.stats.deadline_skips, 0u);
    EXPECT_FALSE(result.pareto.empty());
  }
}

TEST(DseEngine, SteadyBudgetDoesNotCapTheGenerationalSearcher) {
  // steady_state_evaluations budgets a steady searcher only: the
  // generational searcher still runs every generation to its end.
  DseConfig config = fifo_dse(10, 3);
  config.steady_state_evaluations = 15;
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();
  EXPECT_EQ(result.stats.ga_evaluations, 40u);
  EXPECT_EQ(result.stats.generations, 3u);
}

TEST(DseEngine, CacheAbsorbsRepeatedPoints) {
  DseConfig config = fifo_dse(10, 12);
  config.space.params[0] = {"DEPTH", ParamDomain::range(8, 24)};  // tiny space
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();
  // 17 possible points but many GA evaluations: the cache must absorb the
  // overlap (tool runs bounded by the space size).
  EXPECT_LE(result.stats.tool_runs, 17u);
}

TEST(DseEngine, ApproximationReducesToolRuns) {
  DseConfig direct = fifo_dse(12, 10);
  DseEngine direct_engine(fifo_project(), direct);
  const DseResult direct_result = direct_engine.run();

  DseConfig approx = fifo_dse(12, 10);
  approx.use_approximation = true;
  approx.pretrain_samples = 30;
  DseEngine approx_engine(fifo_project(), approx);
  const DseResult approx_result = approx_engine.run();

  EXPECT_GT(approx_result.stats.estimates, 0u);
  // GA-phase tool runs shrink vs the direct run (pretraining not counted).
  EXPECT_LT(approx_result.stats.tool_runs, direct_result.stats.tool_runs);
  ASSERT_NE(approx_engine.control_model(), nullptr);
  EXPECT_GE(approx_engine.control_model()->dataset().size(), 30u);
  EXPECT_EQ(direct_engine.control_model(), nullptr);
}

TEST(DseEngine, VerifiedFrontHasNoEstimates) {
  DseConfig approx = fifo_dse(10, 8);
  approx.use_approximation = true;
  approx.pretrain_samples = 20;
  DseEngine engine(fifo_project(), approx);
  const DseResult result = engine.run();
  for (const auto& p : result.pareto) {
    EXPECT_FALSE(p.estimated) << "front member not verified by the tool";
  }
}

TEST(DseEngine, ParallelWorkersProduceValidFront) {
  DseConfig config = fifo_dse(10, 5);
  config.workers = 3;
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();
  ASSERT_FALSE(result.pareto.empty());
  for (const auto& a : result.pareto) {
    for (const auto& b : result.pareto) {
      EXPECT_FALSE(opt::dominates(engine.to_objectives(a.metrics),
                                  engine.to_objectives(b.metrics)));
    }
  }
}

TEST(DseEngine, SurvivesOverUtilizationFailures) {
  // Failure injection: on a small Artix-7 the FF-based FIFO overflows the
  // device for deep configurations (DEPTH*32 FFs > 41600), so placement
  // fails for part of the space. The engine must count the failures, keep
  // exploring, and return a front of only feasible points.
  ProjectConfig project = fifo_project();
  project.part = "xc7a35t";
  DseConfig config;
  config.space.params.push_back({"DEPTH", ParamDomain::range(64, 2048, 64)});
  config.objectives = {{"lut", false}, {"fmax_mhz", true}};
  config.ga.population_size = 12;
  config.ga.max_generations = 8;
  config.ga.seed = 5;
  DseEngine engine(project, config);
  const DseResult result = engine.run();
  EXPECT_GT(result.stats.failures, 0u);
  ASSERT_FALSE(result.pareto.empty());
  const auto device = fpga::DeviceCatalog::find("xc7a35t");
  for (const auto& p : result.pareto) {
    EXPECT_FALSE(p.failed);
    EXPECT_LE(p.metrics.get("ff"), static_cast<double>(device->resources.ff));
  }
  bool some_failed_recorded = false;
  for (const auto& e : result.explored) some_failed_recorded |= e.failed;
  EXPECT_TRUE(some_failed_recorded);
}

TEST(DseEngine, FailuresAreCachedNotRepaid) {
  ProjectConfig project = fifo_project();
  project.part = "xc7a35t";
  DseConfig config;
  config.space.params.push_back({"DEPTH", ParamDomain::values({2048})});
  config.objectives = {{"lut", false}};
  config.ga.population_size = 4;
  config.ga.max_generations = 3;
  DseEngine engine(project, config);
  const auto first = engine.evaluate_set({{{"DEPTH", 2048}}});
  ASSERT_TRUE(first[0].failed);
  const double seconds_after_first = engine.fleet().broker().tool_seconds();
  const auto second = engine.evaluate_set({{{"DEPTH", 2048}}});
  EXPECT_TRUE(second[0].failed);
  EXPECT_DOUBLE_EQ(engine.fleet().broker().tool_seconds(), seconds_after_first);
}

TEST(DseEngine, PowerOfTwoSpace) {
  ProjectConfig project;
  project.sources.push_back(
      {std::string(DOVADO_RTL_DIR) + "/neorv32_top.vhd", hdl::HdlLanguage::kVhdl, "work",
       false});
  project.top_module = "neorv32_top";
  project.part = "xc7k70t";

  DseConfig config;
  config.space.params.push_back({"MEM_INT_IMEM_SIZE", ParamDomain::power_of_two(12, 15)});
  config.space.params.push_back({"MEM_INT_DMEM_SIZE", ParamDomain::power_of_two(12, 15)});
  config.objectives = {{"bram", false}, {"fmax_mhz", true}};
  config.ga.population_size = 8;
  config.ga.max_generations = 6;
  config.ga.seed = 3;
  DseEngine engine(project, config);
  const DseResult result = engine.run();
  ASSERT_FALSE(result.pareto.empty());
  for (const auto& p : result.explored) {
    const std::int64_t imem = p.params.at("MEM_INT_IMEM_SIZE");
    EXPECT_EQ(imem & (imem - 1), 0) << "non-power-of-two explored";
  }
}

}  // namespace
}  // namespace dovado::core
