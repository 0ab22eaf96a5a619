// Multi-fidelity screening (DseConfig::screen_keep_ratio): pre-ranking each
// block of proposals on the analytic backend must cut high-fidelity tool
// runs substantially without giving up front quality on the Corundum
// completion-queue-manager study — on both engines, which screen through
// the same rule (a GA offspring batch, or a population of steady-state
// asks).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/core/dse.hpp"
#include "src/opt/indicators.hpp"

namespace dovado::core {
namespace {

ProjectConfig corundum_project() {
  ProjectConfig project;
  project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/corundum_cq_manager.v",
                             hdl::HdlLanguage::kVerilog, "work", false});
  project.top_module = "cpl_queue_manager";
  project.part = "xc7k70tfbv676-1";
  project.target_period_ns = 1.0;
  return project;
}

DseConfig corundum_config() {
  DseConfig config;
  config.space.params.push_back({"OP_TABLE_SIZE", ParamDomain::range(8, 35)});
  config.space.params.push_back({"QUEUE_INDEX_WIDTH", ParamDomain::range(4, 7)});
  config.space.params.push_back({"PIPELINE", ParamDomain::range(2, 5)});
  // Area/frequency trade-off (paper Sec. IV-B). Two objectives keep the
  // non-dominated set small enough that the end-of-run verification of
  // estimated survivors does not drown the screening savings — with all
  // four Corundum objectives nearly everything is mutually non-dominated.
  config.objectives = {{"lut", false}, {"fmax_mhz", true}};
  config.ga.population_size = 24;
  config.ga.max_generations = 15;
  config.ga.seed = 2021;
  return config;
}

/// Both engines: generational (false) and steady-state (true).
constexpr bool kEngines[] = {false, true};

const char* engine_name(bool steady) { return steady ? "steady" : "generational"; }

/// Objective vectors (minimized) of a front's non-failed members.
std::vector<opt::Objectives> front_objectives(const DseEngine& engine,
                                              const std::vector<ExploredPoint>& front) {
  std::vector<opt::Objectives> objectives;
  for (const auto& p : front) {
    if (!p.failed) objectives.push_back(engine.to_objectives(p.metrics));
  }
  return objectives;
}

TEST(Screening, CutsHighFidelityRunsAtEqualOrBetterHypervolume) {
  for (const bool steady : kEngines) {
    SCOPED_TRACE(engine_name(steady));
    // Baseline: every proposal pays for a high-fidelity run.
    DseConfig config = corundum_config();
    config.steady_state = steady;
    DseEngine baseline(corundum_project(), config);
    const DseResult base = baseline.run();
    ASSERT_FALSE(base.pareto.empty());
    const std::size_t base_runs = base.stats.backend_runs.at("vivado-sim");
    EXPECT_EQ(base.stats.screened_out, 0u);
    EXPECT_EQ(base.stats.backend_runs.count("analytic"), 0u);

    // Screening on: each block is pre-ranked on the analytic backend and
    // only the most promising fraction goes to the tool. (The effective
    // forward rate sits above the ratio: per-block ceil() rounding plus the
    // end-of-run verification of estimated survivors both add runs.)
    config.screen_keep_ratio = 0.4;
    DseEngine screened(corundum_project(), config);
    const DseResult scr = screened.run();
    ASSERT_FALSE(scr.pareto.empty());
    const std::size_t scr_runs = scr.stats.backend_runs.at("vivado-sim");

    EXPECT_GT(scr.stats.screened_out, 0u);
    EXPECT_GT(scr.stats.screen_runs, 0u);
    EXPECT_GT(scr.stats.screen_tool_seconds, 0.0);
    EXPECT_GT(scr.stats.backend_runs.at("analytic"), 0u);
    // Screening runs are cheap: they must not dominate the tool bill.
    EXPECT_LT(scr.stats.screen_tool_seconds, 0.01 * scr.stats.simulated_tool_seconds);

    // The acceptance bar: >= 30% fewer high-fidelity runs...
    EXPECT_LE(static_cast<double>(scr_runs), 0.7 * static_cast<double>(base_runs))
        << "baseline " << base_runs << " vs screened " << scr_runs;

    // ...at equal-or-better hypervolume. Both fronts are verified (every
    // estimated survivor is re-evaluated by the tool), so the comparison is
    // high-fidelity against high-fidelity. The reference point is the
    // nadir of the union, nudged outward so every member contributes.
    const auto base_front = front_objectives(baseline, base.pareto);
    const auto scr_front = front_objectives(screened, scr.pareto);
    ASSERT_FALSE(base_front.empty());
    ASSERT_FALSE(scr_front.empty());
    opt::Objectives reference = base_front.front();
    for (const auto& v : base_front) {
      for (std::size_t i = 0; i < v.size(); ++i) reference[i] = std::max(reference[i], v[i]);
    }
    for (const auto& v : scr_front) {
      for (std::size_t i = 0; i < v.size(); ++i) reference[i] = std::max(reference[i], v[i]);
    }
    for (auto& r : reference) r += 1.0 + 0.1 * std::abs(r);
    const double base_hv = opt::hypervolume(base_front, reference);
    const double scr_hv = opt::hypervolume(scr_front, reference);
    EXPECT_GE(scr_hv, base_hv) << "screened front lost quality: " << scr_hv << " < "
                               << base_hv;
  }
}

TEST(Screening, VerifiedFrontHasNoEstimatedSurvivors) {
  for (const bool steady : kEngines) {
    SCOPED_TRACE(engine_name(steady));
    DseConfig config = corundum_config();
    config.ga.population_size = 12;
    config.ga.max_generations = 6;
    config.screen_keep_ratio = 0.5;
    config.workers = 4;
    config.steady_state = steady;
    DseEngine engine(corundum_project(), config);
    const DseResult result = engine.run();
    ASSERT_FALSE(result.pareto.empty());
    EXPECT_GT(result.stats.screened_out, 0u);
    for (const auto& p : result.pareto) {
      EXPECT_FALSE(p.estimated) << "unverified estimate survived in the pareto front";
    }
  }
}

TEST(Screening, KeepRatioOneIsIdentityPath) {
  // ratio == 1.0 must not construct a screening broker at all: results
  // and run counts are byte-identical to a config that never mentions
  // screening.
  DseConfig config = corundum_config();
  config.ga.population_size = 8;
  config.ga.max_generations = 3;
  DseEngine plain(corundum_project(), config);
  config.screen_keep_ratio = 1.0;
  DseEngine explicit_off(corundum_project(), config);
  EXPECT_EQ(plain.fleet().built_analytic(), nullptr);
  EXPECT_EQ(explicit_off.fleet().built_analytic(), nullptr);
  const DseResult a = plain.run();
  const DseResult b = explicit_off.run();
  EXPECT_EQ(a.stats.tool_runs, b.stats.tool_runs);
  EXPECT_EQ(a.pareto.size(), b.pareto.size());
}

TEST(Screening, InvalidRatioRejected) {
  DseConfig config = corundum_config();
  config.screen_keep_ratio = 0.0;
  EXPECT_THROW(DseEngine(corundum_project(), config), std::runtime_error);
  config.screen_keep_ratio = 1.5;
  EXPECT_THROW(DseEngine(corundum_project(), config), std::runtime_error);
}

TEST(Screening, WorksWithParallelWorkers) {
  for (const bool steady : kEngines) {
    SCOPED_TRACE(engine_name(steady));
    DseConfig config = corundum_config();
    config.ga.population_size = 12;
    config.ga.max_generations = 5;
    config.screen_keep_ratio = 0.4;
    config.workers = 4;
    config.steady_state = steady;
    DseEngine engine(corundum_project(), config);
    const DseResult result = engine.run();
    ASSERT_FALSE(result.pareto.empty());
    EXPECT_GT(result.stats.screened_out, 0u);
    EXPECT_GT(result.stats.backend_runs.at("vivado-sim"), 0u);
    EXPECT_GT(result.stats.backend_runs.at("analytic"), 0u);
    if (steady) {
      EXPECT_EQ(result.stats.ga_evaluations, result.stats.steady_completions);
    }
  }
}

TEST(Screening, SteadyDeadlineCountsOnlyDispatchedOrToldPoints) {
  // A screened steady campaign cut by the tool deadline: forwarded points
  // still queued when submission stops were never evaluated, so they must
  // count neither as evaluations nor as completions.
  DseConfig config = corundum_config();
  config.steady_state = true;
  config.screen_keep_ratio = 0.4;
  config.deadline_tool_seconds = 3000.0;
  DseEngine engine(corundum_project(), config);
  const DseResult result = engine.run();
  EXPECT_TRUE(result.stats.deadline_hit);
  EXPECT_GT(result.stats.screened_out, 0u);
  EXPECT_LT(result.stats.steady_completions,
            config.ga.population_size * (config.ga.max_generations + 1));
  EXPECT_EQ(result.stats.ga_evaluations, result.stats.steady_completions);
}

}  // namespace
}  // namespace dovado::core
