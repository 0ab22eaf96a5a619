// Tests for the steady-state (mu+1, bounded-inflight) engine: fixed-seed
// determinism, equal-budget search quality vs the generational engine,
// inflight journal replay on resume, evaluation accounting and the virtual
// lane clock. The threaded stress tests run under -fsanitize=thread (the
// `tsan` preset, see DESIGN.md "Steady-state engine").
#include "src/core/dse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/opt/indicators.hpp"

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

DseConfig steady_dse(std::size_t workers) {
  DseConfig config;
  config.space.params.push_back({"DEPTH", ParamDomain::range(8, 200)});
  config.objectives = {{"lut", false}, {"fmax_mhz", true}};
  config.ga.population_size = 10;
  config.ga.max_generations = 5;
  config.ga.seed = 11;
  config.workers = workers;
  config.steady_state = true;
  return config;
}

void expect_same_front(const DseResult& a, const DseResult& b) {
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (std::size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i].params, b.pareto[i].params);
    EXPECT_EQ(a.pareto[i].metrics.values, b.pareto[i].metrics.values);
  }
}

/// Minimized objective vectors of a front: {lut, -fmax_mhz}.
std::vector<opt::Objectives> front_objectives(const DseResult& result) {
  std::vector<opt::Objectives> objs;
  for (const auto& p : result.pareto) {
    objs.push_back({p.metrics.get("lut"), -p.metrics.get("fmax_mhz")});
  }
  return objs;
}

TEST(SteadyState, DeterministicForFixedSeedInline) {
  // Inline mode (workers = 0) resolves every submission at submit time, so
  // the (virtual_finish, seq) pop order replays the virtual schedule
  // exactly: two same-seed campaigns are bitwise-identical.
  auto run_once = [] {
    DseEngine engine(fifo_project(), steady_dse(0));
    return engine.run();
  };
  const DseResult a = run_once();
  const DseResult b = run_once();

  expect_same_front(a, b);
  ASSERT_EQ(a.explored.size(), b.explored.size());
  for (std::size_t i = 0; i < a.explored.size(); ++i) {
    EXPECT_EQ(a.explored[i].params, b.explored[i].params);
  }
  EXPECT_EQ(a.stats.tool_runs, b.stats.tool_runs);
  EXPECT_EQ(a.stats.steady_completions, b.stats.steady_completions);
  EXPECT_DOUBLE_EQ(a.stats.simulated_tool_seconds, b.stats.simulated_tool_seconds);
}

TEST(SteadyState, EvaluationsCountGenuineScoresAtEqualBudget) {
  // Default budget = pop * (gens + 1): exactly the generational engine's
  // fitness-evaluation count. Every submission completes (inline), and
  // `evaluations` counts genuine scores only.
  DseConfig config = steady_dse(0);
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();

  const std::size_t budget =
      config.ga.population_size * (config.ga.max_generations + 1);
  EXPECT_EQ(result.stats.steady_completions, budget);
  EXPECT_EQ(result.stats.ga_evaluations, budget);
  EXPECT_EQ(result.stats.generations, config.ga.max_generations + 1);
  // Genuine scores: tool runs (incl. failures), cache hits, joins. No
  // screening/approximation here, so they account for every completion.
  EXPECT_EQ(result.stats.tool_runs + result.stats.cache_hits +
                result.stats.single_flight_joins,
            budget);
  EXPECT_EQ(result.stats.failures, 0u);
  EXPECT_FALSE(result.pareto.empty());
}

TEST(SteadyState, EqualBudgetHypervolumeNoWorseThanBatchEngine) {
  // The point of killing the barrier: at the same evaluation budget the
  // steady-state engine must search at least as well. Run both engines on
  // the analytic backend with identical GA settings and compare dominated
  // hypervolume against a shared reference point.
  DseConfig batch_config = steady_dse(0);
  batch_config.steady_state = false;
  batch_config.backend = "analytic";
  DseEngine batch(fifo_project(), batch_config);
  const DseResult batch_result = batch.run();

  DseConfig steady_config = steady_dse(0);
  steady_config.backend = "analytic";
  DseEngine steady(fifo_project(), steady_config);
  const DseResult steady_result = steady.run();

  EXPECT_EQ(steady_result.stats.ga_evaluations, batch_result.stats.ga_evaluations);

  const auto batch_front = front_objectives(batch_result);
  const auto steady_front = front_objectives(steady_result);
  opt::Objectives reference = {0.0, 0.0};
  for (const auto& front : {batch_front, steady_front}) {
    for (const auto& o : front) {
      reference[0] = std::max(reference[0], o[0] + 1.0);
      reference[1] = std::max(reference[1], o[1] + 1.0);
    }
  }
  const double batch_hv = opt::hypervolume(batch_front, reference);
  const double steady_hv = opt::hypervolume(steady_front, reference);
  EXPECT_GE(steady_hv, batch_hv * (1.0 - 1e-9));
}

TEST(SteadyState, InlineRunKeepsTheSingleLaneFullyBusy) {
  // One virtual lane, no barrier: runs pack back-to-back, so busy time
  // equals the makespan and utilization is 1.
  DseEngine engine(fifo_project(), steady_dse(0));
  const DseResult result = engine.run();

  EXPECT_EQ(result.stats.virtual_lanes, 1u);
  EXPECT_GT(result.stats.busy_tool_seconds, 0.0);
  EXPECT_GT(result.stats.virtual_makespan_seconds, 0.0);
  EXPECT_GT(result.stats.tool_seconds_utilization, 0.99);
  EXPECT_LE(result.stats.tool_seconds_utilization, 1.0 + 1e-9);
}

TEST(SteadyState, BoundedInflightThreadedRunCompletesTheBudget) {
  // Threaded smoke + TSan target: several evaluations in the air at once,
  // a stats() poller racing the loop, and the full budget still completes.
  DseConfig config = steady_dse(3);
  config.max_inflight = 4;
  DseEngine engine(fifo_project(), config);

  std::atomic<bool> done{false};
  std::thread monitor([&] {
    while (!done) {
      const DseStats snapshot = engine.stats();
      EXPECT_LE(snapshot.steady_completions,
                config.ga.population_size * (config.ga.max_generations + 1));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const DseResult result = engine.run();
  done = true;
  monitor.join();

  EXPECT_EQ(result.stats.steady_completions,
            config.ga.population_size * (config.ga.max_generations + 1));
  EXPECT_FALSE(result.pareto.empty());
  EXPECT_DOUBLE_EQ(result.stats.simulated_tool_seconds, engine.fleet().broker().tool_seconds());
}

edatool::FaultPlan plan_of(const std::string& spec) {
  std::string error;
  const auto plan = edatool::FaultPlan::parse(spec, error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(edatool::FaultPlan{});
}

TEST(SteadyState, FlappingBackendStressStaysConsistent) {
  // A backend that flaps up/down while the steady loop hedges, probes and
  // recovers per completion — the TSan stress companion to the batch
  // engine's outage tests. The campaign must complete its budget with a
  // usable front whatever mix of exact/hedged answers it took.
  DseConfig config = steady_dse(3);
  config.max_inflight = 4;
  config.fault_plan = plan_of("seed=3,flap_up=6,flap_down=9");
  config.supervise.max_retries = 2;
  config.breaker.window = 4;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_fast_fails = 1;
  config.breaker.probe_budget = 2;
  config.breaker.probe_quorum = 1;
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();

  EXPECT_EQ(result.stats.steady_completions,
            config.ga.population_size * (config.ga.max_generations + 1));
  EXPECT_GT(result.stats.faults_injected, 0u);
  ASSERT_FALSE(result.pareto.empty());
  for (const auto& p : result.pareto) {
    EXPECT_FALSE(p.metrics.values.empty());
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content;
}

TEST(SteadyStateJournal, InflightMarkerRoundTrip) {
  const DesignPoint point{{"DEPTH", 64}, {"WIDTH", 8}};
  const auto parsed = inflight_record_from_json(inflight_record_to_json(point));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->params, point);
  EXPECT_TRUE(parsed->optimizer.empty());
  EXPECT_FALSE(inflight_record_from_json("xx{ not a record").has_value());
  EXPECT_FALSE(inflight_record_from_json("").has_value());
}

TEST(SteadyStateJournal, InflightMarkerCarriesOptimizerAttribution) {
  // Version 3: the searcher that asked for the point is recorded so resume
  // can route the replayed tell back to the right portfolio member.
  const DesignPoint point{{"DEPTH", 32}};
  const std::string line = inflight_record_to_json(point, "local");
  EXPECT_NE(line.find("\"optimizer\""), std::string::npos);
  const auto parsed = inflight_record_from_json(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->params, point);
  EXPECT_EQ(parsed->optimizer, "local");
  // A v2-style marker without the field parses with an empty attribution.
  const auto legacy = inflight_record_from_json(inflight_record_to_json(point));
  ASSERT_TRUE(legacy.has_value());
  EXPECT_TRUE(legacy->optimizer.empty());
}

TEST(SteadyStateJournal, ResumeReplaysUnansweredInflightExactlyOnce) {
  const std::string path = testing::TempDir() + "/dovado_journal_inflight.jsonl";
  std::remove(path.c_str());

  DseConfig config = steady_dse(0);
  config.journal_path = path;
  DseEngine first(fifo_project(), config);
  const DseResult original = first.run();
  ASSERT_GT(original.stats.tool_runs, 0u);

  // Simulate a crash between journal_inflight() and the answer landing:
  // append an unanswered inflight marker for a point the campaign never
  // explored (no eval record in the file supersedes it).
  DesignPoint pending;
  for (std::int64_t depth = 8; depth <= 200; ++depth) {
    const DesignPoint candidate{{"DEPTH", depth}};
    const bool explored =
        std::any_of(original.explored.begin(), original.explored.end(),
                    [&](const ExploredPoint& p) { return p.params == candidate; });
    if (!explored) {
      pending = candidate;
      break;
    }
  }
  ASSERT_FALSE(pending.empty());
  {
    std::ofstream out(path, std::ios::app);
    out << inflight_record_to_json(pending) << "\n";
  }

  config.resume_from_journal = true;
  DseEngine resumed(fifo_project(), config);
  const DseResult replayed = resumed.run();

  // The orphaned submission was re-paid — once — and recorded.
  EXPECT_EQ(replayed.stats.inflight_replayed, 1u);
  EXPECT_GE(replayed.stats.tool_runs, 1u);
  const bool now_explored =
      std::any_of(replayed.explored.begin(), replayed.explored.end(),
                  [&](const ExploredPoint& p) { return p.params == pending; });
  EXPECT_TRUE(now_explored);
  // Its eval record now supersedes the marker (position-independent), so a
  // further resume replays nothing inflight.
  DseEngine again(fifo_project(), config);
  const DseResult third = again.run();
  EXPECT_EQ(third.stats.inflight_replayed, 0u);
  EXPECT_GT(third.stats.journal_replays, original.stats.tool_runs);
  std::remove(path.c_str());
}

TEST(SteadyStateJournal, AnsweredSubmissionsLeaveNoReplayableInflight) {
  // In a run that completes cleanly every inflight marker is superseded by
  // its eval record, so resuming replays zero inflight points even though
  // the journal is full of markers.
  const std::string path = testing::TempDir() + "/dovado_journal_clean.jsonl";
  std::remove(path.c_str());

  DseConfig config = steady_dse(0);
  config.journal_path = path;
  DseEngine first(fifo_project(), config);
  const DseResult original = first.run();
  ASSERT_GT(original.stats.tool_runs, 0u);
  // The journal carries one marker per forwarded uncached point on top of
  // the eval records and the version header.
  EXPECT_NE(read_file(path).find("\"inflight\""), std::string::npos);

  config.resume_from_journal = true;
  DseEngine resumed(fifo_project(), config);
  const DseResult replayed = resumed.run();
  EXPECT_EQ(replayed.stats.inflight_replayed, 0u);
  EXPECT_EQ(replayed.stats.tool_runs, 0u);
  EXPECT_EQ(replayed.stats.journal_replays, original.stats.tool_runs);
  expect_same_front(original, replayed);
  std::remove(path.c_str());
}

TEST(SteadyState, AlternativeOptimizersRunAndReportStats) {
  // Every registered searcher drives the same engine loop through the
  // ask/tell seam; each must complete the budget and stamp its name and
  // per-member counters into the stats.
  for (const char* name : {"random", "local", "surrogate", "portfolio"}) {
    DseConfig config = steady_dse(0);
    config.optimizer = name;
    DseEngine engine(fifo_project(), config);
    const DseResult result = engine.run();

    const std::size_t budget =
        config.ga.population_size * (config.ga.max_generations + 1);
    EXPECT_EQ(result.stats.steady_completions, budget) << name;
    EXPECT_FALSE(result.pareto.empty()) << name;
    EXPECT_EQ(result.stats.optimizer_name, name);
    ASSERT_FALSE(result.stats.optimizer_members.empty()) << name;
    std::size_t tells = 0;
    for (const auto& m : result.stats.optimizer_members) tells += m.tells;
    EXPECT_EQ(tells, budget) << name;
  }
}

TEST(SteadyState, NonNsga2OptimizerRequiresSteadyStateEngine) {
  DseConfig config = steady_dse(0);
  config.optimizer = "random";
  config.steady_state = false;
  EXPECT_THROW((DseEngine{fifo_project(), config}), std::runtime_error);
  config.optimizer = "nsga3";
  config.steady_state = true;
  EXPECT_THROW((DseEngine{fifo_project(), config}), std::runtime_error);
  config.optimizer = "random";
  config.portfolio_members = {"random", "local"};
  EXPECT_THROW((DseEngine{fifo_project(), config}), std::runtime_error);
}

TEST(SteadyState, PortfolioDeterministicForFixedSeedInline) {
  // The bandit is deterministic given the ask/tell history, and inline mode
  // fixes that history: same-seed portfolio campaigns are bitwise-identical
  // down to the per-member counters.
  auto run_once = [] {
    DseConfig config = steady_dse(0);
    config.optimizer = "portfolio";
    DseEngine engine(fifo_project(), config);
    return engine.run();
  };
  const DseResult a = run_once();
  const DseResult b = run_once();

  expect_same_front(a, b);
  ASSERT_EQ(a.explored.size(), b.explored.size());
  for (std::size_t i = 0; i < a.explored.size(); ++i) {
    EXPECT_EQ(a.explored[i].params, b.explored[i].params);
  }
  ASSERT_EQ(a.stats.optimizer_members.size(), b.stats.optimizer_members.size());
  EXPECT_EQ(a.stats.optimizer_members.size(), 4u);  // default member set
  for (std::size_t i = 0; i < a.stats.optimizer_members.size(); ++i) {
    EXPECT_EQ(a.stats.optimizer_members[i].name, b.stats.optimizer_members[i].name);
    EXPECT_EQ(a.stats.optimizer_members[i].asks, b.stats.optimizer_members[i].asks);
    EXPECT_EQ(a.stats.optimizer_members[i].tells, b.stats.optimizer_members[i].tells);
    EXPECT_DOUBLE_EQ(a.stats.optimizer_members[i].hv_gain,
                     b.stats.optimizer_members[i].hv_gain);
  }
}

TEST(SteadyStateJournal, ResumeRoutesReplayedTellToAttributedMember) {
  // A crashed portfolio campaign left an inflight marker attributed to the
  // "random" member. On resume with a budget of exactly one completion,
  // only the replayed point runs — and its tell must land on "random".
  const std::string path = testing::TempDir() + "/dovado_journal_attrib.jsonl";
  std::remove(path.c_str());

  DseConfig config = steady_dse(0);
  config.journal_path = path;
  DseEngine first(fifo_project(), config);
  const DseResult original = first.run();

  DesignPoint pending;
  for (std::int64_t depth = 8; depth <= 200; ++depth) {
    const DesignPoint candidate{{"DEPTH", depth}};
    const bool explored =
        std::any_of(original.explored.begin(), original.explored.end(),
                    [&](const ExploredPoint& p) { return p.params == candidate; });
    if (!explored) {
      pending = candidate;
      break;
    }
  }
  ASSERT_FALSE(pending.empty());
  {
    std::ofstream out(path, std::ios::app);
    out << inflight_record_to_json(pending, "random") << "\n";
  }

  config.resume_from_journal = true;
  config.optimizer = "portfolio";
  config.steady_state_evaluations = 1;  // replayed point only, no fresh asks
  DseEngine resumed(fifo_project(), config);
  const DseResult replayed = resumed.run();

  EXPECT_EQ(replayed.stats.inflight_replayed, 1u);
  ASSERT_EQ(replayed.stats.optimizer_members.size(), 4u);
  for (const auto& m : replayed.stats.optimizer_members) {
    EXPECT_EQ(m.tells, m.name == "random" ? 1u : 0u) << m.name;
  }
  std::remove(path.c_str());
}

TEST(SteadyState, StickyScreeningSettlesDominatedPoints) {
  // With screening on, each block of population-size asks is ranked on
  // its screen answers; points outside the best keep_ratio of a block
  // settle at low fidelity and never pay for a hi-fi run.
  DseConfig config = steady_dse(0);
  config.screen_keep_ratio = 0.3;
  config.steady_state_evaluations = 120;  // twelve blocks of ten asks
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();

  EXPECT_GT(result.stats.screened_out, 0u);
  EXPECT_GT(result.stats.screen_runs, 0u);
  // Screen settles replaced hi-fi runs: strictly fewer tool runs than
  // completions minus cache traffic.
  EXPECT_LT(result.stats.tool_runs,
            result.stats.steady_completions - result.stats.cache_hits);
  ASSERT_FALSE(result.pareto.empty());
  // Front verification re-ran surviving estimates at full fidelity.
  for (const auto& p : result.pareto) {
    EXPECT_FALSE(p.estimated);
  }
}

TEST(SteadyState, DeadlineStopsSubmissionAndClosesCleanly) {
  DseConfig config = steady_dse(0);
  config.deadline_tool_seconds = 1.0;  // any first completion exceeds this
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();

  EXPECT_TRUE(result.stats.deadline_hit);
  EXPECT_LT(result.stats.steady_completions,
            config.ga.population_size * (config.ga.max_generations + 1));
  EXPECT_GE(result.stats.steady_completions, 1u);
}

TEST(SteadyState, MaxInflightBoundsTheGenerationalSearcherToo) {
  // Both searchers run through the one campaign loop, so max_inflight
  // bounds the generational campaign as well. Which points it evaluates
  // does not depend on the bound: its answers are settled in ask order.
  DseConfig config = steady_dse(0);
  config.steady_state = false;
  config.virtual_lanes = 4;
  const DseResult unbounded = DseEngine(fifo_project(), config).run();
  config.max_inflight = 2;
  const DseResult bounded = DseEngine(fifo_project(), config).run();
  ASSERT_EQ(bounded.explored.size(), unbounded.explored.size());
  for (std::size_t i = 0; i < bounded.explored.size(); ++i) {
    EXPECT_EQ(bounded.explored[i].params, unbounded.explored[i].params);
  }
  EXPECT_EQ(bounded.stats.tool_runs, unbounded.stats.tool_runs);
  EXPECT_EQ(bounded.stats.ga_evaluations,
            config.ga.population_size * (config.ga.max_generations + 1));
}

}  // namespace
}  // namespace dovado::core
