// core::EvaluationFleet: one analytic tier, built once for every engine on
// the fleet (also under racing campaigns — run it under the tsan and
// deadlock presets), one journal replay, and the bounded probe queue.
#include "src/core/fleet.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dse.hpp"
#include "tests/core/counting_analytic.hpp"

namespace dovado::core {
namespace {

ProjectConfig fifo_project() {
  ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                            hdl::HdlLanguage::kSystemVerilog, "work", false});
  config.top_module = "cv32e40p_fifo";
  config.part = "xc7k70t";
  config.target_period_ns = 1.0;
  return config;
}

edatool::FaultPlan plan(const std::string& spec) {
  std::string error;
  const auto parsed = edatool::FaultPlan::parse(spec, error);
  if (!parsed) throw std::invalid_argument(error);
  return *parsed;
}

/// A fleet on `workers` pool threads whose backend is down for good, with
/// a breaker that trips after two failures of four.
std::shared_ptr<EvaluationFleet> outage_fleet(std::size_t workers) {
  BrokerConfig hifi;
  hifi.workers = workers;
  hifi.fault_plan = plan("seed=3,outage_start=1,outage_len=100000");
  BreakerConfig breaker;
  breaker.window = 4;
  breaker.failure_threshold = 2;
  return std::make_shared<EvaluationFleet>(fifo_project(), hifi, breaker);
}

DseConfig steady_campaign(std::uint64_t seed) {
  DseConfig config;
  config.space.params.push_back({"DEPTH", ParamDomain::range(8, 200, 8)});
  config.space.params.push_back({"DATA_WIDTH", ParamDomain::values({8, 16, 32, 64})});
  config.objectives = {{"lut", false}, {"fmax_mhz", true}};
  config.ga.population_size = 8;
  config.ga.seed = seed;
  config.steady_state = true;
  config.optimizer = "random";
  config.steady_state_evaluations = 24;
  config.preflight = false;
  return config;
}

TEST(EvaluationFleet, RacingCampaignsShareOneLazilyBuiltAnalyticBroker) {
  testing_support::CountingAnalytic analytic;
  const std::shared_ptr<EvaluationFleet> fleet = outage_fleet(2);
  ASSERT_EQ(fleet->built_analytic(), nullptr) << "the analytic tier must stay lazy";

  // Two campaigns over the same points, started together: both hedge from
  // their first fast-fail on, so both race to build the analytic broker.
  std::vector<std::unique_ptr<DseEngine>> engines;
  for (int i = 0; i < 2; ++i) {
    DseConfig config = steady_campaign(11);
    config.workers = 2;
    engines.push_back(std::make_unique<DseEngine>(fifo_project(), config, fleet));
  }
  std::vector<DseResult> results(engines.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < engines.size(); ++i) {
    threads.emplace_back([&, i] { results[i] = engines[i]->run(); });
  }
  for (auto& thread : threads) thread.join();

  for (const DseResult& result : results) {
    EXPECT_GT(result.stats.degraded_evals, 0u) << "a campaign never hedged";
    EXPECT_GT(result.stats.breaker_fast_fails, 0u);
  }
  const EvaluationBroker* screen = fleet->built_analytic();
  ASSERT_NE(screen, nullptr);
  EXPECT_EQ(&fleet->analytic(), screen);
  // One cache and one single-flight: every analytic flow was a distinct
  // fresh run, whichever campaign asked first.
  EXPECT_EQ(analytic.flows(), screen->stats().fresh_runs);
  // Each engine's stats report the shared tier's runs, whoever asked
  // (read after both finished: a result's own snapshot may predate the
  // other campaign's last hedge).
  for (const auto& engine : engines) {
    EXPECT_EQ(engine->stats().backend_runs.at(kAnalyticBackend), screen->stats().fresh_runs);
  }
}

TEST(EvaluationFleet, ReplayRestoresTheBreakersOnceAndReturnsTheInflightMarks) {
  const std::string path = testing::TempDir() + "/dovado_fleet_replay.jsonl";
  std::remove(path.c_str());
  {
    std::string error;
    auto journal = SessionJournal::open(path, nullptr, error);
    ASSERT_TRUE(journal) << error;
    HealthEvent trip;
    trip.backend = "vivado-sim";
    trip.kind = HealthEventKind::kTrip;
    trip.cause = "simulated outage";
    ASSERT_TRUE(journal->append_event(trip));
    ASSERT_TRUE(journal->append_inflight({{"DEPTH", 24}}, "random"));
  }
  BrokerConfig hifi;
  hifi.journal_path = path;
  hifi.resume_from_journal = true;
  EvaluationFleet fleet(fifo_project(), hifi, BreakerConfig{});
  ASSERT_NE(fleet.health(), nullptr);
  EXPECT_EQ(fleet.health()->state("vivado-sim"), BreakerState::kClosed);

  const SessionJournal::Replay replay = fleet.replay_journal();
  EXPECT_TRUE(replay.records.empty());  // no evaluation records
  EXPECT_EQ(fleet.health()->state("vivado-sim"), BreakerState::kOpen);
  EXPECT_EQ(fleet.health()->stats().trips, 1u);
  ASSERT_EQ(replay.inflight.size(), 1u);
  EXPECT_EQ(replay.inflight[0].optimizer, "random");

  const SessionJournal::Replay again = fleet.replay_journal();
  EXPECT_TRUE(again.health_events.empty());
  EXPECT_TRUE(again.inflight.empty());
  EXPECT_EQ(fleet.health()->stats().trips, 1u) << "a second replay restored again";
  std::remove(path.c_str());
}

TEST(EvaluationFleet, AnAnalyticHifiBackendHasNoBreakers) {
  ProjectConfig project = fifo_project();
  project.backend = kAnalyticBackend;
  EvaluationFleet fleet(project, BrokerConfig{}, BreakerConfig{});
  EXPECT_EQ(fleet.health(), nullptr);
  ProbeQueue probes(fleet);
  probes.push({{"DEPTH", 8}});
  EXPECT_TRUE(probes.empty()) << "a probe queue without breakers keeps nothing";
}

TEST(EvaluationFleet, SharedEngineRejectsItsOwnStoreOrJournal) {
  const std::shared_ptr<EvaluationFleet> fleet = outage_fleet(0);
  DseConfig config = steady_campaign(1);
  config.journal_path = testing::TempDir() + "/dovado_fleet_unused.jsonl";
  EXPECT_THROW(DseEngine(fifo_project(), config, fleet), std::invalid_argument);
  config.journal_path.clear();
  config.store_path = testing::TempDir() + "/dovado_fleet_unused.dvstore";
  EXPECT_THROW(DseEngine(fifo_project(), config, fleet), std::invalid_argument);
}

TEST(ProbeQueue, IsBoundedAndDeduplicated) {
  const std::shared_ptr<EvaluationFleet> fleet = outage_fleet(0);
  ProbeQueue probes(*fleet);
  EXPECT_TRUE(probes.empty());
  probes.push({{"DEPTH", 8}});
  EXPECT_FALSE(probes.empty());

  // A closed breaker wants no probe: the drain leaves the queue alone.
  int answers = 0;
  probes.drain([&](const DesignPoint&, const EvalResult&) { ++answers; });
  EXPECT_EQ(answers, 0);
  EXPECT_FALSE(probes.empty());

  // Trip the breaker, then drain: each probe fails under the outage (and
  // re-trips it) or is fast-failed back into the queue.
  for (std::int64_t depth = 100; depth < 110; ++depth) {
    (void)fleet->broker().tool_evaluate({{"DEPTH", depth}});
  }
  ASSERT_EQ(fleet->health()->state("vivado-sim"), BreakerState::kOpen);
  // A repeat, then more points than the cap (max(4 x probe_budget, 8) = 12).
  for (std::int64_t depth = 8; depth < 40; ++depth) probes.push({{"DEPTH", depth}});
  std::vector<DesignPoint> probed;
  for (int round = 0; round < 200 && !probes.empty(); ++round) {
    (void)fleet->broker().tool_evaluate({{"DEPTH", 1000 + round}});  // counts the cooldown
    probes.drain([&](const DesignPoint& point, const EvalResult& r) {
      EXPECT_FALSE(r.ok);
      probed.push_back(point);
    });
  }
  EXPECT_TRUE(probes.empty());
  ASSERT_EQ(probed.size(), 12u);
  EXPECT_EQ(std::set<DesignPoint>(probed.begin(), probed.end()).size(), probed.size());
  EXPECT_EQ(probed.front(), (DesignPoint{{"DEPTH", 8}}));
  EXPECT_EQ(probed.back(), (DesignPoint{{"DEPTH", 19}}));
}

}  // namespace
}  // namespace dovado::core
