// The daemon's evaluation fleet: breakers that recover without a campaign,
// breakers restored from the journal on restart, and one analytic tier
// that every campaign's hedges share.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/serve/server.hpp"
#include "src/store/store.hpp"
#include "tests/core/counting_analytic.hpp"

namespace dovado::serve {
namespace {

core::ProjectConfig fifo_project() {
  core::ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                            hdl::HdlLanguage::kSystemVerilog, "work", false});
  config.top_module = "cv32e40p_fifo";
  config.part = "xc7k70t";
  config.target_period_ns = 1.0;
  return config;
}

/// An inline daemon on a virtual clock with the breaker at its defaults,
/// under `plan` (no faults when empty).
ServeConfig outage_config(const std::string& plan) {
  ServeConfig config;
  config.project = fifo_project();
  config.broker.workers = 0;
  config.clock = [] { return 0.0; };
  if (!plan.empty()) {
    std::string error;
    const auto parsed = edatool::FaultPlan::parse(plan, error);
    if (!parsed) throw std::invalid_argument(error);
    config.broker.fault_plan = *parsed;
  }
  return config;
}

/// The i-th of 400 distinct FIFO points.
core::DesignPoint distinct_point(int i) {
  static const std::int64_t kWidths[] = {8, 16, 32, 64};
  return {{"DEPTH", 8 + i / 4}, {"DATA_WIDTH", kWidths[i % 4]}};
}

Response eval(Server& server, const core::DesignPoint& point, int i) {
  Request request;
  request.op = RequestOp::kEval;
  request.tenant = "alice";
  request.id = "e" + std::to_string(i);
  request.point = point;
  return server.execute(request);
}

Request hedging_campaign(const std::string& id) {
  Request request;
  request.op = RequestOp::kCampaign;
  request.tenant = "alice";
  request.id = id;
  request.campaign.space.params.push_back({"DEPTH", core::ParamDomain::range(8, 200, 8)});
  request.campaign.space.params.push_back(
      {"DATA_WIDTH", core::ParamDomain::values({8, 16, 32, 64})});
  request.campaign.objectives = {{"lut", false}, {"fmax_mhz", true}};
  request.campaign.budget = 16;
  request.campaign.optimizer = "random";
  request.campaign.population = 8;
  request.campaign.seed = 11;
  return request;
}

/// Fresh analytic-tier runs per point, counted by a derived metric: it
/// runs once per successful pipeline answer (cache hits and single-flight
/// joins carry the stored value), and no hi-fi evaluation succeeds under
/// the outage.
using HedgeCounts = std::map<core::DesignPoint, int>;

/// Two identical campaigns under an outage that outlasts both: the second
/// asks what the first asked, so it hedges points the first hedged.
ServeConfig shared_hedge_config(const std::shared_ptr<HedgeCounts>& hedges) {
  ServeConfig config = outage_config("seed=3,outage_start=1,outage_len=100000");
  config.max_inflight = 3;
  config.breaker.window = 4;
  config.breaker.failure_threshold = 2;
  config.broker.derived_metrics.push_back(
      {"hedge_tick", [hedges](const core::DesignPoint& point, const core::EvalMetrics&) {
         return static_cast<double>(++(*hedges)[point]);
       }});
  return config;
}

int answers(const HedgeCounts& hedges) {
  int total = 0;
  for (const auto& [point, count] : hedges) total += count;
  return total;
}

TEST(ServerFleet, SingleEvalsRecoverAnOpenBreakerThroughProbes) {
  Server server(outage_config("seed=3,outage_start=5,outage_len=100"));
  int first_shed = -1;
  int ok_after_shed = 0;
  for (int i = 0; i < 400; ++i) {
    const Response r = eval(server, distinct_point(i), i);
    if (r.status == ResponseStatus::kShed) {
      EXPECT_EQ(r.reason, "backend_unavailable");
      if (first_shed < 0) first_shed = i;
    } else if (r.status == ResponseStatus::kOk && first_shed >= 0) {
      ++ok_after_shed;
    }
  }
  // The outage tripped the breaker; once its attempts ran out the shed
  // points' probes closed it again and single evals answered ok.
  ASSERT_GE(first_shed, 0) << "the outage never tripped the breaker";
  EXPECT_GT(ok_after_shed, 300);
  EXPECT_EQ(server.fleet().health()->state("vivado-sim"), core::BreakerState::kClosed);
  EXPECT_GE(server.fleet().health()->stats().recoveries, 1u);
  EXPECT_EQ(eval(server, distinct_point(399), 400).status, ResponseStatus::kOk);
}

TEST(ServerFleet, ProbeSecondsAreChargedToTheCompletionsTenant) {
  Server server(outage_config("seed=3,outage_start=5,outage_len=100"));
  double answered = 0.0;
  for (int i = 0; i < 200; ++i) answered += eval(server, distinct_point(i), i).tool_seconds;
  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  // Every broker second is either a response's or a probe's, and the
  // tenant pays for both.
  EXPECT_GT(server.fleet().health()->stats().probe_runs, 0u);
  EXPECT_GT(stats.broker.tool_seconds, answered);
  EXPECT_DOUBLE_EQ(stats.tenants[0].admission.tool_seconds_charged, stats.broker.tool_seconds);
}

TEST(ServerFleet, RestartedDaemonRestoresAnOpenBreakerThenProbesItClosed) {
  const std::string journal = testing::TempDir() + "/dovado_serve_breaker.jsonl";
  std::remove(journal.c_str());
  {
    // A long outage trips the breaker and the daemon stops while it is
    // still open.
    ServeConfig config = outage_config("seed=3,outage_start=1,outage_len=100000");
    config.broker.journal_path = journal;
    Server server(config);
    for (int i = 0; i < 30; ++i) (void)eval(server, distinct_point(i), i);
    ASSERT_EQ(server.fleet().health()->state("vivado-sim"), core::BreakerState::kOpen);
  }
  // The restart has a healthy backend but does not know it yet: the
  // journaled trip opens its breaker before the first evaluation.
  ServeConfig config = outage_config("");
  config.broker.journal_path = journal;
  config.broker.resume_from_journal = true;
  Server server(config);
  const Response first = eval(server, distinct_point(100), 100);
  EXPECT_EQ(first.status, ResponseStatus::kShed);
  EXPECT_EQ(first.reason, "backend_unavailable");

  int answered_at = -1;
  for (int i = 101; i < 160 && answered_at < 0; ++i) {
    if (eval(server, distinct_point(i), i).status == ResponseStatus::kOk) answered_at = i;
  }
  EXPECT_GE(answered_at, 0) << "the restored breaker never recovered";
  EXPECT_EQ(server.fleet().health()->state("vivado-sim"), core::BreakerState::kClosed);
  std::remove(journal.c_str());
}

TEST(ServerFleet, CampaignsHedgingTheSamePointRunTheAnalyticBackendOnce) {
  testing_support::CountingAnalytic analytic;
  auto hedges = std::make_shared<HedgeCounts>();
  Server server(shared_hedge_config(hedges));
  ASSERT_EQ(server.execute(hedging_campaign("c-a")).status, ResponseStatus::kOk);
  const int first_answers = answers(*hedges);
  ASSERT_GT(first_answers, 0) << "the first campaign never hedged";
  const Response second = server.execute(hedging_campaign("c-b"));
  ASSERT_EQ(second.status, ResponseStatus::kOk);
  // No hi-fi run succeeds under the outage, so every front member is a
  // hedge: an empty front means the second campaign never hedged.
  ASSERT_FALSE(second.front.empty()) << "the second campaign never hedged";
  // One analytic flow per distinct hedged point, whichever campaign asked,
  // and one derived-metric computation per flow.
  EXPECT_EQ(analytic.flows(), hedges->size());
  EXPECT_EQ(static_cast<std::size_t>(answers(*hedges)), hedges->size());
  const core::EvaluationBroker* screen = server.fleet().built_analytic();
  ASSERT_NE(screen, nullptr);
  EXPECT_EQ(screen->stats().fresh_runs, hedges->size());
}

TEST(ServerFleet, SharedHedgesAreStoredOnceUnderTheScreenTier) {
  const std::string path = testing::TempDir() + "/dovado_serve_hedges.dvstore";
  std::remove(path.c_str());
  auto hedges = std::make_shared<HedgeCounts>();
  {
    ServeConfig config = shared_hedge_config(hedges);
    config.broker.store = core::EvaluationFleet::open_store(path);
    Server server(config);
    ASSERT_EQ(server.execute(hedging_campaign("c-a")).status, ResponseStatus::kOk);
    ASSERT_EQ(server.execute(hedging_campaign("c-b")).status, ResponseStatus::kOk);
  }
  ASSERT_FALSE(hedges->empty()) << "no campaign hedged";
  auto reopened = store::EvalStore::open_reader(path);
  ASSERT_TRUE(reopened.store) << reopened.error;
  // Every key was appended once (no record superseded another), and the
  // screen-tier keys are exactly the hedged points.
  EXPECT_EQ(reopened.store->stats().records, reopened.store->stats().live);
  std::size_t screen_records = 0;
  for (const store::StoreRecord& rec : reopened.store->live_records()) {
    if (rec.tier != store::EvalStore::kTierScreen) continue;
    ++screen_records;
    EXPECT_EQ(rec.backend, core::kAnalyticBackend);
    EXPECT_EQ(hedges->count(rec.params), 1u);
  }
  EXPECT_EQ(screen_records, hedges->size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dovado::serve
