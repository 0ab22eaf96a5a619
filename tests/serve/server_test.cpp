// In-process Server tests: execute() drives the same admission ->
// scheduler -> broker path the daemon's dispatch thread runs, with an
// injected virtual clock so every policy decision is deterministic.
#include "src/serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/store/store.hpp"
#include "src/util/json.hpp"

namespace dovado::serve {
namespace {

core::ProjectConfig fifo_project() {
  core::ProjectConfig config;
  config.sources.push_back(
      {std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
       hdl::HdlLanguage::kSystemVerilog, "work", false});
  config.top_module = "cv32e40p_fifo";
  config.part = "xc7k70t";
  config.target_period_ns = 1.0;
  return config;
}

/// A serve config on a virtual clock: tests advance *clock_now directly.
ServeConfig base_config(const std::shared_ptr<double>& clock_now) {
  ServeConfig config;
  config.project = fifo_project();
  config.broker.workers = 0;  // evaluate inline, fully deterministic
  config.breaker.enabled = false;
  config.clock = [clock_now] { return *clock_now; };
  return config;
}

Request eval_request(const std::string& tenant, std::int64_t depth,
                     const std::string& id, double deadline = 0.0) {
  Request request;
  request.op = RequestOp::kEval;
  request.tenant = tenant;
  request.id = id;
  request.point = {{"DEPTH", depth}};
  request.deadline_tool_seconds = deadline;
  return request;
}

TEST(Server, PingAndStatsAnswerInline) {
  auto clock_now = std::make_shared<double>(0.0);
  Server server(base_config(clock_now));

  Request ping;
  ping.op = RequestOp::kPing;
  ping.id = "p1";
  Response pong = server.execute(ping);
  EXPECT_EQ(pong.status, ResponseStatus::kOk);
  EXPECT_EQ(pong.id, "p1");

  Request stats;
  stats.op = RequestOp::kStats;
  stats.id = "s1";
  Response reply = server.execute(stats);
  ASSERT_EQ(reply.status, ResponseStatus::kOk);
  util::Json json;
  ASSERT_TRUE(util::Json::parse(reply.stats_json, json));
  ASSERT_TRUE(json.is_object());
  EXPECT_TRUE(json.as_object().count("broker"));
  EXPECT_TRUE(json.as_object().count("tenants"));
}

TEST(Server, EvalAnswersWithMetricsThenCacheHits) {
  auto clock_now = std::make_shared<double>(0.0);
  Server server(base_config(clock_now));

  Response first = server.execute(eval_request("alice", 32, "r1"));
  ASSERT_EQ(first.status, ResponseStatus::kOk) << first.error;
  EXPECT_GT(first.metrics.count("lut"), 0u);
  EXPECT_GT(first.metrics.count("fmax_mhz"), 0u);
  EXPECT_GT(first.tool_seconds, 0.0);
  EXPECT_FALSE(first.cache_hit);

  Response second = server.execute(eval_request("alice", 32, "r2"));
  ASSERT_EQ(second.status, ResponseStatus::kOk);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_DOUBLE_EQ(second.tool_seconds, 0.0);
  EXPECT_EQ(second.metrics, first.metrics);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.broker.fresh_runs, 1u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].name, "alice");
  EXPECT_EQ(stats.tenants[0].completed, 2u);
}

TEST(Server, MissingTenantIsAnError) {
  auto clock_now = std::make_shared<double>(0.0);
  Server server(base_config(clock_now));
  Response response = server.execute(eval_request("", 32, "r1"));
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_FALSE(response.error.empty());
}

TEST(Server, RequestRateShedsWithRetryHint) {
  auto clock_now = std::make_shared<double>(0.0);
  ServeConfig config = base_config(clock_now);
  ServeTenantConfig alice;
  alice.name = "alice";
  alice.policy.request_rate = 1.0;
  alice.policy.request_burst = 1.0;
  config.tenants.push_back(alice);
  Server server(config);

  Response first = server.execute(eval_request("alice", 32, "r1"));
  ASSERT_EQ(first.status, ResponseStatus::kOk) << first.error;

  Response second = server.execute(eval_request("alice", 40, "r2"));
  ASSERT_EQ(second.status, ResponseStatus::kShed);
  EXPECT_EQ(second.reason, "request_rate");
  EXPECT_GT(second.retry_after_ms, 0);

  // Honoring the hint admits the request.
  *clock_now += static_cast<double>(second.retry_after_ms) / 1000.0;
  Response third = server.execute(eval_request("alice", 40, "r3"));
  EXPECT_EQ(third.status, ResponseStatus::kOk) << third.error;
}

TEST(Server, ToolQuotaOverdraftShedsUntilRefillPaysItOff) {
  auto clock_now = std::make_shared<double>(0.0);
  ServeConfig config = base_config(clock_now);
  ServeTenantConfig alice;
  alice.name = "alice";
  alice.policy.tool_seconds_rate = 1.0;   // 1 tool-second/second
  alice.policy.tool_seconds_burst = 30.0; // far below one eval's cost
  config.tenants.push_back(alice);
  Server server(config);

  // Post-paid: the first eval is admitted on a positive level and its real
  // cost (~60 tool-seconds) drives the quota deep negative.
  Response first = server.execute(eval_request("alice", 32, "r1"));
  ASSERT_EQ(first.status, ResponseStatus::kOk) << first.error;
  ASSERT_GT(first.tool_seconds, 30.0);

  Response second = server.execute(eval_request("alice", 32, "r2"));
  ASSERT_EQ(second.status, ResponseStatus::kShed);
  EXPECT_EQ(second.reason, "tool_quota");
  EXPECT_GT(second.retry_after_ms, 0);

  // The refill rate pays the debt off; a cache hit then costs nothing.
  *clock_now += first.tool_seconds;  // level back to ~burst - nothing... > 0
  Response third = server.execute(eval_request("alice", 32, "r3"));
  ASSERT_EQ(third.status, ResponseStatus::kOk) << third.error;
  EXPECT_TRUE(third.cache_hit);

  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].admission.shed_tool_quota, 1u);
}

TEST(Server, DeadlineTruncationFailsWithoutPoisoningSharedState) {
  auto clock_now = std::make_shared<double>(0.0);
  Server server(base_config(clock_now));

  // One eval costs ~60 tool-seconds; a 0.5-second deadline must cut it.
  Response truncated = server.execute(eval_request("alice", 48, "d1", 0.5));
  ASSERT_EQ(truncated.status, ResponseStatus::kFailed);
  EXPECT_EQ(truncated.reason, "deadline");
  EXPECT_FALSE(truncated.error.empty());
  EXPECT_LE(truncated.tool_seconds, 0.5 + 1e-9);

  // The truncated answer reflects the requester's budget, not the design
  // point: it must not have been cached, so a roomier request still gets a
  // real (fresh) answer.
  Response fresh = server.execute(eval_request("alice", 48, "d2"));
  ASSERT_EQ(fresh.status, ResponseStatus::kOk) << fresh.error;
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_GT(fresh.tool_seconds, 1.0);
}

TEST(Server, DrainRefusesNewWorkWithDrainingStatus) {
  auto clock_now = std::make_shared<double>(0.0);
  Server server(base_config(clock_now));
  server.drain();
  Response response = server.execute(eval_request("alice", 32, "r1"));
  EXPECT_EQ(response.status, ResponseStatus::kDraining);
  EXPECT_TRUE(server.draining());
}

/// An eval whose derived-metric compute throws is answered `failed`, and
/// its job still completes: the server's inflight count drops back to zero,
/// and the next request is served. Inline (workers = 0) the exception must
/// not reach the caller of execute(); on a pool a job without a completion
/// would leave execute() (and a drain) waiting for good.
void expect_throwing_evaluation_fails_the_request(std::size_t workers) {
  auto clock_now = std::make_shared<double>(0.0);
  ServeConfig config = base_config(clock_now);
  config.broker.workers = workers;
  config.broker.derived_metrics.push_back(
      {"boom", [](const core::DesignPoint& point, const core::EvalMetrics&) -> double {
         if (point.at("DEPTH") == 48) throw std::runtime_error("derived metric blew up");
         return 1.0;
       }});
  Server server(config);

  const Response failed = server.execute(eval_request("alice", 48, "boom"));
  EXPECT_EQ(failed.status, ResponseStatus::kFailed);
  EXPECT_NE(failed.error.find("derived metric blew up"), std::string::npos) << failed.error;
  EXPECT_EQ(server.stats().inflight, 0u);

  const Response next = server.execute(eval_request("alice", 32, "next"));
  EXPECT_EQ(next.status, ResponseStatus::kOk) << next.error;
  EXPECT_EQ(server.stats().inflight, 0u);
}

TEST(Server, ThrowingEvaluationAnswersFailedInline) {
  expect_throwing_evaluation_fails_the_request(0);
}

TEST(Server, ThrowingEvaluationAnswersFailedOnAPool) {
  expect_throwing_evaluation_fails_the_request(2);
}

TEST(Server, CampaignRunsToBudgetAndReturnsAFront) {
  auto clock_now = std::make_shared<double>(0.0);
  Server server(base_config(clock_now));

  Request request;
  request.op = RequestOp::kCampaign;
  request.tenant = "alice";
  request.id = "c1";
  request.campaign.space.params.push_back(
      {"DEPTH", core::ParamDomain::range(8, 200)});
  request.campaign.objectives = {{"lut", false}, {"fmax_mhz", true}};
  request.campaign.budget = 6;
  request.campaign.population = 4;
  request.campaign.seed = 11;

  Response response = server.execute(request);
  ASSERT_EQ(response.status, ResponseStatus::kOk) << response.error;
  EXPECT_GE(response.evaluations, 6u);
  ASSERT_FALSE(response.front.empty());
  for (const FrontEntry& entry : response.front) {
    ASSERT_TRUE(entry.point.count("DEPTH"));
    EXPECT_GE(entry.point.at("DEPTH"), 8);
    EXPECT_LE(entry.point.at("DEPTH"), 200);
    // Objective values travel in the metric's direction: fmax is a real
    // (positive) megahertz figure, not its negated minimization form.
    ASSERT_TRUE(entry.objectives.count("lut"));
    ASSERT_TRUE(entry.objectives.count("fmax_mhz"));
    EXPECT_GT(entry.objectives.at("fmax_mhz"), 0.0);
  }
  EXPECT_GT(response.tool_seconds, 0.0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.campaigns_finished, 1u);
  EXPECT_EQ(stats.campaigns_active, 0u);
}

TEST(Server, CampaignAsksRefusedByAFullTenantQueueAreKept) {
  auto clock_now = std::make_shared<double>(0.0);
  ServeConfig config = base_config(clock_now);
  config.max_inflight = 4;
  ServeTenantConfig alice;
  alice.name = "alice";
  alice.policy.queue_cap = 1;  // one queued ask at a time; the window is 4
  config.tenants.push_back(alice);
  Server server(config);

  Request request;
  request.op = RequestOp::kCampaign;
  request.tenant = "alice";
  request.id = "c1";
  request.campaign.space.params.push_back(
      {"DEPTH", core::ParamDomain::range(8, 48, 8)});  // six points
  request.campaign.objectives = {{"lut", false}, {"fmax_mhz", true}};
  request.campaign.budget = 6;
  request.campaign.optimizer = "exhaustive";
  request.campaign.population = 4;

  Response response = server.execute(request);
  ASSERT_EQ(response.status, ResponseStatus::kOk) << response.error;
  EXPECT_EQ(response.evaluations, 6u);
  // Every point of the space ran exactly once: six fresh runs, and each
  // point is answered from the cache afterwards.
  EXPECT_EQ(server.stats().broker.fresh_runs, 6u);
  for (std::int64_t depth = 8; depth <= 48; depth += 8) {
    EXPECT_TRUE(server.broker().cached({{"DEPTH", depth}})) << "DEPTH=" << depth;
  }
}

TEST(Server, CampaignWithUnknownMetricIsRejectedWithAHint) {
  auto clock_now = std::make_shared<double>(0.0);
  Server server(base_config(clock_now));

  Request request;
  request.op = RequestOp::kCampaign;
  request.tenant = "alice";
  request.id = "c1";
  request.campaign.space.params.push_back(
      {"DEPTH", core::ParamDomain::range(8, 200)});
  request.campaign.objectives = {{"luts", false}};  // typo for "lut"
  request.campaign.budget = 4;

  Response response = server.execute(request);
  ASSERT_EQ(response.status, ResponseStatus::kError);
  EXPECT_NE(response.error.find("luts"), std::string::npos);
  EXPECT_NE(response.error.find("lut"), std::string::npos);
}

TEST(Server, CampaignWithUnknownParameterIsRejected) {
  auto clock_now = std::make_shared<double>(0.0);
  Server server(base_config(clock_now));

  Request request;
  request.op = RequestOp::kCampaign;
  request.tenant = "alice";
  request.id = "c1";
  request.campaign.space.params.push_back(
      {"DEPTH", core::ParamDomain::range(8, 200)});
  request.campaign.space.params.push_back(
      {"WIDTH", core::ParamDomain::range(8, 64)});  // the FIFO has DATA_WIDTH
  request.campaign.objectives = {{"lut", false}};
  request.campaign.budget = 4;

  Response response = server.execute(request);
  ASSERT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error,
            "design-space parameter 'WIDTH' is not a free parameter of module "
            "'cv32e40p_fifo'");
  EXPECT_TRUE(response.front.empty());
  EXPECT_EQ(server.stats().campaigns_finished, 0u);
}

TEST(Server, CampaignWithUnknownOptimizerIsRejected) {
  auto clock_now = std::make_shared<double>(0.0);
  Server server(base_config(clock_now));

  Request request;
  request.op = RequestOp::kCampaign;
  request.tenant = "alice";
  request.id = "c1";
  request.campaign.space.params.push_back(
      {"DEPTH", core::ParamDomain::range(8, 200)});
  request.campaign.objectives = {{"lut", false}};
  request.campaign.budget = 4;
  request.campaign.optimizer = "simulated-annealing-3000";

  Response response = server.execute(request);
  ASSERT_EQ(response.status, ResponseStatus::kError);
  EXPECT_FALSE(response.error.empty());
}

TEST(Server, FreshAnswersLandInTheSharedStore) {
  auto clock_now = std::make_shared<double>(0.0);
  const std::string path = ::testing::TempDir() + "/serve_store.dvstor";
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());

  {
    ServeConfig config = base_config(clock_now);
    auto opened = store::EvalStore::open_writer(path);
    ASSERT_TRUE(opened.store) << opened.error;
    config.broker.store = std::shared_ptr<store::EvalStore>(std::move(opened.store));
    config.broker.campaign_id = "first-boot";
    Server server(config);
    Response response = server.execute(eval_request("alice", 64, "r1"));
    ASSERT_EQ(response.status, ResponseStatus::kOk) << response.error;
    EXPECT_FALSE(response.store_hit);
    EXPECT_EQ(server.stats().broker.store_appends, 1u);
  }

  // A restarted server (fresh broker, empty cache) answers the same point
  // from the store: durable across restarts, charged zero tool seconds.
  {
    ServeConfig config = base_config(clock_now);
    auto opened = store::EvalStore::open_writer(path);
    ASSERT_TRUE(opened.store) << opened.error;
    config.broker.store = std::shared_ptr<store::EvalStore>(std::move(opened.store));
    config.broker.campaign_id = "second-boot";
    Server server(config);
    Response response = server.execute(eval_request("alice", 64, "r1"));
    ASSERT_EQ(response.status, ResponseStatus::kOk) << response.error;
    EXPECT_TRUE(response.store_hit);
    EXPECT_DOUBLE_EQ(response.tool_seconds, 0.0);
    EXPECT_EQ(server.stats().broker.fresh_runs, 0u);
  }
}

TEST(Server, StatsJsonCarriesPerTenantScheduling) {
  auto clock_now = std::make_shared<double>(0.0);
  ServeConfig config = base_config(clock_now);
  ServeTenantConfig alice;
  alice.name = "alice";
  alice.policy.weight = 10.0;
  config.tenants.push_back(alice);
  Server server(config);

  Response eval = server.execute(eval_request("alice", 32, "r1"));
  ASSERT_EQ(eval.status, ResponseStatus::kOk) << eval.error;

  util::Json json;
  ASSERT_TRUE(util::Json::parse(server.stats_json(), json));
  const util::JsonObject& obj = json.as_object();
  ASSERT_TRUE(obj.count("tenants"));
  const util::JsonArray& tenants = obj.at("tenants").as_array();
  ASSERT_EQ(tenants.size(), 1u);
  const util::JsonObject& tenant = tenants[0].as_object();
  EXPECT_EQ(tenant.at("name").as_string(), "alice");
  EXPECT_DOUBLE_EQ(tenant.at("weight").as_number(), 10.0);
  EXPECT_DOUBLE_EQ(tenant.at("completed").as_number(), 1.0);
  EXPECT_GT(tenant.at("tool_seconds").as_number(), 0.0);
  const util::JsonObject& broker = obj.at("broker").as_object();
  EXPECT_DOUBLE_EQ(broker.at("fresh_runs").as_number(), 1.0);
}

}  // namespace
}  // namespace dovado::serve
