// End-to-end daemon tests over a real Unix-domain socket: concurrent
// tenants on one shared broker, admission shedding on the wire, graceful
// drain losing zero acked evaluations, and concurrent store access while
// the daemon holds the writer lock (reader processes + `db compact`).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/serve/client.hpp"
#include "src/serve/server.hpp"
#include "src/store/store.hpp"
#include "src/util/json.hpp"
#include "src/util/socket.hpp"

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

/// A scratch path under the test temp directory, unique to this process so
/// that concurrent test_serve runs never reach each other's daemons.
std::string temp_path(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "/dovado_" + std::to_string(getpid()) + "_" + name;
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  return path;
}

ServeConfig socket_config(const std::string& socket_path) {
  ServeConfig config;
  config.socket_path = socket_path;
  config.project = fifo_project();
  config.broker.workers = 2;
  config.breaker.enabled = false;
  return config;
}

/// Run a shell command, returning its exit code (-1 when it died oddly).
int run_command(const std::string& command) {
  const int status = std::system(command.c_str());
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ServeE2e, PingEvalAndStatsOverTheSocket) {
  const std::string socket_path = temp_path("e2e_basic.sock");
  Server server(socket_config(socket_path));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket_path, error)) << error;
  EXPECT_TRUE(client.ping(error)) << error;

  Response first;
  ASSERT_TRUE(client.eval("alice", {{"DEPTH", 32}}, 0.0, first, error)) << error;
  ASSERT_EQ(first.status, ResponseStatus::kOk) << first.error;
  EXPECT_GT(first.metrics.count("lut"), 0u);
  EXPECT_GT(first.tool_seconds, 0.0);

  Response second;
  ASSERT_TRUE(client.eval("alice", {{"DEPTH", 32}}, 0.0, second, error)) << error;
  ASSERT_EQ(second.status, ResponseStatus::kOk);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_DOUBLE_EQ(second.tool_seconds, 0.0);

  std::string stats_json;
  ASSERT_TRUE(client.stats(stats_json, error)) << error;
  util::Json json;
  ASSERT_TRUE(util::Json::parse(stats_json, json));
  EXPECT_TRUE(json.as_object().count("tenants"));

  client.close();
  server.drain();
  server.wait();
}

// A point value that is not an integer of magnitude below 2^53 is an
// `error` reply on the wire, not a rounded evaluation.
TEST(ServeE2e, NonIntegralPointGetsAnErrorReply) {
  const std::string socket_path = temp_path("e2e_non_integral.sock");
  Server server(socket_config(socket_path));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  {
    util::LineSocket sock = util::connect_unix(socket_path, error);
    ASSERT_TRUE(sock.valid()) << error;
    for (const std::string bad : {"16.7", "1e30", "-1e30", "9007199254740993"}) {
      ASSERT_TRUE(sock.write_line(
          R"({"op":"eval","tenant":"alice","id":"x","point":{"DEPTH":)" + bad + "}}", 5000));
      std::string line;
      ASSERT_TRUE(sock.read_line(line, 5000)) << bad;
      Response response;
      ASSERT_TRUE(parse_response(line, response, error)) << error;
      EXPECT_EQ(response.status, ResponseStatus::kError) << bad << ": " << line;
      EXPECT_NE(response.error.find("DEPTH"), std::string::npos) << line;
    }
  }
  EXPECT_EQ(server.stats().broker.fresh_runs, 0u);

  server.drain();
  server.wait();
}

TEST(ServeE2e, ThreeTenantsShareAFlappingBackend) {
  const std::string socket_path = temp_path("e2e_tenants.sock");
  ServeConfig config = socket_config(socket_path);
  // The backend flaps (3 healthy attempts, then 2 crashing) while three
  // tenants with 10:1:1 weights submit concurrently; the supervisor's
  // retries ride through the down windows, so every tenant progresses.
  // The flap schedule counts attempts fleet-wide, so the tenants share one
  // tool seat: a point's 1 + 3 attempts are then consecutive and always
  // reach an up slot. With two seats the other seat could take the up
  // slots between them (ordinals 4, 5, 9, 10 all down) and fail the point.
  config.max_inflight = 1;
  std::string plan_error;
  const auto plan =
      edatool::FaultPlan::parse("seed=7,flap_up=3,flap_down=2", plan_error);
  ASSERT_TRUE(plan.has_value()) << plan_error;
  config.broker.fault_plan = *plan;
  for (const auto& [name, weight] : std::vector<std::pair<std::string, double>>{
           {"heavy", 10.0}, {"light-a", 1.0}, {"light-b", 1.0}}) {
    ServeTenantConfig tenant;
    tenant.name = name;
    tenant.policy.weight = weight;
    config.tenants.push_back(tenant);
  }
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  // Distinct depth ranges per tenant so every request is a fresh tool run.
  auto client_loop = [&](const std::string& tenant, std::int64_t depth_base,
                         int count, std::size_t* ok_count) {
    Client client;
    std::string client_error;
    ASSERT_TRUE(client.connect(socket_path, client_error)) << client_error;
    for (int i = 0; i < count; ++i) {
      Response response;
      ASSERT_TRUE(client.eval(tenant, {{"DEPTH", depth_base + i}}, 0.0, response,
                              client_error))
          << client_error;
      if (response.status == ResponseStatus::kOk) {
        ++*ok_count;
      } else {
        // Any refusal must be an explicit, honest backpressure reply.
        ASSERT_EQ(response.status, ResponseStatus::kShed) << response.error;
        EXPECT_FALSE(response.reason.empty());
        EXPECT_GT(response.retry_after_ms, 0);
      }
    }
  };

  std::size_t heavy_ok = 0;
  std::size_t light_a_ok = 0;
  std::size_t light_b_ok = 0;
  std::thread heavy(client_loop, "heavy", 10, 8, &heavy_ok);
  std::thread light_a(client_loop, "light-a", 60, 3, &light_a_ok);
  std::thread light_b(client_loop, "light-b", 110, 3, &light_b_ok);
  heavy.join();
  light_a.join();
  light_b.join();

  EXPECT_GT(heavy_ok, 0u);
  EXPECT_GT(light_a_ok, 0u);
  EXPECT_GT(light_b_ok, 0u);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.tenants.size(), 3u);
  std::size_t completed = 0;
  for (const auto& tenant : stats.tenants) completed += tenant.completed;
  EXPECT_EQ(completed, heavy_ok + light_a_ok + light_b_ok);
  // The flapping backend forced retries; the service absorbed them.
  EXPECT_GT(stats.broker.retries, 0u);

  server.drain();
  server.wait();
}

TEST(ServeE2e, QuotaExhaustedTenantShedsOnTheWire) {
  const std::string socket_path = temp_path("e2e_quota.sock");
  ServeConfig config = socket_config(socket_path);
  // Freeze admission time: the quota never refills, so the overdraft from
  // the first (~60 tool-second) eval sheds everything after it.
  config.clock = [] { return 0.0; };
  ServeTenantConfig capped;
  capped.name = "capped";
  capped.policy.tool_seconds_rate = 1.0;
  capped.policy.tool_seconds_burst = 30.0;
  config.tenants.push_back(capped);
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket_path, error)) << error;
  Response first;
  ASSERT_TRUE(client.eval("capped", {{"DEPTH", 24}}, 0.0, first, error)) << error;
  ASSERT_EQ(first.status, ResponseStatus::kOk) << first.error;
  ASSERT_GT(first.tool_seconds, 30.0);

  Response second;
  ASSERT_TRUE(client.eval("capped", {{"DEPTH", 25}}, 0.0, second, error)) << error;
  ASSERT_EQ(second.status, ResponseStatus::kShed);
  EXPECT_EQ(second.reason, "tool_quota");
  EXPECT_GT(second.retry_after_ms, 0);

  server.drain();
  server.wait();
}

TEST(ServeE2e, ConcurrentCampaignsUnderAnOutageBillEveryToolSecond) {
  // Two tenants' campaigns share a two-worker fleet while the tool is down
  // for a stretch: fast-failed asks are hedged, recovery probes bring the
  // breaker back, and every hi-fi tool second lands on a tenant's bill.
  const std::string socket_path = temp_path("e2e_campaigns.sock");
  ServeConfig config = socket_config(socket_path);
  config.max_inflight = 3;
  config.breaker.enabled = true;
  config.breaker.window = 4;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_fast_fails = 1;
  config.breaker.probe_budget = 2;
  config.breaker.probe_quorum = 1;
  std::string plan_error;
  const auto plan =
      edatool::FaultPlan::parse("seed=3,outage_start=5,outage_len=12", plan_error);
  ASSERT_TRUE(plan.has_value()) << plan_error;
  config.broker.fault_plan = *plan;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  auto run_campaign = [&](const std::string& tenant, const std::string& optimizer,
                          Response* response) {
    Client client;
    std::string client_error;
    ASSERT_TRUE(client.connect(socket_path, client_error)) << client_error;
    Request request;
    request.op = RequestOp::kCampaign;
    request.tenant = tenant;
    request.id = "c-" + tenant;
    request.campaign.space.params.push_back({"DEPTH", core::ParamDomain::range(8, 200, 8)});
    request.campaign.space.params.push_back(
        {"DATA_WIDTH", core::ParamDomain::values({8, 16, 32, 64})});
    request.campaign.objectives = {{"lut", false}, {"fmax_mhz", true}};
    request.campaign.budget = 12;
    request.campaign.optimizer = optimizer;
    request.campaign.population = 4;
    request.campaign.seed = 5;
    ASSERT_TRUE(client.request(request, *response, client_error, 60000)) << client_error;
  };
  Response alice;
  Response bob;
  std::thread alice_thread(run_campaign, "alice", "nsga2", &alice);
  std::thread bob_thread(run_campaign, "bob", "random", &bob);
  alice_thread.join();
  bob_thread.join();

  ASSERT_EQ(alice.status, ResponseStatus::kOk) << alice.error;
  ASSERT_EQ(bob.status, ResponseStatus::kOk) << bob.error;
  EXPECT_EQ(alice.evaluations, 12u);
  EXPECT_EQ(bob.evaluations, 12u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.campaigns_finished, 2u);
  ASSERT_EQ(stats.tenants.size(), 2u);
  double billed = 0.0;
  for (const auto& tenant : stats.tenants) {
    const Response& response = tenant.name == "alice" ? alice : bob;
    EXPECT_DOUBLE_EQ(tenant.admission.tool_seconds_charged, response.tool_seconds)
        << tenant.name;
    billed += tenant.admission.tool_seconds_charged;
  }
  EXPECT_NEAR(billed, stats.broker.tool_seconds, 1e-9 * stats.broker.tool_seconds);

  server.drain();
  server.wait();
}

TEST(ServeE2e, DrainLosesNoAckedEvaluations) {
  const std::string socket_path = temp_path("e2e_drain.sock");
  const std::string store_path = temp_path("e2e_drain.dvstor");
  const std::string journal_path = temp_path("e2e_drain.journal");

  std::vector<core::DesignPoint> points;
  for (std::int64_t depth : {16, 48, 96}) points.push_back({{"DEPTH", depth}});

  {
    ServeConfig config = socket_config(socket_path);
    config.broker.journal_path = journal_path;
    auto opened = store::EvalStore::open_writer(store_path);
    ASSERT_TRUE(opened.store) << opened.error;
    config.broker.store = std::shared_ptr<store::EvalStore>(std::move(opened.store));
    Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(socket_path, error)) << error;
    for (const auto& point : points) {
      Response response;
      ASSERT_TRUE(client.eval("alice", point, 0.0, response, error)) << error;
      // The ack implies the answer is journaled and store-appended.
      ASSERT_EQ(response.status, ResponseStatus::kOk) << response.error;
    }
    client.close();
    server.drain();
    server.wait();
  }

  // Restart: every acked evaluation must come back for free (journal
  // replay or store hit) — zero fresh tool runs to re-answer them.
  {
    ServeConfig config = socket_config(socket_path);
    config.broker.journal_path = journal_path;
    config.broker.resume_from_journal = true;
    auto opened = store::EvalStore::open_writer(store_path);
    ASSERT_TRUE(opened.store) << opened.error;
    config.broker.store = std::shared_ptr<store::EvalStore>(std::move(opened.store));
    Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(socket_path, error)) << error;
    for (const auto& point : points) {
      Response response;
      ASSERT_TRUE(client.eval("alice", point, 0.0, response, error)) << error;
      ASSERT_EQ(response.status, ResponseStatus::kOk) << response.error;
      EXPECT_TRUE(response.cache_hit || response.store_hit);
      EXPECT_DOUBLE_EQ(response.tool_seconds, 0.0);
    }
    EXPECT_EQ(server.stats().broker.fresh_runs, 0u);
    server.drain();
    server.wait();
  }
}

TEST(ServeE2e, DrainWaitsForAnEvaluationStillRunning) {
  // The drain starts while a worker is still evaluating; the dispatcher
  // must wait for that answer (and answer it), not spin holding the lock
  // the worker needs to hand the answer over.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
  };
  auto gate = std::make_shared<Gate>();
  const std::string socket_path = temp_path("e2e_drain_inflight.sock");
  ServeConfig config = socket_config(socket_path);
  config.broker.derived_metrics.push_back(
      {"gate", [gate](const core::DesignPoint&, const core::EvalMetrics&) {
         std::unique_lock<std::mutex> lock(gate->mu);
         gate->entered = true;
         gate->cv.notify_all();
         gate->cv.wait(lock, [&] { return gate->released; });
         return 0.0;
       }});
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket_path, error)) << error;
  Response response;
  std::thread requester([&] {
    std::string request_error;
    (void)client.eval("alice", {{"DEPTH", 16}}, 0.0, response, request_error, 30000);
  });
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [&] { return gate->entered; });
  }
  server.drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // the drain begins
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->released = true;
  }
  gate->cv.notify_all();

  std::future<void> drained = std::async(std::launch::async, [&] { server.wait(); });
  if (drained.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    // The dispatcher is stuck: nothing below could return.
    std::fprintf(stderr, "drain did not finish within 30 s with an evaluation in flight\n");
    std::_Exit(1);
  }
  requester.join();
  EXPECT_EQ(response.status, ResponseStatus::kOk) << response.error;
}

TEST(ServeE2e, DrainDropsACampaignsQueuedPointsUntold) {
  // Two evals hold both tool seats (blocked in the evaluation) while a
  // campaign's first points wait in the scheduler; the drain drops those
  // points from the campaign's loop without telling them, so the campaign
  // answers at once with nothing evaluated, and the evals still finish.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    int entered = 0;
    bool released = false;
  };
  auto gate = std::make_shared<Gate>();
  const std::string socket_path = temp_path("e2e_drain_campaign.sock");
  ServeConfig config = socket_config(socket_path);
  config.max_inflight = 2;
  config.broker.derived_metrics.push_back(
      {"gate", [gate](const core::DesignPoint&, const core::EvalMetrics&) {
         std::unique_lock<std::mutex> lock(gate->mu);
         ++gate->entered;
         gate->cv.notify_all();
         gate->cv.wait(lock, [&] { return gate->released; });
         return 0.0;
       }});
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  std::vector<Response> evals(2);
  std::vector<std::thread> eval_threads;
  for (std::size_t i = 0; i < evals.size(); ++i) {
    eval_threads.emplace_back([&, i] {
      Client client;
      std::string client_error;
      ASSERT_TRUE(client.connect(socket_path, client_error)) << client_error;
      (void)client.eval("bob", {{"DEPTH", 16 + 8 * static_cast<std::int64_t>(i)}}, 0.0,
                        evals[i], client_error, 30000);
    });
  }
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    ASSERT_TRUE(gate->cv.wait_for(lock, std::chrono::seconds(30),
                                  [&] { return gate->entered == 2; }));
  }

  Response campaign;
  std::thread campaign_thread([&] {
    Client client;
    std::string client_error;
    ASSERT_TRUE(client.connect(socket_path, client_error)) << client_error;
    Request request;
    request.op = RequestOp::kCampaign;
    request.tenant = "alice";
    request.id = "c1";
    request.campaign.space.params.push_back({"DEPTH", core::ParamDomain::range(64, 200, 8)});
    request.campaign.objectives = {{"lut", false}};
    request.campaign.budget = 8;
    request.campaign.population = 4;
    (void)client.request(request, campaign, client_error, 30000);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().queued < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().queued, 2u);  // the campaign's window, waiting for a seat

  server.drain();
  campaign_thread.join();
  EXPECT_EQ(campaign.status, ResponseStatus::kOk) << campaign.error;
  EXPECT_EQ(campaign.evaluations, 0u);
  EXPECT_TRUE(campaign.front.empty());
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->released = true;
  }
  gate->cv.notify_all();
  for (auto& thread : eval_threads) thread.join();
  for (const Response& eval : evals) EXPECT_EQ(eval.status, ResponseStatus::kOk) << eval.error;
  server.wait();
  EXPECT_EQ(server.stats().campaigns_finished, 1u);
}

TEST(ServeE2e, DrainChargesOnlyTheJobThatRan) {
  // One of alice's evals runs (blocked in the evaluation) while two more
  // wait in her queue; the drain sheds those two. They never ran, so they
  // are not charged: once the running eval lands, her deficit is what
  // dispatch deducted for it minus what it cost, and no expectation is left.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
  };
  auto gate = std::make_shared<Gate>();
  const std::string socket_path = temp_path("e2e_drain_charge.sock");
  ServeConfig config = socket_config(socket_path);
  config.max_inflight = 1;
  config.broker.derived_metrics.push_back(
      {"gate", [gate](const core::DesignPoint& point, const core::EvalMetrics&) {
         if (point.at("DEPTH") != 48) return 0.0;
         std::unique_lock<std::mutex> lock(gate->mu);
         gate->entered = true;
         gate->cv.notify_all();
         gate->cv.wait(lock, [&] { return gate->released; });
         return 0.0;
       }});
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  const auto alice = [&server] {
    for (const ServerTenantStats& tenant : server.stats().tenants) {
      if (tenant.name == "alice") return tenant.queue;
    }
    return TenantQueueStats{};
  };

  // A first eval seeds alice's expected cost with a real charge.
  {
    Client client;
    ASSERT_TRUE(client.connect(socket_path, error)) << error;
    Response seed;
    ASSERT_TRUE(client.eval("alice", {{"DEPTH", 32}}, 0.0, seed, error)) << error;
    ASSERT_EQ(seed.status, ResponseStatus::kOk) << seed.error;
  }
  const double expected = alice().expected_cost;
  ASSERT_GT(expected, 0.0);

  Response running;
  std::thread running_thread([&] {
    Client client;
    std::string client_error;
    ASSERT_TRUE(client.connect(socket_path, client_error)) << client_error;
    (void)client.eval("alice", {{"DEPTH", 48}}, 0.0, running, client_error, 30000);
  });
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    ASSERT_TRUE(gate->cv.wait_for(lock, std::chrono::seconds(30), [&] { return gate->entered; }));
  }
  std::vector<Response> queued(2);
  std::vector<std::thread> queued_threads;
  for (std::size_t i = 0; i < queued.size(); ++i) {
    queued_threads.emplace_back([&, i] {
      Client client;
      std::string client_error;
      ASSERT_TRUE(client.connect(socket_path, client_error)) << client_error;
      (void)client.eval("alice", {{"DEPTH", 56 + 8 * static_cast<std::int64_t>(i)}}, 0.0,
                        queued[i], client_error, 30000);
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().queued < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().queued, 2u);
  EXPECT_EQ(alice().inflight, 1u);

  server.drain();
  for (auto& thread : queued_threads) thread.join();
  for (const Response& shed : queued) EXPECT_EQ(shed.status, ResponseStatus::kDraining);
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->released = true;
  }
  gate->cv.notify_all();
  running_thread.join();
  server.wait();
  ASSERT_EQ(running.status, ResponseStatus::kOk) << running.error;
  ASSERT_GT(running.tool_seconds, 0.0);

  const TenantQueueStats after = alice();
  EXPECT_DOUBLE_EQ(after.deficit, expected - running.tool_seconds);
  EXPECT_EQ(after.inflight, 0u);
}

TEST(ServeE2e, DrainRefusesNewConnectionsWork) {
  const std::string socket_path = temp_path("e2e_refuse.sock");
  Server server(socket_config(socket_path));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket_path, error)) << error;
  server.drain();

  // With nothing in flight the drain finishes immediately, so the late
  // frame is either answered `draining` or finds the connection already
  // torn down — both are honest refusals, neither hangs.
  Response response;
  if (client.eval("alice", {{"DEPTH", 32}}, 0.0, response, error)) {
    EXPECT_EQ(response.status, ResponseStatus::kDraining);
  } else {
    EXPECT_FALSE(error.empty());
  }

  server.wait();
}

// Regression: a frame that lands after the connection worker has observed
// the stop flag used to sit unanswered on a still-open fd until
// Server::wait() destroyed the connection — a client blocking on the
// response (the default infinite timeout) hung forever if it called wait()
// only after eval() returned. The worker now shuts the socket down on
// exit, so the late client sees EOF promptly instead of a silent stall.
TEST(ServeE2e, LateFrameAfterDrainSeesEofNotSilence) {
  const std::string socket_path = temp_path("e2e_late_frame.sock");
  Server server(socket_config(socket_path));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(socket_path, error)) << error;
  server.drain();

  // Keep poking until the connection worker has exited. Every attempt must
  // resolve within its bounded timeout: either the worker is still polling
  // (answers `draining`) or it is gone and the shutdown surfaces as a send
  // failure / EOF. A timeout means the old hang is back. The worker exits
  // only after the dispatcher has drained and flushed, which under load can
  // outlast many ~1 ms `draining` answers, so the loop is bounded by time.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool refused_with_eof = false;
  while (std::chrono::steady_clock::now() < give_up) {
    Response response;
    std::string attempt_error;
    if (client.eval("alice", {{"DEPTH", 48}}, 0.0, response, attempt_error,
                    /*timeout_ms=*/500)) {
      ASSERT_EQ(response.status, ResponseStatus::kDraining);
      continue;
    }
    ASSERT_EQ(attempt_error.find("timed out"), std::string::npos)
        << "late frame hung instead of being refused: " << attempt_error;
    refused_with_eof = true;
    break;
  }
  EXPECT_TRUE(refused_with_eof);

  server.wait();
}

// Satellite: concurrent store access under service load. The daemon holds
// the store's writer lock and appends fresh answers while reader processes
// (`dovado db stats`) snapshot it concurrently; `db compact` must refuse
// cleanly while the daemon lives and succeed once it has drained.
TEST(ServeE2e, StoreStaysReadableUnderServiceLoadAndCompactsAfterDrain) {
  const std::string socket_path = temp_path("e2e_store.sock");
  const std::string store_path = temp_path("e2e_store.dvstor");
  const std::string dovado = DOVADO_BIN;
  const std::string stats_cmd =
      dovado + " db stats --store " + store_path + " >/dev/null 2>&1";
  const std::string compact_cmd =
      dovado + " db compact --store " + store_path + " >/dev/null 2>&1";

  {
    ServeConfig config = socket_config(socket_path);
    auto opened = store::EvalStore::open_writer(store_path);
    ASSERT_TRUE(opened.store) << opened.error;
    config.broker.store = std::shared_ptr<store::EvalStore>(std::move(opened.store));
    Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    // A writer client appends fresh evaluations...
    std::thread writer([&] {
      Client client;
      std::string client_error;
      ASSERT_TRUE(client.connect(socket_path, client_error)) << client_error;
      for (std::int64_t depth = 130; depth < 140; ++depth) {
        Response response;
        ASSERT_TRUE(client.eval("loader", {{"DEPTH", depth}}, 0.0, response,
                                client_error))
            << client_error;
        ASSERT_EQ(response.status, ResponseStatus::kOk) << response.error;
      }
    });

    // ...while reader processes snapshot the store concurrently.
    std::vector<std::thread> readers;
    std::vector<int> reader_rc(3, -1);
    for (std::size_t i = 0; i < reader_rc.size(); ++i) {
      readers.emplace_back([&, i] {
        int worst = 0;
        for (int round = 0; round < 2; ++round) {
          const int rc = run_command(stats_cmd);
          if (rc != 0) worst = rc;
        }
        reader_rc[i] = worst;
      });
    }
    writer.join();
    for (auto& reader : readers) reader.join();
    for (const int rc : reader_rc) EXPECT_EQ(rc, 0) << "db stats failed mid-load";

    // Compaction needs the writer lock the daemon holds: it must refuse
    // with a clean error, not corrupt or block.
    EXPECT_NE(run_command(compact_cmd), 0);

    EXPECT_GE(server.stats().broker.store_appends, 10u);
    server.drain();
    server.wait();
  }

  // Lock released: compaction now succeeds and the store stays readable.
  EXPECT_EQ(run_command(compact_cmd), 0);
  EXPECT_EQ(run_command(stats_cmd), 0);
}

}  // namespace
}  // namespace dovado::serve
