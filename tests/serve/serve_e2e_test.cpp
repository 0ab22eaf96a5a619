// End-to-end daemon tests over a real Unix-domain socket: concurrent
// tenants on one shared broker, admission shedding on the wire, graceful
// drain losing zero acked evaluations, and concurrent store access while
// the daemon holds the writer lock (reader processes + `db compact`).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
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
