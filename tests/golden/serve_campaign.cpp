// Serve-campaign golden: what `dovado serve` answers to campaign requests.
//
// Drives serve::Server on the cv32e40p FIFO with inline evaluation
// (workers = 0) and a virtual admission clock, in three servers:
//   fault-free  one small campaign per registry searcher (nsga2, random,
//               local, surrogate, exhaustive, portfolio) through
//               Server::execute, three asks in flight, then the `stats` op;
//   outage      one campaign under a finite tool outage with the breaker
//               on (trip, fast-fails, recovery), then the `stats` op;
//   drained     one campaign sent to a started daemon over its socket and
//               drained after its fifth evaluation, then the stats JSON
//               once the drain finished.
//
// Each response is written as its wire frame (serialize_response), except
// that the front entries are sorted by design point: the front is a set and
// its order on the wire is the server's presentation choice.
//
// Usage: serve_campaign [--json FILE]
//   --json FILE  write one line per scenario to FILE (stdout without it).
//                The drained scenario's socket lives in the temp directory
//                under a per-process name and is removed afterwards.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/serve/client.hpp"
#include "src/serve/server.hpp"
#include "src/util/logging.hpp"

using namespace dovado;

namespace {

core::ProjectConfig fifo_project() {
  core::ProjectConfig project;
  project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                             hdl::HdlLanguage::kSystemVerilog, "work", false});
  project.top_module = "cv32e40p_fifo";
  project.part = "xc7k70t";
  project.target_period_ns = 1.0;
  return project;
}

serve::ServeConfig base_config(const std::shared_ptr<double>& clock_now) {
  serve::ServeConfig config;
  config.project = fifo_project();
  config.broker.workers = 0;
  config.max_inflight = 3;
  config.clock = [clock_now] { return *clock_now; };
  return config;
}

serve::Request campaign_request(const std::string& tenant, const std::string& id,
                                const std::string& optimizer) {
  serve::Request request;
  request.op = serve::RequestOp::kCampaign;
  request.tenant = tenant;
  request.id = id;
  request.campaign.space.params.push_back({"DEPTH", core::ParamDomain::range(8, 200, 8)});
  request.campaign.space.params.push_back(
      {"DATA_WIDTH", core::ParamDomain::values({8, 16, 32, 64})});
  request.campaign.objectives = {{"lut", false}, {"fmax_mhz", true}};
  request.campaign.budget = 16;
  request.campaign.optimizer = optimizer;
  request.campaign.population = 8;
  request.campaign.seed = 11;
  return request;
}

std::string response_line(serve::Response response) {
  std::sort(response.front.begin(), response.front.end(),
            [](const serve::FrontEntry& a, const serve::FrontEntry& b) {
              return a.point < b.point;
            });
  return serve::serialize_response(response);
}

void emit(std::string& out, const std::string& scenario, const std::string& key,
          const std::string& payload) {
  out += "{\"scenario\":\"" + scenario + "\",\"" + key + "\":" + payload + "}\n";
}

void fault_free(std::string& out) {
  auto clock_now = std::make_shared<double>(0.0);
  serve::Server server(base_config(clock_now));
  const std::vector<std::string> searchers = {"nsga2",      "random",     "local",
                                              "surrogate", "exhaustive", "portfolio"};
  for (std::size_t i = 0; i < searchers.size(); ++i) {
    const std::string tenant = i % 2 == 0 ? "alice" : "bob";
    const serve::Response response =
        server.execute(campaign_request(tenant, "c-" + searchers[i], searchers[i]));
    emit(out, searchers[i], "response", response_line(response));
    *clock_now += 10.0;
  }
  serve::Request stats;
  stats.op = serve::RequestOp::kStats;
  stats.id = "s1";
  emit(out, "fault-free-stats", "stats", server.execute(stats).stats_json);
}

void outage(std::string& out) {
  auto clock_now = std::make_shared<double>(0.0);
  serve::ServeConfig config = base_config(clock_now);
  std::string error;
  const auto plan = edatool::FaultPlan::parse("seed=3,outage_start=5,outage_len=12", error);
  if (!plan) {
    std::fprintf(stderr, "serve_campaign: bad fault plan: %s\n", error.c_str());
    std::exit(2);
  }
  config.broker.fault_plan = *plan;
  config.breaker.window = 4;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_fast_fails = 1;
  config.breaker.probe_budget = 2;
  config.breaker.probe_quorum = 1;
  serve::Server server(config);
  emit(out, "outage", "response",
       response_line(server.execute(campaign_request("alice", "c-outage", "nsga2"))));
  serve::Request stats;
  stats.op = serve::RequestOp::kStats;
  stats.id = "s2";
  emit(out, "outage-stats", "stats", server.execute(stats).stats_json);
}

void drained(std::string& out) {
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("dovado_serve_golden_" + std::to_string(getpid()) + ".sock"))
          .string();
  std::filesystem::remove(socket_path);

  auto clock_now = std::make_shared<double>(0.0);
  serve::ServeConfig config = base_config(clock_now);
  config.socket_path = socket_path;
  // The drain trigger: a derived metric counts successful evaluations and
  // asks for the drain on the fifth. It runs on the dispatch thread, inside
  // the evaluation, so the point in the campaign is the same on every run.
  auto server_slot = std::make_shared<std::atomic<serve::Server*>>(nullptr);
  auto evaluations = std::make_shared<int>(0);
  config.broker.derived_metrics.push_back(
      {"drain_tick", [server_slot, evaluations](const core::DesignPoint&,
                                                const core::EvalMetrics&) {
         if (++*evaluations == 5) server_slot->load()->drain();
         return static_cast<double>(*evaluations);
       }});
  serve::Server server(config);
  server_slot->store(&server);
  std::string error;
  if (!server.start(error)) {
    std::fprintf(stderr, "serve_campaign: cannot start the daemon: %s\n", error.c_str());
    std::exit(2);
  }
  serve::Client client;
  serve::Response response;
  if (!client.connect(socket_path, error) ||
      !client.request(campaign_request("alice", "c-drained", "nsga2"), response, error,
                      60000)) {
    std::fprintf(stderr, "serve_campaign: drained campaign: %s\n", error.c_str());
    std::exit(2);
  }
  client.close();
  server.wait();
  std::filesystem::remove(socket_path);
  emit(out, "drained", "response", response_line(response));
  emit(out, "drained-stats", "stats", server.stats_json());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: serve_campaign [--json FILE]\n");
      return 2;
    }
  }
  util::Log::set_level(util::LogLevel::kError);

  std::string out;
  fault_free(out);
  outage(out);
  drained(out);

  if (json_path.empty()) {
    std::cout << out;
    return 0;
  }
  std::ofstream file(json_path);
  file << out;
  return file ? 0 : 1;
}
