// Request-path cost of the multi-tenant service layer (see DESIGN.md
// "Service & multi-tenancy"): admission (two token buckets), DRR
// scheduling, and the dispatch/finalize bookkeeping wrapped around every
// evaluation. The acceptance bar is < 1% overhead on a fresh evaluation:
// the service machinery must be noise next to even a simulated tool run.
//
// Methodology: a fresh evaluation costs ~160µs with several µs of
// run-to-run drift, so comparing two end-to-end fresh timings cannot
// resolve a 1% (~1.6µs) budget against machine noise. Instead the
// per-request service cost is measured where it is the *whole* signal —
// cache-hit round trips, where the simulator drops out and both paths do
// only their own bookkeeping — as the paired per-round delta between
// Server::execute() and the bare broker. That cost, normalized by the
// fresh-evaluation floor (min over rounds of bare fresh evals), is the
// service overhead a real evaluation pays. The committed artifact
// bench/serve_overhead.json is this program's output.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/broker.hpp"
#include "src/serve/server.hpp"

namespace {

using namespace dovado;
using Clock = std::chrono::steady_clock;

core::ProjectConfig fifo_project() {
  core::ProjectConfig config;
  config.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                            hdl::HdlLanguage::kSystemVerilog, "work", false});
  config.top_module = "cv32e40p_fifo";
  config.part = "xc7k70tfbv676-1";
  config.target_period_ns = 1.0;
  return config;
}

serve::ServeConfig serve_config() {
  serve::ServeConfig config;
  config.project = fifo_project();
  config.breaker.enabled = false;  // measured separately (breaker bench)
  // A realistic policy for the one tenant the bench sends as, so admission
  // does real bucket math, generous enough that nothing sheds.
  serve::ServeTenantConfig tenant;
  tenant.name = "bench";
  tenant.policy.request_rate = 1e9;
  tenant.policy.request_burst = 1e9;
  tenant.policy.tool_seconds_rate = 1e9;
  tenant.policy.tool_seconds_burst = 1e12;
  config.tenants.push_back(tenant);
  return config;
}

double ns_per(int count, Clock::time_point start) {
  const auto elapsed = Clock::now() - start;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count() /
         static_cast<double>(count);
}

/// Wall-clock ns per *fresh* evaluation straight on the broker: the floor
/// the service adds to, and the denominator of the overhead ratio.
double fresh_eval_ns(int evals) {
  core::EvaluationBroker broker(fifo_project(), core::BrokerConfig{});
  const auto start = Clock::now();
  for (int i = 0; i < evals; ++i) {
    const auto r = broker.tool_evaluate({{"DEPTH", 8 + i}});
    if (!r.ok) return -1.0;
  }
  return ns_per(evals, start);
}

/// Wall-clock ns per cache-hit evaluation straight on the broker.
double bare_hit_ns(core::EvaluationBroker& broker, int hits) {
  const auto start = Clock::now();
  for (int i = 0; i < hits; ++i) {
    const auto r = broker.tool_evaluate({{"DEPTH", 16}});
    if (!r.ok) return -1.0;
  }
  return ns_per(hits, start);
}

/// Wall-clock ns per cache-hit request through the full in-process request
/// path: admission with both buckets live, fair-share scheduling, dispatch,
/// finalize, response delivery.
double served_hit_ns(serve::Server& server, int hits) {
  serve::Request request;
  request.op = serve::RequestOp::kEval;
  request.tenant = "bench";
  request.id = "b";
  request.point = {{"DEPTH", 16}};
  const auto start = Clock::now();
  for (int i = 0; i < hits; ++i) {
    const serve::Response r = server.execute(request);
    if (r.status != serve::ResponseStatus::kOk) return -1.0;
  }
  return ns_per(hits, start);
}

}  // namespace

int main() {
  constexpr int kRounds = 12;
  constexpr int kFreshEvals = 300;
  constexpr int kHits = 20000;

  // The numerator: per-request service cost, from paired cache-hit rounds.
  // Both sides run back-to-back inside each round so drift cancels in the
  // per-round delta; the minimum delta over rounds is the cleanest round.
  core::EvaluationBroker bare_broker(fifo_project(), core::BrokerConfig{});
  serve::Server server(serve_config());
  (void)bare_broker.tool_evaluate({{"DEPTH", 16}});  // warm both caches
  (void)bare_hit_ns(bare_broker, kHits);
  (void)served_hit_ns(server, kHits);
  double bare_hit = 1e300;
  double served_hit = 1e300;
  double request_path = 1e300;
  for (int round = 0; round < kRounds; ++round) {
    double b, s;
    if (round % 2 == 0) {
      b = bare_hit_ns(bare_broker, kHits);
      s = served_hit_ns(server, kHits);
    } else {
      s = served_hit_ns(server, kHits);
      b = bare_hit_ns(bare_broker, kHits);
    }
    if (b <= 0.0 || s <= 0.0) {
      std::fprintf(stderr, "cache-hit evaluation failed\n");
      return 1;
    }
    bare_hit = std::min(bare_hit, b);
    served_hit = std::min(served_hit, s);
    request_path = std::min(request_path, s - b);
  }

  // The denominator: what a fresh evaluation costs without the service.
  (void)fresh_eval_ns(kFreshEvals);  // warm-up
  double fresh = 1e300;
  for (int round = 0; round < kRounds; ++round) {
    const double f = fresh_eval_ns(kFreshEvals);
    if (f <= 0.0) {
      std::fprintf(stderr, "fresh evaluation failed\n");
      return 1;
    }
    fresh = std::min(fresh, f);
  }

  const double overhead_pct = 100.0 * request_path / fresh;
  std::printf("{\n");
  std::printf("  \"benchmark\": \"micro_serve_overhead\",\n");
  std::printf("  \"rounds\": %d,\n", kRounds);
  std::printf("  \"cache_hits_per_round\": %d,\n", kHits);
  std::printf("  \"fresh_evals_per_round\": %d,\n", kFreshEvals);
  std::printf("  \"bare_hit_ns\": %.0f,\n", bare_hit);
  std::printf("  \"served_hit_ns\": %.0f,\n", served_hit);
  std::printf("  \"request_path_ns\": %.0f,\n", request_path);
  std::printf("  \"fresh_eval_ns\": %.0f,\n", fresh);
  std::printf("  \"serve_overhead_percent\": %.2f,\n", overhead_pct);
  std::printf("  \"budget_percent\": 1.0,\n");
  std::printf("  \"within_budget\": %s\n", overhead_pct < 1.0 ? "true" : "false");
  std::printf("}\n");
  // Non-zero exit on a missed bar so scripts/check.sh fails loudly.
  return overhead_pct < 1.0 ? 0 : 1;
}
