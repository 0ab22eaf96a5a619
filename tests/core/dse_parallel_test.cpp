// Multithreaded stress tests for the evaluation concurrency layer:
// evaluator leasing, single-flight cache deduplication, guarded statistics
// and mid-batch deadline enforcement. Designed to run under
// -fsanitize=thread (the `tsan` preset, see DESIGN.md "Concurrency model").
#include "src/core/dse.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

DseConfig fifo_dse(std::size_t workers) {
  DseConfig config;
  config.space.params.push_back({"DEPTH", ParamDomain::range(8, 200)});
  config.objectives = {{"lut", false}, {"fmax_mhz", true}};
  config.ga.population_size = 10;
  config.ga.max_generations = 5;
  config.ga.seed = 11;
  config.workers = workers;
  return config;
}

/// A campaign whose asks repeat genomes: the space has only `depths`, so
/// the initial population holds each once and every generation's
/// offspring pads itself with duplicates of genomes already asked.
DseConfig repeating_dse(std::size_t workers, ParamDomain depths, std::size_t population,
                        std::size_t generations) {
  DseConfig config = fifo_dse(workers);
  config.space.params = {{"DEPTH", std::move(depths)}};
  config.ga.population_size = population;
  config.ga.max_generations = generations;
  return config;
}

TEST(EvaluationCacheSingleFlight, JoinersShareTheLeadersRun) {
  EvaluationCache cache;
  const DesignPoint point{{"DEPTH", 8}};

  const auto leader = cache.claim(point);
  ASSERT_EQ(leader.kind, EvaluationCache::ClaimKind::kLeader);

  EvalResult answer;
  answer.ok = true;
  answer.metrics.values["lut"] = 7.0;
  answer.tool_seconds = 42.0;

  std::atomic<int> joined{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      const auto claim = cache.claim(point);
      // A concurrent claimant either blocked on the in-flight entry
      // (joined) or arrived after publication (hit) — never a second
      // leader, never a duplicate run.
      if (claim.kind == EvaluationCache::ClaimKind::kJoined) {
        EXPECT_TRUE(claim.result.joined);
        EXPECT_DOUBLE_EQ(claim.result.tool_seconds, 0.0);
        ++joined;
      } else {
        EXPECT_EQ(claim.kind, EvaluationCache::ClaimKind::kHit);
        EXPECT_TRUE(claim.result.cache_hit);
        ++hits;
      }
      EXPECT_TRUE(claim.result.ok);
      EXPECT_DOUBLE_EQ(claim.result.metrics.get("lut"), 7.0);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cache.publish(point, answer);
  for (auto& t : threads) t.join();

  EXPECT_EQ(joined + hits, 4);
  EXPECT_EQ(cache.size(), 1u);
  const auto stored = cache.lookup(point);
  ASSERT_TRUE(stored.has_value());
  EXPECT_TRUE(stored->ok);
}

TEST(EvaluationCacheSingleFlight, AbandonElectsANewLeader) {
  EvaluationCache cache;
  const DesignPoint point{{"DEPTH", 16}};

  const auto first = cache.claim(point);
  ASSERT_EQ(first.kind, EvaluationCache::ClaimKind::kLeader);

  std::atomic<int> successor_leaders{0};
  std::atomic<int> resolved{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      const auto claim = cache.claim(point);
      if (claim.kind == EvaluationCache::ClaimKind::kLeader) {
        ++successor_leaders;
        EvalResult answer;
        answer.ok = true;
        cache.publish(point, answer);
      } else {
        EXPECT_TRUE(claim.result.ok);
      }
      ++resolved;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cache.abandon(point);  // the original leader's evaluation blew up
  for (auto& t : threads) t.join();

  // Exactly one of the woken claimants re-claimed leadership and published;
  // every claimant came back with an answer.
  EXPECT_EQ(successor_leaders.load(), 1);
  EXPECT_EQ(resolved.load(), 3);
  EXPECT_TRUE(cache.lookup(point).has_value());
}

TEST(EvaluatorPool, BlockedAcquireIsCountedAndServed) {
  EvaluatorPool pool;
  pool.add(std::make_unique<PointEvaluator>(fifo_project()));
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.lease_waits(), 0u);

  std::atomic<bool> held{false};
  std::thread holder([&] {
    const EvaluatorPool::Lease lease = pool.acquire();
    held = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  while (!held) std::this_thread::yield();

  // The single evaluator is checked out: this acquire must block until the
  // holder's lease dies, and the wait is counted.
  const EvaluatorPool::Lease lease = pool.acquire();
  EXPECT_EQ(pool.lease_waits(), 1u);
  holder.join();
}

TEST(EvaluatorPool, EmptyPoolThrows) {
  EvaluatorPool pool;
  EXPECT_THROW((void)pool.acquire(), std::logic_error);
}

TEST(DseParallel, IdenticalAsksPayExactlyOneToolRun) {
  // A one-point space: the campaign asks the same genome 1 + 2 x 24 times.
  // It performs exactly 1 tool run; every other ask shares it, as a
  // single-flight join or a cache hit.
  DseEngine engine(fifo_project(), repeating_dse(4, ParamDomain::range(50, 50), 24, 2));
  const DseResult result = engine.run();

  const DseStats& stats = result.stats;
  EXPECT_EQ(stats.ga_evaluations, 49u);
  EXPECT_EQ(stats.tool_runs, 1u);
  EXPECT_EQ(stats.single_flight_joins + stats.cache_hits, 48u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GT(stats.simulated_tool_seconds, 0.0);
  ASSERT_EQ(result.explored.size(), 1u);
  ASSERT_EQ(result.pareto.size(), 1u);
  EXPECT_EQ(result.pareto[0].params, result.explored[0].params);
}

TEST(DseParallel, DuplicateHeavyCampaignHasDeterministicStats) {
  // Twelve points for a population of eight: after the initial population,
  // offspring repeat genomes asked earlier in the same generation, whose
  // runs may still be in flight. Leasing plus single-flight make the totals
  // exact, not merely race-free: one tool run per distinct point.
  const auto run_once = [] {
    DseEngine engine(fifo_project(), repeating_dse(4, ParamDomain::range(8, 19), 8, 6));
    return engine.run();
  };
  const DseResult first = run_once();
  const DseStats& stats = first.stats;
  EXPECT_EQ(stats.ga_evaluations, 8u * 7u);
  EXPECT_EQ(stats.tool_runs, first.explored.size());
  EXPECT_EQ(stats.single_flight_joins + stats.cache_hits, stats.ga_evaluations - stats.tool_runs);
  EXPECT_GT(stats.single_flight_joins + stats.cache_hits, 0u);
  EXPECT_EQ(stats.lease_waits, 0u);

  // A second engine reproduces the first one's totals exactly. Cache hits
  // and joins are free, so both engines paid for the same runs.
  const DseResult second = run_once();
  EXPECT_EQ(second.stats.tool_runs, stats.tool_runs);
  EXPECT_EQ(second.stats.single_flight_joins + second.stats.cache_hits,
            stats.single_flight_joins + stats.cache_hits);
  EXPECT_DOUBLE_EQ(second.stats.simulated_tool_seconds, stats.simulated_tool_seconds);
  ASSERT_EQ(second.explored.size(), first.explored.size());
  for (std::size_t i = 0; i < first.explored.size(); ++i) {
    EXPECT_EQ(second.explored[i].params, first.explored[i].params);
  }
}

TEST(DseParallel, SharedCacheConcurrentEvaluatorsRunToolOnce) {
  // Two evaluators, one shared cache, racing on the same point: the
  // in-flight entry makes the second thread join instead of re-running.
  auto cache = std::make_shared<EvaluationCache>();
  PointEvaluator a(fifo_project(), cache);
  PointEvaluator b(fifo_project(), cache);

  EvalResult ra;
  EvalResult rb;
  std::thread ta([&] { ra = a.evaluate({{"DEPTH", 96}}); });
  std::thread tb([&] { rb = b.evaluate({{"DEPTH", 96}}); });
  ta.join();
  tb.join();

  ASSERT_TRUE(ra.ok) << ra.error;
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_EQ(ra.metrics.values, rb.metrics.values);
  // Exactly one session ran the flow; the other joined or hit the cache and
  // paid zero tool seconds.
  EXPECT_EQ(a.backend().flows_run() + b.backend().flows_run(), 1u);
  EXPECT_EQ((ra.tool_seconds > 0.0 ? 1 : 0) + (rb.tool_seconds > 0.0 ? 1 : 0), 1);
}

TEST(DseParallel, DeadlineEnforcedMidRun) {
  DseConfig config = fifo_dse(2);
  config.deadline_tool_seconds = 1.0;  // any first run exceeds this
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();

  const DseStats& stats = result.stats;
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_GT(stats.deadline_skips, 0u);
  // The deadline is checked before every submission, so at most one
  // submission per in-flight slot (two per lane for the generational
  // searcher) got past it.
  EXPECT_LE(stats.tool_runs, 2 * (config.workers + 1));
  EXPECT_GE(stats.tool_runs, 1u);
  EXPECT_EQ(stats.tool_runs + stats.deadline_skips, config.ga.population_size);
  // Points the deadline kept from the tool are neither evaluations nor
  // explored, and the first generation never closed.
  EXPECT_EQ(stats.ga_evaluations, stats.tool_runs);
  EXPECT_EQ(result.explored.size(), stats.tool_runs);
  EXPECT_EQ(stats.generations, 0u);

  // A follow-up set dispatches nothing at all.
  const auto more = engine.evaluate_set({{{"DEPTH", 9}}, {{"DEPTH", 10}}, {{"DEPTH", 11}}});
  for (const auto& p : more) EXPECT_TRUE(p.failed);
  const DseStats after = engine.stats();
  EXPECT_EQ(after.tool_runs, stats.tool_runs);
  EXPECT_EQ(after.deadline_skips, stats.deadline_skips + 3);
}

TEST(DseParallel, ControlThreadIsAnEvaluationLane) {
  // Two workers and the control thread are three lanes, and without a
  // deadline the whole generation is in the air at once. The derived metric
  // holds every pool worker inside its evaluation until the control thread
  // has run one itself: if the control thread only waited for
  // completions, the workers would time out.
  const std::thread::id control = std::this_thread::get_id();
  std::mutex mutex;
  std::condition_variable cv;
  bool control_evaluated = false;
  bool workers_timed_out = false;
  DseConfig config = fifo_dse(2);
  config.ga.max_generations = 1;
  config.derived_metrics.push_back(
      {"lane", [&](const DesignPoint&, const EvalMetrics&) {
         std::unique_lock<std::mutex> lock(mutex);
         if (std::this_thread::get_id() == control) {
           control_evaluated = true;
           cv.notify_all();
         } else if (!cv.wait_for(lock, std::chrono::seconds(5),
                                 [&] { return control_evaluated; })) {
           workers_timed_out = true;
         }
         return 0.0;
       }});
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();
  EXPECT_TRUE(control_evaluated);
  EXPECT_FALSE(workers_timed_out);
  EXPECT_EQ(result.stats.lease_waits, 0u);
  EXPECT_EQ(result.stats.ga_evaluations, 20u);
}

TEST(DseParallel, EvaluationErrorLeavesNoRunnerBehind) {
  // An evaluation that throws is rethrown by run() on the control thread.
  // By then no lane may still run, or start, an evaluation: the caller
  // destroys the engine (and its broker) right after. Every other
  // evaluation sleeps, so most of the generation is still queued when the
  // error is told.
  std::atomic<int> calls{0};
  std::atomic<int> active{0};
  std::atomic<bool> returned{false};
  std::atomic<bool> late_call{false};
  DseConfig config = fifo_dse(3);
  config.ga.population_size = 40;
  config.derived_metrics.push_back(
      {"boom", [&](const DesignPoint&, const EvalMetrics&) {
         if (returned) late_call = true;
         ++active;
         const int call = ++calls;
         std::this_thread::sleep_for(std::chrono::milliseconds(2));
         --active;
         if (call == 3) throw std::runtime_error("derived metric failed");
         return 0.0;
       }});
  {
    DseEngine engine(fifo_project(), config);
    EXPECT_THROW((void)engine.run(), std::runtime_error);
    returned = true;
    EXPECT_EQ(active.load(), 0);
    EXPECT_LT(calls.load(), 40);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(late_call.load());
}

TEST(DseParallel, DeadlineEnforcedMidEvaluateSet) {
  DseConfig config = fifo_dse(2);
  config.deadline_tool_seconds = 1.0;
  DseEngine engine(fifo_project(), config);

  std::vector<DesignPoint> points;
  for (std::int64_t d = 8; d < 8 + 40; ++d) points.push_back({{"DEPTH", d}});
  const auto out = engine.evaluate_set(points);

  ASSERT_EQ(out.size(), points.size());
  const DseStats stats = engine.stats();
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_GT(stats.deadline_skips, 0u);
  std::size_t failed = 0;
  for (const auto& p : out) failed += p.failed ? 1 : 0;
  EXPECT_EQ(failed, stats.deadline_skips);
}

TEST(DseParallel, FullRunDeterministicAcrossWorkerCounts) {
  // Leasing + deterministic single-flight accounting make a parallel run
  // bitwise-reproducible — and identical to the inline run: worker count
  // is a throughput knob, not a semantics knob.
  auto run_with = [](std::size_t workers) {
    DseEngine engine(fifo_project(), fifo_dse(workers));
    return engine.run();
  };
  const DseResult inline_run = run_with(0);
  const DseResult parallel_a = run_with(4);
  const DseResult parallel_b = run_with(4);

  ASSERT_EQ(parallel_a.pareto.size(), inline_run.pareto.size());
  for (std::size_t i = 0; i < parallel_a.pareto.size(); ++i) {
    EXPECT_EQ(parallel_a.pareto[i].params, inline_run.pareto[i].params);
    EXPECT_EQ(parallel_b.pareto[i].params, inline_run.pareto[i].params);
  }
  EXPECT_EQ(parallel_a.stats.tool_runs, inline_run.stats.tool_runs);
  EXPECT_EQ(parallel_a.stats.cache_hits, inline_run.stats.cache_hits);
  EXPECT_EQ(parallel_a.stats.single_flight_joins, inline_run.stats.single_flight_joins);
  EXPECT_EQ(parallel_a.stats.ga_evaluations, inline_run.stats.ga_evaluations);
  EXPECT_DOUBLE_EQ(parallel_a.stats.simulated_tool_seconds,
                   inline_run.stats.simulated_tool_seconds);
  EXPECT_DOUBLE_EQ(parallel_a.stats.simulated_tool_seconds,
                   parallel_b.stats.simulated_tool_seconds);
}

TEST(DseParallel, StatsSnapshotSafeDuringRun) {
  // stats() may be polled by a monitoring thread while evaluations are in
  // flight; under TSan this verifies the accumulator is actually guarded.
  DseEngine engine(fifo_project(), fifo_dse(3));
  std::atomic<bool> done{false};
  std::thread monitor([&] {
    while (!done) {
      const DseStats snapshot = engine.stats();
      EXPECT_GE(snapshot.simulated_tool_seconds, 0.0);
      EXPECT_LE(snapshot.tool_runs, 10000u);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const DseResult result = engine.run();
  done = true;
  monitor.join();
  EXPECT_FALSE(result.pareto.empty());
  EXPECT_DOUBLE_EQ(result.stats.simulated_tool_seconds, engine.fleet().broker().tool_seconds());
}

TEST(DseParallel, OneCampaignPerEngine) {
  // A second campaign would explore over the first one's records, dataset
  // and counters: run() and start_campaign() refuse it before evaluating
  // anything. evaluate_set() stays open.
  DseEngine engine(fifo_project(), fifo_dse(2));
  const DseResult result = engine.run();
  EXPECT_THROW((void)engine.run(), std::logic_error);
  EXPECT_THROW(engine.start_campaign(), std::logic_error);
  const DseStats after = engine.stats();
  EXPECT_EQ(after.ga_evaluations, result.stats.ga_evaluations);
  EXPECT_EQ(after.tool_runs, result.stats.tool_runs);
  EXPECT_EQ(after.steady_completions, result.stats.steady_completions);
  const auto more = engine.evaluate_set({{{"DEPTH", 9}}});
  ASSERT_EQ(more.size(), 1u);
  EXPECT_FALSE(more[0].failed);

  // The same for a campaign an outside driver started.
  DseEngine driven(fifo_project(), fifo_dse(0));
  driven.start_campaign();
  EXPECT_THROW(driven.start_campaign(), std::logic_error);
  EXPECT_THROW((void)driven.run(), std::logic_error);
}

edatool::FaultPlan plan_of(const std::string& spec) {
  std::string error;
  const auto plan = edatool::FaultPlan::parse(spec, error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(edatool::FaultPlan{});
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t count_lines(const std::string& text) {
  std::size_t n = 0;
  for (char c : text) n += (c == '\n') ? 1 : 0;
  return n;
}

void expect_same_front(const DseResult& a, const DseResult& b) {
  ASSERT_EQ(a.pareto.size(), b.pareto.size());
  for (std::size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i].params, b.pareto[i].params);
    EXPECT_EQ(a.pareto[i].metrics.values, b.pareto[i].metrics.values);
  }
}

TEST(EvaluationSupervisor, ClassifiesErrorText) {
  EXPECT_EQ(EvaluationSupervisor::classify_error(
                "ERROR: [Common 17-179] Vivado process terminated abnormally "
                "(simulated transient crash)"),
            FailureClass::kTransient);
  EXPECT_EQ(EvaluationSupervisor::classify_error(
                "WARNING: [Report 1-13] report stream interrupted (simulated fault)"),
            FailureClass::kTransient);
  EXPECT_EQ(EvaluationSupervisor::classify_error(
                "tool produced no parsable reports (utilization table truncated "
                "(no closing border))"),
            FailureClass::kTransient);
  // Tool-semantic failures repeat on retry: re-running pays the same answer.
  EXPECT_EQ(EvaluationSupervisor::classify_error("placement failed: over-utilization"),
            FailureClass::kDeterministic);
  EXPECT_EQ(EvaluationSupervisor::classify_error("box generation failed"),
            FailureClass::kDeterministic);
}

TEST(DseRobustness, TransientFaultStressMatchesFaultFreeFront) {
  // Acceptance criterion: a seeded 20% crash + 5% hang plan must not change
  // *what* the campaign finds, only what it costs. Every transient fault
  // eventually clears under retry, so the faulty run's non-dominated set is
  // identical to the fault-free run's.
  DseEngine clean(fifo_project(), fifo_dse(3));
  const DseResult clean_result = clean.run();

  DseConfig config = fifo_dse(3);
  config.fault_plan = plan_of("seed=11,crash=0.2,hang=0.05,hang_factor=5");
  config.supervise.max_retries = 8;
  DseEngine faulty(fifo_project(), config);
  const DseResult faulty_result = faulty.run();

  expect_same_front(clean_result, faulty_result);
  EXPECT_GT(faulty_result.stats.faults_injected, 0u);
  EXPECT_GT(faulty_result.stats.retries, 0u);
  EXPECT_GT(faulty_result.stats.transient_failures, 0u);
  EXPECT_GT(faulty_result.stats.backoff_tool_seconds, 0.0);
  EXPECT_EQ(faulty_result.stats.quarantined, 0u);
  // Crashed attempts and backoff are charged, so the faulty campaign is
  // strictly more expensive in simulated tool time.
  EXPECT_GT(faulty_result.stats.simulated_tool_seconds,
            clean_result.stats.simulated_tool_seconds);
}

TEST(DseRobustness, HungAttemptsAreKilledAndRetried) {
  // Calibrate the per-attempt budget from the most expensive clean run so
  // only injected hangs (inflated 200x) can exceed it.
  DseEngine probe(fifo_project(), fifo_dse(0));
  (void)probe.evaluate_set({{{"DEPTH", 200}}});  // the largest design
  const double worst_clean_seconds = probe.stats().simulated_tool_seconds;
  ASSERT_GT(worst_clean_seconds, 0.0);

  DseConfig config = fifo_dse(2);
  config.fault_plan = plan_of("seed=4,hang=0.25,hang_factor=200");
  config.supervise.max_retries = 8;
  config.supervise.attempt_timeout_tool_seconds = 10.0 * worst_clean_seconds;
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();

  EXPECT_GT(result.stats.timeouts, 0u);
  EXPECT_GT(result.stats.retries, 0u);
  EXPECT_EQ(result.stats.quarantined, 0u);
  // A killed attempt's charge is capped at the budget, so no single attempt
  // can dominate the campaign the way an unsupervised hang would.
  EXPECT_FALSE(result.pareto.empty());
}

TEST(DseRobustness, PersistentAbortsAreQuarantinedAndNeverRerun) {
  DseConfig config = fifo_dse(2);
  config.fault_plan = plan_of("seed=5,abort=0.3");
  config.supervise.max_retries = 2;
  // This test is about the quarantine path: the high abort rate would trip
  // the circuit breaker and fast-fail points before they can quarantine.
  config.breaker.enabled = false;
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();

  EXPECT_GT(result.stats.quarantined, 0u);
  EXPECT_EQ(result.stats.quarantined, engine.fleet().broker().supervisor().quarantine_size());
  EXPECT_GT(result.stats.failures, 0u);
  // Every quarantined point burned 1 + max_retries attempts.
  EXPECT_GE(result.stats.transient_failures,
            result.stats.quarantined * (1 + config.supervise.max_retries));
  EXPECT_FALSE(result.pareto.empty());

  // Find a quarantined explored point and re-request it: the cached failure
  // answers without another tool attempt.
  const ExploredPoint* quarantined = nullptr;
  for (const auto& p : result.explored) {
    if (p.failed && engine.fleet().broker().supervisor().is_quarantined(p.params)) {
      quarantined = &p;
      break;
    }
  }
  ASSERT_NE(quarantined, nullptr);
  const DseStats before = engine.stats();
  const auto again = engine.evaluate_set({quarantined->params});
  ASSERT_EQ(again.size(), 1u);
  EXPECT_TRUE(again[0].failed);
  const DseStats after = engine.stats();
  EXPECT_EQ(after.backend_runs, before.backend_runs);
  EXPECT_EQ(after.transient_failures, before.transient_failures);
  EXPECT_DOUBLE_EQ(after.simulated_tool_seconds, before.simulated_tool_seconds);
}

TEST(DseRobustness, QuarantinedPointsFallBackToApproximateScores) {
  DseConfig config = fifo_dse(0);
  config.fault_plan = plan_of("seed=6,abort=0.3");
  config.supervise.max_retries = 1;
  // Exercise the quarantine->NWM fallback, not the circuit breaker (the
  // abort rate is high enough to trip it).
  config.breaker.enabled = false;
  config.use_approximation = true;
  config.pretrain_samples = 15;
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();

  EXPECT_GT(result.stats.approx_fallbacks, 0u);
  bool saw_approximate = false;
  for (const auto& p : result.explored) {
    if (!p.approximate) continue;
    saw_approximate = true;
    // An approximate point carries a usable NWM score, not a penalty.
    EXPECT_FALSE(p.failed);
    EXPECT_FALSE(p.metrics.values.empty());
  }
  EXPECT_TRUE(saw_approximate);
}

TEST(DseAvailability, FiniteOutageTripsHedgesAndRecovers) {
  // The simulated tool goes down for attempts [5, 15): the breaker trips,
  // points are hedged on the analytic tier, the probe queue re-tries
  // representative points, and once the outage ends the breaker closes and
  // every hedged front member is re-verified — the final front is exact.
  DseConfig config = fifo_dse(0);
  config.fault_plan = plan_of("seed=3,outage_start=5,outage_len=10");
  config.supervise.max_retries = 2;
  config.breaker.window = 4;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_fast_fails = 1;
  config.breaker.probe_budget = 2;
  config.breaker.probe_quorum = 1;
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();

  EXPECT_GE(result.stats.breaker_trips, 1u);
  EXPECT_GE(result.stats.breaker_recoveries, 1u);
  EXPECT_GT(result.stats.breaker_fast_fails, 0u);
  EXPECT_GT(result.stats.probe_runs, 0u);
  EXPECT_GT(result.stats.degraded_evals, 0u);
  ASSERT_NE(engine.fleet().health(), nullptr);
  EXPECT_EQ(engine.fleet().health()->state("vivado-sim"), BreakerState::kClosed);
  // Recovery happened, so no approximate estimate survives on the front.
  ASSERT_FALSE(result.pareto.empty());
  for (const auto& p : result.pareto) {
    EXPECT_FALSE(p.approximate) << "unverified hedged point on the front";
    EXPECT_FALSE(p.estimated);
  }
}

TEST(DseAvailability, PersistentOutageCompletesDegradedWithinDeadline) {
  // Clean baseline: what the campaign costs when the tool works.
  DseEngine clean(fifo_project(), fifo_dse(0));
  const DseResult clean_result = clean.run();
  ASSERT_GT(clean_result.stats.simulated_tool_seconds, 0.0);

  // The tool is down from the first attempt and never comes back. Without
  // the breaker every point would burn its full retry budget; with it the
  // campaign fast-fails in O(1), degrades to analytic estimates and still
  // finishes every generation inside half the clean budget.
  DseConfig config = fifo_dse(0);
  config.fault_plan = plan_of("seed=9,outage_start=1");  // len 0 = forever
  config.supervise.max_retries = 1;
  config.breaker.window = 4;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_fast_fails = 2;
  config.breaker.probe_budget = 1;
  config.breaker.probe_quorum = 1;
  config.deadline_tool_seconds = 0.5 * clean_result.stats.simulated_tool_seconds;
  DseEngine engine(fifo_project(), config);
  const DseResult result = engine.run();

  EXPECT_EQ(result.stats.generations, clean_result.stats.generations);
  EXPECT_FALSE(result.stats.deadline_hit);
  EXPECT_LT(result.stats.simulated_tool_seconds, config.deadline_tool_seconds);
  EXPECT_GE(result.stats.breaker_trips, 1u);
  EXPECT_EQ(result.stats.breaker_recoveries, 0u);
  EXPECT_GT(result.stats.breaker_fast_fails, 0u);
  EXPECT_GT(result.stats.degraded_evals, 0u);
  // The front survives on flagged analytic estimates: degraded, not dead.
  ASSERT_FALSE(result.pareto.empty());
  for (const auto& p : result.pareto) {
    EXPECT_TRUE(p.approximate);
    EXPECT_TRUE(p.estimated);
    EXPECT_FALSE(p.failed);
    EXPECT_FALSE(p.metrics.values.empty());
  }
}

TEST(DseAvailability, ResumeRestoresTheOpenBreakerWithoutRepayingTheWindow) {
  const std::string path = testing::TempDir() + "/dovado_journal_breaker.jsonl";
  std::remove(path.c_str());

  DseConfig config = fifo_dse(0);
  config.journal_path = path;
  config.fault_plan = plan_of("seed=9,outage_start=1");  // permanent outage
  config.supervise.max_retries = 1;
  config.breaker.window = 4;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_fast_fails = 2;
  config.breaker.probe_budget = 0;  // no probes: the outage is never re-tested
  DseEngine first(fifo_project(), config);
  const DseResult original = first.run();
  ASSERT_GE(original.stats.breaker_trips, 1u);
  // The first run paid the failure window to discover the outage.
  ASSERT_GT(original.stats.transient_failures, 0u);

  config.resume_from_journal = true;
  DseEngine resumed(fifo_project(), config);
  const DseResult replayed = resumed.run();

  // The journaled trip reopened the breaker before the first evaluation:
  // the resumed run makes zero tool attempts and re-pays nothing.
  EXPECT_GE(replayed.stats.breaker_trips, 1u);
  EXPECT_EQ(replayed.stats.transient_failures, 0u);
  EXPECT_EQ(replayed.stats.tool_runs, 0u);
  EXPECT_GT(replayed.stats.breaker_fast_fails, 0u);
  EXPECT_GT(replayed.stats.degraded_evals, 0u);
  ASSERT_NE(resumed.fleet().health(), nullptr);
  std::remove(path.c_str());
}

TEST(DseJournal, ResumeReplaysEveryPaidRunAndPaysNothing) {
  const std::string path = testing::TempDir() + "/dovado_journal_replay.jsonl";
  std::remove(path.c_str());

  DseConfig config = fifo_dse(2);
  config.journal_path = path;
  DseEngine first(fifo_project(), config);
  const DseResult original = first.run();
  ASSERT_GT(original.stats.tool_runs, 0u);
  // One fsync'd eval record per paid-for run, each preceded by the inflight
  // marker of its submission, plus the version header.
  const std::string journal = read_file(path);
  EXPECT_EQ(count_lines(journal), 2 * original.stats.tool_runs + 1);
  std::size_t markers = 0;
  for (std::size_t at = journal.find("\"inflight\""); at != std::string::npos;
       at = journal.find("\"inflight\"", at + 1)) {
    ++markers;
  }
  EXPECT_EQ(markers, original.stats.tool_runs);

  config.resume_from_journal = true;
  DseEngine resumed(fifo_project(), config);
  const DseResult replayed = resumed.run();

  // Same seed => same GA trajectory => every journaled point is a cache
  // hit: the resumed campaign re-evaluates nothing it already paid for.
  EXPECT_EQ(replayed.stats.journal_replays, original.stats.tool_runs);
  EXPECT_EQ(replayed.stats.tool_runs, 0u);
  EXPECT_EQ(replayed.explored.size(), original.explored.size());
  expect_same_front(original, replayed);
  std::remove(path.c_str());
}

TEST(DseJournal, TornTailIsRecoveredAndRepaired) {
  const std::string path = testing::TempDir() + "/dovado_journal_torn.jsonl";
  std::remove(path.c_str());

  DseConfig config = fifo_dse(2);
  config.journal_path = path;
  DseEngine first(fifo_project(), config);
  const DseResult original = first.run();
  const std::size_t records = original.stats.tool_runs;
  ASSERT_GT(records, 1u);

  // Tear the final record mid-write, as a crash during append would.
  std::string content = read_file(path);
  ASSERT_GT(content.size(), 10u);
  content.resize(content.size() - 10);
  {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }

  config.resume_from_journal = true;
  DseEngine resumed(fifo_project(), config);
  const DseResult recovered = resumed.run();

  // The intact prefix replays; only the one torn record is re-evaluated,
  // and the campaign still converges on the original explored set.
  EXPECT_EQ(recovered.stats.journal_replays, records - 1);
  EXPECT_EQ(recovered.stats.tool_runs, 1u);
  EXPECT_EQ(recovered.explored.size(), original.explored.size());
  expect_same_front(original, recovered);

  // The re-run was appended past the truncated tail, so the journal is
  // whole again: a third resume replays everything.
  DseEngine again(fifo_project(), config);
  const DseResult third = again.run();
  EXPECT_EQ(third.stats.journal_replays, records);
  EXPECT_EQ(third.stats.tool_runs, 0u);
  std::remove(path.c_str());
}

TEST(DseJournal, CorruptRecordMidFileIsAHardError) {
  const std::string path = testing::TempDir() + "/dovado_journal_corrupt.jsonl";
  std::remove(path.c_str());

  DseConfig config = fifo_dse(0);
  config.journal_path = path;
  DseEngine first(fifo_project(), config);
  (void)first.run();

  // Damage the *first* record while intact records follow: that is file
  // corruption, not a crash artifact, and must not be silently dropped.
  std::string content = read_file(path);
  const auto eol = content.find('\n');
  ASSERT_NE(eol, std::string::npos);
  ASSERT_LT(eol + 1, content.size());  // at least one intact record after
  content.replace(0, eol, "xx{ not a journal record");
  {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }

  config.resume_from_journal = true;
  EXPECT_THROW(DseEngine(fifo_project(), config), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SessionJournalRecord, JsonRoundTrip) {
  JournalRecord record;
  record.params = {{"DEPTH", 64}, {"WIDTH", 8}};
  record.metrics.values = {{"lut", 321.0}, {"fmax_mhz", 512.25}};
  record.ok = false;
  record.error = "ERROR: [Common 17-179] Vivado process terminated abnormally";
  record.failure = FailureClass::kTransient;
  record.attempts = 3;
  record.quarantined = true;
  record.tool_seconds = 12.5;

  const auto parsed = journal_record_from_json(journal_record_to_json(record));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->params, record.params);
  EXPECT_EQ(parsed->metrics.values, record.metrics.values);
  EXPECT_EQ(parsed->ok, record.ok);
  EXPECT_EQ(parsed->error, record.error);
  EXPECT_EQ(parsed->failure, record.failure);
  EXPECT_EQ(parsed->attempts, record.attempts);
  EXPECT_EQ(parsed->quarantined, record.quarantined);
  EXPECT_DOUBLE_EQ(parsed->tool_seconds, record.tool_seconds);

  EXPECT_FALSE(journal_record_from_json("xx{ not a record").has_value());
  EXPECT_FALSE(journal_record_from_json("").has_value());
}

// The integer rule (util/json.hpp) on every integer field of the journal:
// a value that is not an integer of magnitude below 2^53, or does not fit
// the field's type, makes the line malformed.
TEST(SessionJournalRecord, RejectsNonIntegralOrOutOfRangeIntegers) {
  const auto eval = [](const std::string& depth, const std::string& attempts) {
    return R"({"attempts":)" + attempts + R"(,"kind":"eval","ok":true,"params":{"DEPTH":)" +
           depth + "}}";
  };
  const auto health = [](const std::string& failures, const std::string& size) {
    return R"({"backend":"b","event":"trip","kind":"health","window_failures":)" + failures +
           R"(,"window_size":)" + size + "}";
  };
  ASSERT_TRUE(journal_record_from_json(eval("16", "1")).has_value());
  ASSERT_TRUE(inflight_record_from_json(R"({"kind":"inflight","params":{"DEPTH":16}})"));
  ASSERT_TRUE(health_event_from_json(health("5", "8")).has_value());
  for (const std::string bad : {"16.7", "1e30", "-1e30", "9007199254740993"}) {
    EXPECT_FALSE(journal_record_from_json(eval(bad, "1")).has_value()) << bad;
    EXPECT_FALSE(journal_record_from_json(eval("16", bad)).has_value()) << bad;
    EXPECT_FALSE(
        inflight_record_from_json(R"({"kind":"inflight","params":{"DEPTH":)" + bad + "}}"))
        << bad;
    EXPECT_FALSE(health_event_from_json(health(bad, "8")).has_value()) << bad;
    EXPECT_FALSE(health_event_from_json(health("5", bad)).has_value()) << bad;
  }
  // In the rule's range but not the field's type: int attempts, size_t
  // window counts.
  EXPECT_FALSE(journal_record_from_json(eval("16", "2147483648")).has_value());
  EXPECT_FALSE(health_event_from_json(health("-1", "8")).has_value());

  // A header whose version breaks the rule is a damaged line: with an
  // intact record after it, the journal does not open.
  const std::string path = ::testing::TempDir() + "/journal_bad_version.jsonl";
  for (const std::string bad : {"16.7", "1e30", "-1e30", "9007199254740993", "2.5"}) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << R"({"kind":"header","version":)" << bad << "}\n" << eval("16", "1") << "\n";
    }
    SessionJournal::Replay replay;
    std::string error;
    EXPECT_EQ(SessionJournal::open(path, &replay, error), nullptr) << bad;
    EXPECT_NE(error.find("corrupt"), std::string::npos) << bad << ": " << error;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dovado::core
