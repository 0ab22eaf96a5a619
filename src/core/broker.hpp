// The evaluation broker: everything between "here is a design point" and
// "here is its (possibly supervised, journaled, cached) tool answer".
//
// Decomposed out of DseEngine so the search logic (GA <-> control model)
// and the evaluation machinery evolve independently. One broker owns one
// backend fidelity: the cache, the exclusively-leased evaluator pool, the
// retry/quarantine supervisor, the optional fault injector, the crash
// journal and the tool-seconds deadline accounting all live here.
// core::EvaluationFleet (core/fleet.hpp) builds a process's brokers: the
// hi-fi one and the analytic tier that screening and hedging share.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/evaluator.hpp"
#include "src/core/health/manager.hpp"
#include "src/core/journal.hpp"
#include "src/core/param_domain.hpp"
#include "src/core/supervisor.hpp"
#include "src/edatool/backend.hpp"
#include "src/edatool/faults.hpp"
#include "src/store/store.hpp"
#include "src/util/thread_pool.hpp"

namespace dovado::core {

struct BrokerConfig {
  /// Worker threads for parallel tool runs (0 = evaluate inline).
  std::size_t workers = 0;

  /// Lanes of the *virtual* evaluator-fleet clock used for utilization
  /// accounting and steady-state completion ordering (see lane notes on
  /// EvaluationBroker). 0 = one lane per real parallel lane (workers + 1,
  /// or 1 inline). Setting this above the real lane count models a larger
  /// fleet deterministically — the utilization bench runs inline
  /// (workers=0) against 8 virtual lanes.
  std::size_t virtual_lanes = 0;

  /// Retry/quarantine policy applied to every tool evaluation.
  SupervisorConfig supervise;

  /// Fault injection for the simulated tool. Inactive by default.
  edatool::FaultPlan fault_plan;

  /// Applied by the evaluator that runs a point, to its successful answer,
  /// before the answer is cached (see PointEvaluator::set_derived_metrics).
  std::vector<DerivedMetric> derived_metrics;

  /// Soft deadline on this broker's cumulative *simulated* tool seconds.
  double deadline_tool_seconds = std::numeric_limits<double>::infinity();

  /// Crash-safety journal (see core/journal.hpp). Empty = no journal.
  std::string journal_path;

  /// Replay an existing journal at `journal_path` into the evaluation
  /// cache (see replay_journal()). When false an existing file is
  /// discarded and written fresh.
  bool resume_from_journal = false;

  /// Cross-campaign evaluation store (see src/store/), shared between
  /// brokers and campaigns. Null = disabled. Uncached points are looked up
  /// under (design hash, backend, store_tier) before dispatch — an exact
  /// hit skips the tool and is charged zero tool seconds — and every fresh
  /// answer is appended back.
  std::shared_ptr<store::EvalStore> store;

  /// Fidelity tier this broker's answers are stored under. The tier is
  /// part of the store key, so a screen-tier estimate can never be served
  /// to a high-fidelity broker.
  std::string store_tier = store::EvalStore::kTierHifi;

  /// Campaign id stamped on appended store records (provenance only).
  std::string campaign_id;
};

/// Counters owned by one broker; DseStats merges them per fidelity.
struct BrokerStats {
  std::size_t fresh_runs = 0;  ///< pipeline runs actually paid for (no hit/join)
  double tool_seconds = 0.0;
  bool deadline_hit = false;
  std::size_t lease_waits = 0;
  std::size_t journal_replays = 0;
  /// Journal records of unknown kind skipped tolerantly during replay
  /// (written by a newer dovado; see core/journal.hpp).
  std::size_t journal_skipped_records = 0;

  // Cross-campaign store counters (see src/store/).
  std::size_t store_hits = 0;     ///< answers served from the store, zero tool seconds
  std::size_t store_appends = 0;  ///< fresh answers persisted to the store

  // Virtual lane clock (utilization accounting; see EvaluationBroker).
  std::size_t virtual_lanes = 0;
  double busy_tool_seconds = 0.0;       ///< sum of lane-occupying run times
  double virtual_makespan_seconds = 0.0;  ///< when the last lane goes idle
  /// busy / (makespan * lanes): the fraction of fleet-seconds spent
  /// actually evaluating rather than idling at a barrier. 0 before any
  /// lane-occupying run.
  double utilization = 0.0;

  // Supervision outcomes (see core/supervisor.hpp).
  std::size_t retries = 0;
  std::size_t transient_failures = 0;
  std::size_t deterministic_failures = 0;
  std::size_t timeouts = 0;
  std::size_t quarantined = 0;
  double backoff_tool_seconds = 0.0;
  std::size_t faults_injected = 0;
};

class EvaluationBroker {
 public:
  /// Builds the supervisor, the fault injector (when a plan is active), one
  /// evaluator per parallel lane and the thread pool, and opens the
  /// journal. Throws std::runtime_error when the project cannot be parsed,
  /// the backend name is unknown, or the journal cannot be opened; a
  /// pending journal replay is held until replay_journal() is called (the
  /// engine seeds warm-start state first). `health`: the per-backend
  /// circuit breakers (see core/health/); null = none.
  EvaluationBroker(ProjectConfig project, BrokerConfig config,
                   std::shared_ptr<BackendHealthManager> health = nullptr);

  /// Evaluate with the tool on an exclusively leased session (derived
  /// metrics included), journal fresh answers and charge the guarded
  /// tool-seconds accumulator. Safe to call from any number of
  /// pool tasks.
  ///
  /// With circuit breakers, uncached points first pass the
  /// backend's circuit breaker: an open breaker answers in O(1) with
  /// `fast_failed=true` (zero tool seconds; never cached or journaled).
  /// `probe=true` requests admission through the breaker's probe budget
  /// instead of regular traffic (the engine's recovery probe queue).
  ///
  /// `deadline_tool_seconds` > 0 bounds this request's total simulated
  /// tool seconds; the cap is propagated into the supervisor's retry loop
  /// (see EvaluationSupervisor::supervise). A deadline-truncated answer is
  /// charged (the time was really spent) but never journaled, stored, or
  /// fed to the breaker — it reflects the requester's budget, not the
  /// point or the backend.
  [[nodiscard]] EvalResult tool_evaluate(const DesignPoint& point, bool probe = false,
                                         double deadline_tool_seconds = 0.0);

  /// Journal a breaker transition (no-op without a journal). Used as the
  /// health manager's event sink.
  void append_health_event(const HealthEvent& event);

  /// Dispatch fn(i) for i in [0, n) over the pool; the caller is a lane
  /// too (pre-training, evaluate_set, front verification, screening
  /// sweeps). Deadline checks are the caller's.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Fire-and-forget submission onto the broker's pool (inline when
  /// workers == 0, so inline submission completes before returning). The
  /// engine's campaign loop uses this for its continuous submit/complete
  /// loop; exceptions escaping `fn` are logged, not propagated — the
  /// caller observes failures through the EvalResult it receives.
  void async(std::function<void()> fn);

  // ---- Virtual lane clock -------------------------------------------
  // Evaluations are simulated: they return instantly in wall-clock but
  // report simulated tool seconds, so "utilization" is meaningless in wall
  // time. The broker therefore keeps a virtual fleet of `virtual_lanes`
  // evaluator lanes and list-schedules every lane-occupying run onto the
  // earliest-free lane. The campaign loop calls lane_barrier() at each
  // generational sync point (all lanes wait for the slowest); a
  // steady-state searcher never waits, so it never barriers. utilization = busy_seconds /
  // (makespan * lanes) then measures exactly the idle time the barrier
  // causes. tool_evaluate() stamps EvalResult::virtual_finish for fresh
  // runs automatically.

  /// Number of virtual lanes (config.virtual_lanes, or the real lane
  /// count when 0).
  [[nodiscard]] std::size_t virtual_lane_count() const;

  /// Advance every virtual lane to the current makespan — the generational
  /// barrier, where idle lanes wait for the slowest in-flight run.
  void lane_barrier();

  /// Append an inflight marker for `point` to the journal (no-op without a
  /// journal). Called by the campaign loop at submission; the eval
  /// record appended when the answer lands supersedes it. A non-empty
  /// `optimizer` attributes the point to the searcher that asked for it.
  void journal_inflight(const DesignPoint& point, const std::string& optimizer = "");

  /// Replay the journal opened at construction into the evaluation cache,
  /// skipping points the caller already seeded (warm start). Returns the
  /// replay with `records` cut down to the ones seeded; its health events
  /// and inflight marks are the caller's to apply. Empty on later calls.
  [[nodiscard]] SessionJournal::Replay replay_journal();

  /// Direct cache seeding, bypassing single-flight (warm start).
  void seed_cache(const DesignPoint& point, const EvalResult& result);

  /// Cached answer for a point, if any (cheap; no evaluation).
  [[nodiscard]] std::optional<EvalResult> cached(const DesignPoint& point) const;

  [[nodiscard]] double tool_seconds() const;
  [[nodiscard]] bool deadline_exceeded() const;
  void mark_deadline_hit();

  /// Consistent counter snapshot; safe during in-flight evaluations.
  [[nodiscard]] BrokerStats stats() const;

  /// The module interface under exploration (pool snapshot; safe while
  /// evaluations are in flight).
  [[nodiscard]] const hdl::Module& module() const { return evaluators_.module(); }

  /// Identity and capabilities of this broker's backend.
  [[nodiscard]] const edatool::BackendInfo& backend_info() const { return backend_info_; }

  /// Metric names the backend reports (validation, did-you-mean).
  [[nodiscard]] const std::vector<std::string>& metric_names() const {
    return metric_names_;
  }

  [[nodiscard]] const EvaluationSupervisor& supervisor() const { return *supervisor_; }

 private:
  ProjectConfig project_;
  BrokerConfig config_;
  std::shared_ptr<EvaluationCache> cache_;
  std::shared_ptr<EvaluationSupervisor> supervisor_;
  std::shared_ptr<edatool::FaultInjector> fault_injector_;  ///< null = no faults
  EvaluatorPool evaluators_;  ///< one tool session per lane, leased exclusively
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<SessionJournal> journal_;  ///< null = journaling disabled
  SessionJournal::Replay pending_replay_;    ///< held until replay_journal()
  std::shared_ptr<BackendHealthManager> health_;  ///< null = no breakers
  edatool::BackendInfo backend_info_;
  std::vector<std::string> metric_names_;

  /// Earliest-free run: schedule `seconds` of work onto the earliest-free
  /// virtual lane; returns the virtual finish time.
  double lane_submit_locked(double seconds) DOVADO_REQUIRES(stats_mutex_);

  /// Guards the mutable counters below. Leaf lock: nothing else is ever
  /// acquired while it is held.
  mutable util::Mutex stats_mutex_{"EvaluationBroker.stats"};
  std::vector<double> lane_free_ DOVADO_GUARDED_BY(stats_mutex_);
  double lane_busy_seconds_ DOVADO_GUARDED_BY(stats_mutex_) = 0.0;
  double tool_seconds_accum_ DOVADO_GUARDED_BY(stats_mutex_) = 0.0;
  std::size_t fresh_runs_ DOVADO_GUARDED_BY(stats_mutex_) = 0;
  bool deadline_hit_ DOVADO_GUARDED_BY(stats_mutex_) = false;
  std::size_t journal_replays_ DOVADO_GUARDED_BY(stats_mutex_) = 0;
  /// Captured at open, before replay clears it.
  std::size_t journal_skipped_records_ DOVADO_GUARDED_BY(stats_mutex_) = 0;
  std::size_t store_hits_ DOVADO_GUARDED_BY(stats_mutex_) = 0;
  std::size_t store_appends_ DOVADO_GUARDED_BY(stats_mutex_) = 0;
};

}  // namespace dovado::core
