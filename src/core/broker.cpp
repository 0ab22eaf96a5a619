#include "src/core/broker.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/util/logging.hpp"

namespace dovado::core {

EvaluationBroker::EvaluationBroker(ProjectConfig project, BrokerConfig config,
                                   std::shared_ptr<BackendHealthManager> health)
    : project_(std::move(project)),
      config_(std::move(config)),
      cache_(std::make_shared<EvaluationCache>()),
      health_(std::move(health)) {
  // Every evaluation runs supervised (retries/quarantine); with faults off
  // and a healthy tool, supervision is a single attempt plus bookkeeping.
  supervisor_ = std::make_shared<EvaluationSupervisor>(config_.supervise);
  if (config_.fault_plan.active()) {
    fault_injector_ = std::make_shared<edatool::FaultInjector>(config_.fault_plan);
    util::Log::info("fault injection active: " + config_.fault_plan.to_string());
  }

  // One exclusively-leasable tool session per parallel lane: the pool's
  // workers plus the caller, which participates in parallel_for. Inline
  // mode (workers == 0) gets a single session.
  const std::size_t lane_count = config_.workers == 0 ? 1 : config_.workers + 1;
  const auto derived =
      std::make_shared<const std::vector<DerivedMetric>>(config_.derived_metrics);
  for (std::size_t i = 0; i < lane_count; ++i) {
    auto evaluator = std::make_unique<PointEvaluator>(project_, cache_);
    evaluator->set_supervisor(supervisor_);
    evaluator->set_derived_metrics(derived);
    if (fault_injector_) evaluator->set_fault_injector(fault_injector_);
    if (i == 0) {
      backend_info_ = evaluator->backend().info();
      metric_names_ = evaluator->backend().metric_names();
    }
    evaluators_.add(std::move(evaluator));
  }
  pool_ = std::make_unique<util::ThreadPool>(config_.workers);
  lane_free_.assign(config_.virtual_lanes != 0 ? config_.virtual_lanes : lane_count, 0.0);

  // Crash-safety journal: open (and read back) now, but hold the replay
  // until replay_journal() — the engine seeds warm-start state first so
  // replay can skip what it already covers. A corrupt journal is a hard
  // error: silently dropping paid-for evaluations would be worse than
  // stopping.
  if (!config_.journal_path.empty()) {
    std::string journal_error;
    journal_ = SessionJournal::open(config_.journal_path,
                                    config_.resume_from_journal ? &pending_replay_ : nullptr,
                                    journal_error);
    if (!journal_) throw std::runtime_error(journal_error);
    if (pending_replay_.torn_tail) {
      util::Log::warn("journal '" + config_.journal_path +
                      "' had a torn final record (crash mid-write); dropped");
    }
    // Captured now because replay_journal() clears the pending replay;
    // surfaced through BrokerStats -> DseStats -> CLI/JSON.
    journal_skipped_records_ = pending_replay_.skipped_records;
  }
}

void EvaluationBroker::append_health_event(const HealthEvent& event) {
  if (!journal_) return;
  if (!journal_->append_event(event)) {
    util::Log::warn("journal append failed for health event on '" + journal_->path() +
                    "'; a resumed run will re-discover this outage");
  }
}

std::size_t EvaluationBroker::virtual_lane_count() const {
  util::MutexLock lock(stats_mutex_);
  return lane_free_.size();
}

double EvaluationBroker::lane_submit_locked(double seconds) {
  // Greedy list scheduling: the run starts on the lane that frees up first
  // (first such lane for determinism) and occupies it for `seconds`.
  std::size_t lane = 0;
  for (std::size_t i = 1; i < lane_free_.size(); ++i) {
    if (lane_free_[i] < lane_free_[lane]) lane = i;
  }
  lane_free_[lane] += seconds;
  lane_busy_seconds_ += seconds;
  return lane_free_[lane];
}

void EvaluationBroker::lane_barrier() {
  util::MutexLock lock(stats_mutex_);
  const double makespan = *std::max_element(lane_free_.begin(), lane_free_.end());
  for (double& t : lane_free_) t = makespan;
}

void EvaluationBroker::async(std::function<void()> fn) {
  auto guarded = [fn = std::move(fn)] {
    try {
      fn();
    } catch (const std::exception& e) {
      util::Log::warn(std::string("async evaluation task failed: ") + e.what());
    } catch (...) {
      util::Log::warn("async evaluation task failed with a non-standard exception");
    }
  };
  // The future is intentionally dropped: completion is observed through
  // the caller's own completion bookkeeping, not through the future.
  (void)pool_->submit(std::move(guarded));
}

void EvaluationBroker::journal_inflight(const DesignPoint& point,
                                        const std::string& optimizer) {
  if (!journal_) return;
  if (!journal_->append_inflight(point, optimizer)) {
    util::Log::warn("journal append failed for inflight marker on '" + journal_->path() +
                    "'; a resumed run will not re-submit this point");
  }
}

SessionJournal::Replay EvaluationBroker::replay_journal() {
  SessionJournal::Replay replay = std::exchange(pending_replay_, {});
  if (replay.skipped_records > 0) {
    util::Log::warn("journal '" + config_.journal_path + "': skipped " +
                    std::to_string(replay.skipped_records) + " record(s) of unknown kind");
  }
  if (replay.records.empty()) return replay;
  std::vector<JournalRecord> seeded;
  for (auto& rec : replay.records) {
    if (cache_->lookup(rec.params)) continue;  // warm start already seeded it
    EvalResult result;
    result.ok = rec.ok;
    result.metrics = rec.metrics;
    result.error = rec.error;
    result.failure = rec.failure;
    result.attempts = rec.attempts;
    result.quarantined = rec.quarantined;
    cache_->store(rec.params, result);
    {
      util::MutexLock lock(stats_mutex_);
      ++journal_replays_;
    }
    seeded.push_back(std::move(rec));
  }
  util::Log::info("journal replay: " + std::to_string(replay.records.size()) +
                  " evaluations recovered from '" + config_.journal_path + "'");
  replay.records = std::move(seeded);
  return replay;
}

void EvaluationBroker::seed_cache(const DesignPoint& point, const EvalResult& result) {
  cache_->store(point, result);
}

std::optional<EvalResult> EvaluationBroker::cached(const DesignPoint& point) const {
  return cache_->lookup(point);
}

EvalResult EvaluationBroker::tool_evaluate(const DesignPoint& point, bool probe,
                                           double deadline_tool_seconds) {
  // Cross-campaign store gate: an uncached point that a prior campaign
  // already paid for at this (backend, tier) is answered from the store —
  // zero tool seconds, no lane time, no journal append (the store itself
  // is the durable record). Only exact answers qualify: approximate/
  // degraded records and transient failures are never served.
  if (config_.store && !cache_->contains(point)) {
    auto stored = config_.store->lookup(point, backend_info_.name, config_.store_tier);
    if (stored && store::servable_as_exact(*stored)) {
      EvalResult hit;
      hit.ok = stored->ok;
      hit.metrics.values = stored->metrics;
      if (!stored->ok) {
        hit.error = "failed in a previous campaign (evaluation store)";
        hit.failure = FailureClass::kDeterministic;
      }
      hit.quarantined = stored->quarantined;
      // Seed the cache so repeats inside this campaign are plain cache
      // hits; the store flag marks only the first, charged-free answer.
      cache_->store(point, hit);
      hit.store_hit = true;
      util::MutexLock lock(stats_mutex_);
      ++store_hits_;
      return hit;
    }
  }
  // Circuit-breaker gate: only *uncached* points consult the breaker — a
  // memoized answer costs nothing and says nothing new about health.
  BreakerAdmission admission = BreakerAdmission::kAllow;
  if (health_ && !cache_->contains(point)) {
    admission = probe ? health_->admit_probe(backend_info_.name)
                      : health_->admit(backend_info_.name);
    if (admission == BreakerAdmission::kFastFail) {
      EvalResult fast;
      fast.ok = false;
      fast.fast_failed = true;
      fast.failure = FailureClass::kTransient;
      fast.attempts = 0;
      fast.error = "circuit breaker open for backend '" + backend_info_.name +
                   "' (fast fail)";
      // Deliberately not cached, journaled or charged: the answer says the
      // *backend* is down right now, nothing about the design point.
      return fast;
    }
  }
  EvalResult result;
  {
    const EvaluatorPool::Lease lease = evaluators_.acquire();
    result = lease->evaluate(point, deadline_tool_seconds);
  }
  // Only *fresh* answers feed the breaker's window: a cache hit or a
  // single-flight join replays an old answer and says nothing about the
  // backend's health right now. A probe slot that resolved without
  // touching the backend is returned to the budget.
  const bool fresh = !result.cache_hit && !result.joined;
  // A deadline-truncated answer says "this requester's budget ran out" —
  // nothing about the backend's health or the design point — so it neither
  // feeds the breaker window nor becomes a durable record below.
  const bool truncated = result.deadline_truncated;
  if (health_) {
    if (fresh && !truncated) {
      health_->on_outcome(backend_info_.name, admission == BreakerAdmission::kProbe,
                          result);
    } else if (admission == BreakerAdmission::kProbe) {
      health_->cancel_probe(backend_info_.name);
    }
  }
  // Journal every *fresh* tool answer (cache hits and joins were paid for —
  // and journaled — by their leader) so a crashed campaign can resume
  // without repaying for it.
  if (journal_ && fresh && !truncated) {
    JournalRecord rec;
    rec.params = point;
    rec.metrics = result.metrics;
    rec.ok = result.ok;
    rec.error = result.error;
    rec.failure = result.failure;
    rec.attempts = result.attempts;
    rec.quarantined = result.quarantined;
    rec.tool_seconds = result.tool_seconds;
    if (!journal_->append(rec)) {
      util::Log::warn("journal append failed for '" + journal_->path() +
                      "'; crash recovery will miss this point");
    }
  }
  // Persist every fresh answer — successes and failures alike, each under
  // this broker's fidelity tier — so future campaigns never repay for it.
  if (config_.store && fresh && !truncated && config_.store->writable()) {
    store::StoreRecord rec;
    rec.params = point;
    rec.backend = backend_info_.name;
    rec.tier = config_.store_tier;
    rec.campaign = config_.campaign_id;
    rec.metrics = result.metrics.values;
    rec.ok = result.ok;
    rec.failure = failure_class_name(result.failure);
    rec.quarantined = result.quarantined;
    rec.tool_seconds = result.tool_seconds;
    std::string store_error;
    if (config_.store->append(std::move(rec), &store_error)) {
      util::MutexLock lock(stats_mutex_);
      ++store_appends_;
    } else {
      util::Log::warn(store_error + "; future campaigns will repay for this point");
    }
  }
  // Cache hits and single-flight joins carry zero tool seconds, so charging
  // unconditionally counts every simulated second exactly once.
  util::MutexLock lock(stats_mutex_);
  tool_seconds_accum_ += result.tool_seconds;
  // Stamp (or clear — cached answers carry their leader's stale stamp) the
  // virtual lane clock: only fresh lane-occupying runs advance it.
  result.virtual_finish = fresh && result.tool_seconds > 0.0
                              ? lane_submit_locked(result.tool_seconds)
                              : 0.0;
  if (fresh) ++fresh_runs_;
  return result;
}

void EvaluationBroker::parallel_for(std::size_t n,
                                    const std::function<void(std::size_t)>& fn) {
  pool_->parallel_for(n, fn);
}

double EvaluationBroker::tool_seconds() const {
  util::MutexLock lock(stats_mutex_);
  return tool_seconds_accum_;
}

bool EvaluationBroker::deadline_exceeded() const {
  return tool_seconds() >= config_.deadline_tool_seconds;
}

void EvaluationBroker::mark_deadline_hit() {
  util::MutexLock lock(stats_mutex_);
  deadline_hit_ = true;
}

BrokerStats EvaluationBroker::stats() const {
  BrokerStats snapshot;
  {
    util::MutexLock lock(stats_mutex_);
    snapshot.fresh_runs = fresh_runs_;
    snapshot.tool_seconds = tool_seconds_accum_;
    snapshot.deadline_hit = deadline_hit_;
    snapshot.journal_replays = journal_replays_;
    snapshot.journal_skipped_records = journal_skipped_records_;
    snapshot.store_hits = store_hits_;
    snapshot.store_appends = store_appends_;
    snapshot.virtual_lanes = lane_free_.size();
    snapshot.busy_tool_seconds = lane_busy_seconds_;
    snapshot.virtual_makespan_seconds =
        *std::max_element(lane_free_.begin(), lane_free_.end());
    snapshot.utilization =
        snapshot.virtual_makespan_seconds > 0.0
            ? lane_busy_seconds_ / (snapshot.virtual_makespan_seconds *
                                    static_cast<double>(lane_free_.size()))
            : 0.0;
  }
  snapshot.lease_waits = evaluators_.lease_waits();
  const SupervisorStats sup = supervisor_->stats();
  snapshot.retries = sup.retries;
  snapshot.transient_failures = sup.transient_failures;
  snapshot.deterministic_failures = sup.deterministic_failures;
  snapshot.timeouts = sup.timeouts;
  snapshot.quarantined = sup.quarantined_points;
  snapshot.backoff_tool_seconds = sup.backoff_tool_seconds;
  if (fault_injector_) {
    const auto counters = fault_injector_->counters();
    snapshot.faults_injected =
        counters.crashes + counters.hangs + counters.corrupted_reports + counters.aborts;
  }
  return snapshot;
}

}  // namespace dovado::core
