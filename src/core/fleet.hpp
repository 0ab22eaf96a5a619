// The evaluation fleet: the one place a process builds its evaluation
// machinery (paper Sec. III-A/B: each evaluation is one call into one Vivado
// fleet). It owns the store handle, the high-fidelity broker, the breakers
// and the analytic-tier broker that screening and hedging share. The CLI
// engine builds one per run; the serve daemon builds one that every
// campaign's engine uses, so all hedges meet in one analytic cache and
// single-flight and reach the store under the screen tier.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/broker.hpp"
#include "src/core/health/manager.hpp"
#include "src/util/sync.hpp"

namespace dovado::core {

/// The analytic tier: the low-fidelity backend screening and hedging run on.
inline constexpr const char* kAnalyticBackend = "analytic";

class EvaluationFleet {
 public:
  /// Open the store as its single writer, or as a read-only snapshot (with
  /// a warning) when another process holds the writer lock. Throws
  /// std::runtime_error when it cannot be opened at all.
  [[nodiscard]] static std::shared_ptr<store::EvalStore> open_store(const std::string& path);

  /// Builds the hi-fi broker from `hifi` (throws like EvaluationBroker)
  /// and, unless `breaker` is disabled or the backend is the analytic tier
  /// itself, the breakers, whose transitions are logged and journaled.
  EvaluationFleet(ProjectConfig project, BrokerConfig hifi, BreakerConfig breaker);
  EvaluationFleet(const EvaluationFleet&) = delete;  // the breakers' sink holds `this`
  EvaluationFleet& operator=(const EvaluationFleet&) = delete;

  [[nodiscard]] EvaluationBroker& broker() { return *broker_; }
  [[nodiscard]] const EvaluationBroker& broker() const { return *broker_; }

  /// The analytic-tier broker, built on first use under the fleet lock with
  /// the hi-fi broker's workers, supervisor policy, derived metrics, store
  /// and campaign id, but no fault plan, journal or deadline (only hi-fi
  /// spend is budgeted). It stores under the screen tier, so its answers
  /// are never served as hi-fi ones.
  [[nodiscard]] EvaluationBroker& analytic();

  /// The analytic-tier broker if it has been built, else null.
  [[nodiscard]] const EvaluationBroker* built_analytic() const;

  /// Null when the breaker is disabled or the hi-fi backend is analytic.
  [[nodiscard]] BackendHealthManager* health() const { return health_.get(); }

  /// Null when no store is configured.
  [[nodiscard]] store::EvalStore* store() const { return hifi_config_.store.get(); }

  /// The one journal replay: seeds the hi-fi cache (skipping warm-started
  /// points, so the owner calls it after seeding them) and restores the
  /// breakers (an open one stays open). Returns the records seeded and the
  /// inflight marks for the caller; later calls return an empty replay.
  [[nodiscard]] SessionJournal::Replay replay_journal();

 private:
  const ProjectConfig project_;
  const BrokerConfig hifi_config_;
  std::shared_ptr<BackendHealthManager> health_;
  std::unique_ptr<EvaluationBroker> broker_;

  mutable util::Mutex mutex_{"EvaluationFleet"};
  std::unique_ptr<EvaluationBroker> analytic_ DOVADO_GUARDED_BY(mutex_);
};

/// Fast-failed points kept as recovery-probe candidates, bounded and
/// deduplicated: a few representative points diagnose recovery. An engine
/// keeps one per campaign, the serve daemon one for its single evals.
/// Inert without breakers.
class ProbeQueue {
 public:
  explicit ProbeQueue(EvaluationFleet& fleet);

  void push(const DesignPoint& point);
  [[nodiscard]] bool empty() const;

  /// While the breaker wants a probe, send the oldest point as one. A probe
  /// the breaker still fast-fails goes back to the front and ends the
  /// drain; every other answer goes to `on_answer`.
  void drain(const std::function<void(const DesignPoint&, const EvalResult&)>& on_answer);

 private:
  EvaluationBroker& broker_;
  BackendHealthManager* const health_;
  const std::size_t cap_;

  mutable util::Mutex mutex_{"ProbeQueue"};
  std::deque<DesignPoint> queue_ DOVADO_GUARDED_BY(mutex_);
  std::set<DesignPoint> seen_ DOVADO_GUARDED_BY(mutex_);
};

}  // namespace dovado::core
