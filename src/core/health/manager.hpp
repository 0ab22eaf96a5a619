// Backend health manager: one circuit breaker per backend, fed with the
// final supervised outcome of every fresh evaluation.
//
// Sits between the broker and the breakers and owns the policy of *what
// counts as a health signal*: only transient failures and timeouts — the
// classes that indicate a sick tool — feed the failure window. A
// deterministic failure (e.g. over-utilization) is the backend answering
// correctly about a bad design point, so it counts as a healthy response;
// tripping on it would punish the backend for the design space.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/sync.hpp"

#include "src/core/evaluator.hpp"
#include "src/core/health/breaker.hpp"
#include "src/core/health/events.hpp"

namespace dovado::core {

/// Aggregated counters across all managed backends (DseStats merges them).
struct HealthStats {
  std::size_t trips = 0;
  std::size_t recoveries = 0;
  std::size_t fast_fails = 0;
  std::size_t probe_runs = 0;
};

class BackendHealthManager {
 public:
  explicit BackendHealthManager(BreakerConfig config);

  [[nodiscard]] const BreakerConfig& config() const { return config_; }

  /// Forward every breaker transition (journaling). Must be set before the
  /// first admit(); events fire under the breaker mutex, so the sink must
  /// not call back into the manager.
  void set_event_sink(CircuitBreaker::EventSink sink);

  /// Admission decision for a regular evaluation on `backend`.
  [[nodiscard]] BreakerAdmission admit(const std::string& backend);

  /// Admission decision for the engine's probe queue.
  [[nodiscard]] BreakerAdmission admit_probe(const std::string& backend);

  /// Return a probe slot whose answer came from the cache / a join.
  void cancel_probe(const std::string& backend);

  /// True while `backend`'s breaker could use a probe.
  [[nodiscard]] bool probe_wanted(const std::string& backend);

  /// Feed the final supervised outcome of a *fresh* run (no cache hit, no
  /// single-flight join — replays of old answers say nothing about current
  /// health). Applies the failure-class filter described above.
  void on_outcome(const std::string& backend, bool probe, const EvalResult& result);

  /// Replay journaled health events on --resume (in journal order).
  void restore(const std::vector<HealthEvent>& events);

  [[nodiscard]] BreakerState state(const std::string& backend) const;
  [[nodiscard]] HealthStats stats() const;

 private:
  [[nodiscard]] CircuitBreaker& breaker(const std::string& backend);

  const BreakerConfig config_;

  /// Guards the breaker map (not the breakers: each has its own mutex,
  /// ordered after this one — breaker() acquires the map lock, releases
  /// it, and only then does the caller enter the breaker).
  mutable util::Mutex mutex_{"BackendHealthManager"};
  CircuitBreaker::EventSink sink_ DOVADO_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_
      DOVADO_GUARDED_BY(mutex_);
};

}  // namespace dovado::core
