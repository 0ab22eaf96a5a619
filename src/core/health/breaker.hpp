// Per-backend circuit breaker (closed -> open -> half-open -> closed).
//
// PR 2 made *individual* evaluations survive faults: every run is retried,
// classified and quarantined per point. But a *persistently* sick backend
// still burns its full retry budget on every new point, serially draining
// the tool-seconds deadline. The breaker watches the rolling window of
// final supervised outcomes; once failures dominate it opens and the
// broker fast-fails new requests in O(1) instead of paying retries, which
// lets the engine degrade to the analytic tier (see DESIGN.md
// "Availability & degradation ladder").
//
// Recovery is deterministic and seeded, like every other stochastic choice
// in Dovado: the cooldown is counted in *fast-fails* (demand-driven — an
// idle engine never probes, matching simulated tool time having no wall
// clock), jittered by a hash of (seed, trip ordinal) so identically
// configured breakers do not probe in lockstep. After the cooldown the
// breaker goes half-open and admits a bounded number of probe runs; a
// quorum of probe successes closes it, any probe failure re-trips it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "src/core/health/events.hpp"
#include "src/util/sync.hpp"

namespace dovado::core {

struct BreakerConfig {
  bool enabled = true;

  /// Rolling window of final (supervised) outcomes per backend.
  std::size_t window = 12;

  /// Failures within the window that trip the breaker open.
  std::size_t failure_threshold = 6;

  /// Fast-fails absorbed while open before going half-open (demand-driven
  /// cooldown; jittered +-25% per trip from `seed`).
  std::size_t cooldown_fast_fails = 8;

  /// Probe evaluations admitted per half-open episode.
  std::size_t probe_budget = 3;

  /// Probe successes required to close the breaker again.
  std::size_t probe_quorum = 2;

  /// Jitter seed for the cooldown (usually the campaign seed).
  std::uint64_t seed = 1;
};

enum class BreakerState {
  kClosed,    ///< backend healthy: all traffic admitted
  kOpen,      ///< backend down: fast-fail everything, count cooldown
  kHalfOpen,  ///< probing: a bounded probe budget is admitted
};

/// What the breaker decided for one evaluation request.
enum class BreakerAdmission {
  kAllow,     ///< run it normally
  kFastFail,  ///< do not touch the backend; fail in O(1)
  kProbe,     ///< run it as a recovery probe (report back via on_success/on_failure)
};

class CircuitBreaker {
 public:
  struct Stats {
    BreakerState state = BreakerState::kClosed;
    std::size_t trips = 0;
    std::size_t recoveries = 0;
    std::size_t fast_fails = 0;
    std::size_t probe_runs = 0;
    std::size_t window_failures = 0;
    std::size_t window_size = 0;
  };

  using EventSink = std::function<void(const HealthEvent&)>;

  /// `sink` (may be null) receives every state transition — the broker
  /// forwards them into the journal. Invoked under the breaker mutex; the
  /// sink must not call back into the breaker.
  CircuitBreaker(std::string backend, BreakerConfig config, EventSink sink);

  /// Admission decision for a *regular* evaluation request. Never returns
  /// kProbe — recovery probes are issued only through admit_probe(), so
  /// regular traffic cannot consume the probe budget and which points probe
  /// the backend stays deterministic (the engine's probe queue decides).
  [[nodiscard]] BreakerAdmission admit();

  /// Admission decision for the engine's probe queue. While open, counts
  /// the cooldown down and transitions to half-open when it elapses; while
  /// half-open, admits up to probe_budget probes.
  [[nodiscard]] BreakerAdmission admit_probe();

  /// Return an admitted probe slot that never reached the backend (the
  /// answer came from the cache / a single-flight join instead).
  void cancel_probe();

  /// True when the breaker could use a probe (open or half-open with
  /// budget left) — the engine keeps its probe queue only while this holds.
  [[nodiscard]] bool probe_wanted() const;

  /// Report the final supervised outcome of an admitted evaluation.
  void on_success(bool probe);
  void on_failure(bool probe, const std::string& cause);

  /// Re-apply a journaled transition during --resume: same state machine,
  /// no sink (replayed events must not be re-journaled) and no cooldown
  /// reset — a restored open breaker starts its cooldown fresh.
  void restore(const HealthEvent& event);

  [[nodiscard]] BreakerState state() const;
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const std::string& backend() const { return backend_; }

 private:
  void trip_locked(const std::string& cause) DOVADO_REQUIRES(mutex_);
  void close_locked() DOVADO_REQUIRES(mutex_);
  void to_half_open_locked() DOVADO_REQUIRES(mutex_);
  void push_outcome_locked(bool failed) DOVADO_REQUIRES(mutex_);
  void emit_locked(HealthEventKind kind, const std::string& cause)
      DOVADO_REQUIRES(mutex_);
  [[nodiscard]] std::size_t jittered_cooldown_locked() const
      DOVADO_REQUIRES(mutex_);

  const std::string backend_;
  const BreakerConfig config_;
  const EventSink sink_;

  mutable util::Mutex mutex_{"CircuitBreaker"};
  BreakerState state_ DOVADO_GUARDED_BY(mutex_) = BreakerState::kClosed;
  std::deque<bool> window_ DOVADO_GUARDED_BY(mutex_);  ///< true = failure
  std::size_t window_failures_ DOVADO_GUARDED_BY(mutex_) = 0;
  std::size_t trips_ DOVADO_GUARDED_BY(mutex_) = 0;
  std::size_t recoveries_ DOVADO_GUARDED_BY(mutex_) = 0;
  std::size_t fast_fails_ DOVADO_GUARDED_BY(mutex_) = 0;
  std::size_t probe_runs_ DOVADO_GUARDED_BY(mutex_) = 0;
  std::size_t fast_fails_since_open_ DOVADO_GUARDED_BY(mutex_) = 0;
  std::size_t cooldown_target_ DOVADO_GUARDED_BY(mutex_) = 0;
  std::size_t probes_issued_ DOVADO_GUARDED_BY(mutex_) = 0;
  std::size_t probe_successes_ DOVADO_GUARDED_BY(mutex_) = 0;
  std::string last_cause_ DOVADO_GUARDED_BY(mutex_);
};

}  // namespace dovado::core
