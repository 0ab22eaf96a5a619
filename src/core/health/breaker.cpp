#include "src/core/health/breaker.hpp"

#include <algorithm>

#include "src/util/rng.hpp"

namespace dovado::core {

namespace {

// Salt for the cooldown jitter stream; keeps it independent from the fault
// injector's and SimVivado's seeded streams even under a shared seed.
constexpr std::uint64_t kCooldownSalt = 0xc1bcb7ea5c1bcb70ULL;

[[nodiscard]] double unit_from_hash(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

CircuitBreaker::CircuitBreaker(std::string backend, BreakerConfig config, EventSink sink)
    : backend_(std::move(backend)), config_(std::move(config)), sink_(std::move(sink)) {}

std::size_t CircuitBreaker::jittered_cooldown_locked() const {
  // +-25% deterministic jitter per trip: identically configured breakers
  // (e.g. parallel campaigns sharing a seed) must not probe in lockstep,
  // but the same (seed, trip) pair always cools down identically.
  const std::uint64_t h = util::mix64(config_.seed ^ kCooldownSalt ^
                                      static_cast<std::uint64_t>(trips_));
  const double scale = 0.75 + 0.5 * unit_from_hash(h);
  const auto jittered =
      static_cast<std::size_t>(static_cast<double>(config_.cooldown_fast_fails) * scale);
  return std::max<std::size_t>(1, jittered);
}

void CircuitBreaker::emit_locked(HealthEventKind kind, const std::string& cause) {
  if (!sink_) return;
  HealthEvent event;
  event.backend = backend_;
  event.kind = kind;
  event.cause = cause;
  event.window_failures = window_failures_;
  event.window_size = window_.size();
  sink_(event);
}

void CircuitBreaker::push_outcome_locked(bool failed) {
  window_.push_back(failed);
  if (failed) ++window_failures_;
  while (window_.size() > config_.window) {
    if (window_.front()) --window_failures_;
    window_.pop_front();
  }
}

void CircuitBreaker::trip_locked(const std::string& cause) {
  ++trips_;
  state_ = BreakerState::kOpen;
  last_cause_ = cause;
  fast_fails_since_open_ = 0;
  cooldown_target_ = jittered_cooldown_locked();
  probes_issued_ = 0;
  probe_successes_ = 0;
  emit_locked(HealthEventKind::kTrip, cause);
  // The window caused this trip; clear it so a recovery starts from a
  // clean slate instead of instantly re-tripping on stale failures.
  window_.clear();
  window_failures_ = 0;
}

void CircuitBreaker::to_half_open_locked() {
  state_ = BreakerState::kHalfOpen;
  probes_issued_ = 0;
  probe_successes_ = 0;
  emit_locked(HealthEventKind::kHalfOpen, last_cause_);
}

void CircuitBreaker::close_locked() {
  state_ = BreakerState::kClosed;
  ++recoveries_;
  window_.clear();
  window_failures_ = 0;
  probes_issued_ = 0;
  probe_successes_ = 0;
  emit_locked(HealthEventKind::kRecover, last_cause_);
  last_cause_.clear();
}

BreakerAdmission CircuitBreaker::admit() {
  util::MutexLock lock(mutex_);
  if (!config_.enabled || state_ == BreakerState::kClosed) return BreakerAdmission::kAllow;
  // Open *and* half-open fast-fail regular traffic: recovery goes through
  // the probe queue only, so hedged search progress never blocks on the
  // sick backend. Fast-fails while open count the cooldown down.
  ++fast_fails_;
  if (state_ == BreakerState::kOpen) ++fast_fails_since_open_;
  return BreakerAdmission::kFastFail;
}

BreakerAdmission CircuitBreaker::admit_probe() {
  util::MutexLock lock(mutex_);
  if (!config_.enabled || state_ == BreakerState::kClosed) return BreakerAdmission::kAllow;
  if (state_ == BreakerState::kOpen) {
    if (fast_fails_since_open_ < cooldown_target_) {
      ++fast_fails_;
      ++fast_fails_since_open_;
      return BreakerAdmission::kFastFail;
    }
    to_half_open_locked();
  }
  if (probes_issued_ < config_.probe_budget) {
    ++probes_issued_;
    ++probe_runs_;
    return BreakerAdmission::kProbe;
  }
  ++fast_fails_;
  return BreakerAdmission::kFastFail;
}

void CircuitBreaker::cancel_probe() {
  util::MutexLock lock(mutex_);
  if (state_ != BreakerState::kHalfOpen) return;
  if (probes_issued_ > 0) --probes_issued_;
  if (probe_runs_ > 0) --probe_runs_;
}

bool CircuitBreaker::probe_wanted() const {
  util::MutexLock lock(mutex_);
  if (!config_.enabled) return false;
  if (state_ == BreakerState::kOpen) return true;
  if (state_ == BreakerState::kHalfOpen) return probes_issued_ < config_.probe_budget;
  return false;
}

void CircuitBreaker::on_success(bool probe) {
  util::MutexLock lock(mutex_);
  if (!config_.enabled) return;
  if (probe && state_ == BreakerState::kHalfOpen) {
    ++probe_successes_;
    if (probe_successes_ >= config_.probe_quorum) close_locked();
    return;
  }
  if (state_ == BreakerState::kClosed) push_outcome_locked(false);
  // A stray non-probe success while open/half-open (e.g. a run admitted
  // just before the trip) is good news but not quorum evidence; ignore it.
}

void CircuitBreaker::on_failure(bool probe, const std::string& cause) {
  util::MutexLock lock(mutex_);
  if (!config_.enabled) return;
  if (state_ != BreakerState::kClosed) {
    if (probe) trip_locked("probe failed: " + cause);
    // Non-probe failures while open/half-open are stragglers from before
    // the trip; the breaker already knows the backend is sick.
    return;
  }
  push_outcome_locked(true);
  if (window_failures_ >= config_.failure_threshold) trip_locked(cause);
}

void CircuitBreaker::restore(const HealthEvent& event) {
  util::MutexLock lock(mutex_);
  switch (event.kind) {
    case HealthEventKind::kTrip:
      ++trips_;
      state_ = BreakerState::kOpen;
      last_cause_ = event.cause;
      fast_fails_since_open_ = 0;
      cooldown_target_ = jittered_cooldown_locked();
      probes_issued_ = 0;
      probe_successes_ = 0;
      window_.clear();
      window_failures_ = 0;
      break;
    case HealthEventKind::kHalfOpen:
      // A journaled half-open means the cooldown had already elapsed; the
      // restored breaker resumes probing without re-paying it.
      state_ = BreakerState::kHalfOpen;
      probes_issued_ = 0;
      probe_successes_ = 0;
      break;
    case HealthEventKind::kRecover:
      state_ = BreakerState::kClosed;
      ++recoveries_;
      window_.clear();
      window_failures_ = 0;
      probes_issued_ = 0;
      probe_successes_ = 0;
      last_cause_.clear();
      break;
  }
}

BreakerState CircuitBreaker::state() const {
  util::MutexLock lock(mutex_);
  return state_;
}

CircuitBreaker::Stats CircuitBreaker::stats() const {
  util::MutexLock lock(mutex_);
  Stats s;
  s.state = state_;
  s.trips = trips_;
  s.recoveries = recoveries_;
  s.fast_fails = fast_fails_;
  s.probe_runs = probe_runs_;
  s.window_failures = window_failures_;
  s.window_size = window_.size();
  return s;
}

}  // namespace dovado::core
