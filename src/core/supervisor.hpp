// Supervised evaluation: retries, failure classification, quarantine.
//
// A real Vivado fleet fails in ways the DSE loop must absorb rather than
// crash on or silently mis-score (see edatool/faults.hpp for the taxonomy).
// The EvaluationSupervisor wraps the single-flight leader's pipeline run
// with:
//   - a per-attempt tool-seconds budget: attempts that blow past it (hung
//     tool) are discarded and the charged time is capped at the budget,
//   - bounded retries with exponential backoff for *transient* failures
//     (crashes, corrupt reports, timeouts) — backoff is charged in
//     *simulated* tool seconds, never as a wall-clock sleep,
//   - no retry for *deterministic* failures (boxing errors, invalid flow
//     configs): re-running pays the same answer,
//   - a quarantine set for points that exhaust their retries; the exhausted
//     failure is still published to the evaluation cache, so a quarantined
//     point is never re-attempted for the rest of the campaign.
//
// The backoff before retry #k+1 is fixed at 2 s x 2^k with +/-50 % jitter.
// Backoff and jitter are pure functions of (seed, point key, attempt), so a
// supervised run is as deterministic as an unsupervised one.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "src/core/evaluator.hpp"
#include "src/core/param_domain.hpp"
#include "src/util/sync.hpp"

namespace dovado::core {

struct SupervisorConfig {
  int max_retries = 3;  ///< retries after the first attempt (so <= 1+max_retries runs)
  /// Per-attempt simulated tool-seconds budget; attempts exceeding it are
  /// classified kTimeout and their charged time is capped at the budget.
  /// 0 disables the per-attempt timeout.
  double attempt_timeout_tool_seconds = 0.0;
  std::uint64_t seed = 1;  ///< jitter determinism
};

/// Robustness counters, merged into DseStats.
struct SupervisorStats {
  std::uint64_t retries = 0;                 ///< extra attempts performed
  std::uint64_t transient_failures = 0;      ///< attempts classified kTransient
  std::uint64_t deterministic_failures = 0;  ///< attempts classified kDeterministic
  std::uint64_t timeouts = 0;                ///< attempts classified kTimeout
  std::uint64_t quarantined_points = 0;      ///< points that exhausted retries
  double backoff_tool_seconds = 0.0;         ///< simulated seconds spent backing off
};

class EvaluationSupervisor {
 public:
  explicit EvaluationSupervisor(SupervisorConfig config) : config_(config) {}

  [[nodiscard]] const SupervisorConfig& config() const { return config_; }

  /// Classify a failed attempt by its error text. Crash / interrupted-report
  /// / unparsable-report errors are transient; boxing, flow-configuration
  /// and other tool-semantic errors are deterministic. (Timeouts are
  /// classified by the supervise loop from tool_seconds, not from text.)
  [[nodiscard]] static FailureClass classify_error(const std::string& error);

  /// Run `run_attempt(attempt)` (0-based attempt index) under the retry
  /// policy and return the final outcome. The returned result carries the
  /// *total* simulated seconds across all attempts plus backoff, the
  /// attempt count, the failure class of the last attempt, and
  /// quarantined=true when retries were exhausted.
  ///
  /// `deadline_tool_seconds` > 0 is a *per-request* total budget across
  /// attempts and backoff (0 = unbounded): the effective per-attempt
  /// timeout never exceeds the remaining budget, and retrying stops once
  /// the budget is spent. A deadline-cut outcome is returned with
  /// deadline_truncated=true, classified kTimeout, charged at most the
  /// deadline — and never quarantined, because the cut reflects the
  /// requester's budget rather than the design point.
  [[nodiscard]] EvalResult supervise(const DesignPoint& point,
                                     const std::function<EvalResult(int)>& run_attempt,
                                     double deadline_tool_seconds = 0.0);

  [[nodiscard]] SupervisorStats stats() const;
  [[nodiscard]] bool is_quarantined(const DesignPoint& point) const;
  [[nodiscard]] std::size_t quarantine_size() const;

 private:
  /// Deterministic backoff (with jitter) before retrying `attempt`+1.
  [[nodiscard]] double backoff_seconds(std::uint64_t point_key, int attempt) const;

  SupervisorConfig config_;
  mutable util::Mutex mutex_{"EvaluationSupervisor"};
  std::set<DesignPoint> quarantine_ DOVADO_GUARDED_BY(mutex_);
  SupervisorStats stats_ DOVADO_GUARDED_BY(mutex_);
};

}  // namespace dovado::core
