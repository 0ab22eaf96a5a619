#include "src/core/supervisor.hpp"

#include <algorithm>

#include "src/edatool/faults.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"

namespace dovado::core {
namespace {

constexpr double kBackoffBaseSeconds = 2.0;  ///< backoff before retry #1
constexpr double kBackoffFactor = 2.0;       ///< growth per retry
constexpr double kBackoffJitter = 0.5;       ///< +/- fraction of the backoff randomized

bool contains(const std::string& haystack, std::string_view needle) {
  return haystack.find(needle) != std::string::npos;
}

}  // namespace

FailureClass EvaluationSupervisor::classify_error(const std::string& error) {
  // Transient: the tool process died or its output never made it back
  // intact. Note a *persistent* abort produces the same "terminated
  // abnormally" text as a crash — from one attempt the supervisor cannot
  // tell them apart (neither could it with real Vivado); persistence shows
  // up as the fault recurring on every retry until quarantine.
  if (contains(error, "terminated abnormally") ||
      contains(error, "report stream interrupted") ||
      contains(error, "no parsable reports") || contains(error, "truncated") ||
      contains(error, "unparsable") || contains(error, "malformed utilization row") ||
      contains(error, "unexpected text inside utilization table")) {
    return FailureClass::kTransient;
  }
  // Everything else — boxing failures, invalid flow configurations,
  // placement overflow, bad parts — is a property of the point or the
  // project and will fail identically on every attempt.
  return FailureClass::kDeterministic;
}

EvalResult EvaluationSupervisor::supervise(
    const DesignPoint& point, const std::function<EvalResult(int)>& run_attempt,
    double deadline_tool_seconds) {
  const std::uint64_t key = edatool::fault_point_key(point);
  const int max_attempts = 1 + std::max(0, config_.max_retries);
  const double deadline = std::max(0.0, deadline_tool_seconds);

  double spent_seconds = 0.0;   // failed attempts + backoff so far
  double backoff_total = 0.0;
  EvalResult last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // The effective per-attempt budget is the configured timeout capped at
    // whatever the per-request deadline has left; the cheaper cap decides
    // whether an overrun is a hung-tool kill or a deadline cut.
    const double remaining = deadline > 0.0 ? deadline - spent_seconds : 0.0;
    double budget = config_.attempt_timeout_tool_seconds;
    bool deadline_caps = false;
    if (deadline > 0.0 && (budget <= 0.0 || remaining < budget)) {
      budget = remaining;
      deadline_caps = true;
    }

    EvalResult r = run_attempt(attempt);
    r.attempts = attempt + 1;

    if (budget > 0.0 && r.tool_seconds > budget) {
      // A hung attempt: the supervisor kills it at the budget, so only the
      // budget is charged, and whatever the tool produced is untrusted.
      r.error = deadline_caps
                    ? util::format(
                          "attempt %d killed: tool ran %.1fs against the request's "
                          "%.1fs remaining deadline",
                          attempt + 1, r.tool_seconds, budget)
                    : util::format(
                          "attempt %d killed: tool ran %.1fs against a %.1fs "
                          "per-attempt budget",
                          attempt + 1, r.tool_seconds, budget);
      r.ok = false;
      r.metrics = {};
      r.tool_seconds = budget;
      r.failure = FailureClass::kTimeout;
      r.deadline_truncated = deadline_caps;
    } else if (r.ok) {
      r.failure = FailureClass::kNone;
    } else {
      r.failure = classify_error(r.error);
    }

    if (r.failure == FailureClass::kNone) {
      r.tool_seconds += spent_seconds;
      r.backoff_seconds = backoff_total;
      return r;
    }

    {
      util::MutexLock lock(mutex_);
      if (r.failure == FailureClass::kTimeout) {
        ++stats_.timeouts;
      } else if (r.failure == FailureClass::kTransient) {
        ++stats_.transient_failures;
      } else {
        ++stats_.deterministic_failures;
      }
    }

    spent_seconds += r.tool_seconds;
    last = r;

    if (r.failure == FailureClass::kDeterministic) {
      // Retrying would repay for the same answer; report it as-is (the
      // cache memoizes it, so the point is effectively quarantined too).
      last.tool_seconds = spent_seconds;
      last.backoff_seconds = backoff_total;
      return last;
    }

    // Per-request deadline: stop once the budget is spent, or when the
    // mandatory backoff before the next retry would blow it. The charge is
    // capped at the deadline and the point is *not* quarantined — another
    // request with a roomier budget may still succeed.
    if (deadline > 0.0) {
      const double pause =
          attempt + 1 < max_attempts ? backoff_seconds(key, attempt) : 0.0;
      if (r.deadline_truncated || spent_seconds + pause >= deadline) {
        last.tool_seconds = std::min(spent_seconds, deadline);
        last.backoff_seconds = backoff_total;
        last.failure = FailureClass::kTimeout;
        last.deadline_truncated = true;
        if (!r.deadline_truncated) {
          last.error = util::format(
              "request deadline of %.1f tool seconds exhausted after %d attempt(s)",
              deadline, attempt + 1);
        }
        return last;
      }
    }

    if (attempt + 1 < max_attempts) {
      const double pause = backoff_seconds(key, attempt);
      spent_seconds += pause;
      backoff_total += pause;
      util::MutexLock lock(mutex_);
      ++stats_.retries;
      stats_.backoff_tool_seconds += pause;
    }
  }

  // Retries exhausted: quarantine the point. The failed result is still
  // published by the caller, so the campaign never touches it again.
  last.tool_seconds = spent_seconds;
  last.backoff_seconds = backoff_total;
  last.quarantined = true;
  {
    util::MutexLock lock(mutex_);
    if (quarantine_.insert(point).second) ++stats_.quarantined_points;
  }
  return last;
}

double EvaluationSupervisor::backoff_seconds(std::uint64_t point_key, int attempt) const {
  double pause = kBackoffBaseSeconds;
  for (int i = 0; i < attempt; ++i) pause *= kBackoffFactor;
  // Deterministic jitter in [1-j, 1+j), derived from (seed, point, attempt)
  // so no global state orders the retries.
  const std::uint64_t h = util::mix64(
      util::hash_combine(util::hash_combine(config_.seed, point_key),
                         static_cast<std::uint64_t>(attempt) ^ 0x5bacc0ffull));
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return pause * (1.0 - kBackoffJitter + 2.0 * kBackoffJitter * unit);
}

SupervisorStats EvaluationSupervisor::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

bool EvaluationSupervisor::is_quarantined(const DesignPoint& point) const {
  util::MutexLock lock(mutex_);
  return quarantine_.count(point) > 0;
}

std::size_t EvaluationSupervisor::quarantine_size() const {
  util::MutexLock lock(mutex_);
  return quarantine_.size();
}

}  // namespace dovado::core
