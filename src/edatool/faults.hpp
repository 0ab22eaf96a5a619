// Deterministic fault injection for the simulated tool layer.
//
// Real Vivado fleets fail constantly: processes crash or are OOM-killed,
// runs hang far past their expected runtime, report files come back
// truncated or interleaved with other output, and some design points abort
// the tool on every attempt. Dovado's unattended multi-hour campaigns must
// survive all of these, so the robustness paths (supervised retries,
// failure classification, quarantine, crash-safe resume — see
// core/supervisor.hpp and DESIGN.md "Failure model & recovery") need to be
// testable without a flaky real tool.
//
// The FaultInjector makes VivadoSim exhibit each failure mode on demand.
// Point faults are *stateless*: a fault is a pure function of
// (plan seed, design-point hash, attempt number), so
//   - two evaluators with the same plan inject identical faults,
//   - parallel dispatch order cannot change which runs fail (the sequence
//     faults below, keyed on a fleet-wide attempt ordinal, are the
//     exception),
//   - a journal replay re-encounters exactly the faults the original run
//     saw on points it has to re-evaluate, and
//   - a retry (attempt+1) of a *transient* fault re-rolls the dice while a
//     *persistent* abort (keyed on the point hash alone) recurs forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "src/util/flat_map.hpp"

namespace dovado::edatool {

/// Configuration of the injected failure distribution. Parsed from the
/// `DOVADO_FAULT_PLAN` environment variable or the `--fault-plan` CLI flag.
struct FaultPlan {
  std::uint64_t seed = 1;
  double crash_rate = 0.0;    ///< per-attempt: tool process dies mid-flow
  double hang_rate = 0.0;     ///< per-attempt: runtime inflated by hang_factor
  double corrupt_rate = 0.0;  ///< per-attempt: report text comes back garbled
  double abort_rate = 0.0;    ///< per-point: aborts on *every* attempt
  double hang_factor = 25.0;  ///< runtime multiplier for injected hangs

  // Sequence faults, keyed on the global tool-attempt ordinal rather than
  // the point: they model the *backend* being down, not a point being bad
  // (exercising the circuit breaker's degradation ladder). Order-dependent
  // by design — deterministic only under inline evaluation (workers=0).
  std::uint64_t outage_start = 0;  ///< 1-based attempt the outage begins at (0 = off)
  std::uint64_t outage_len = 0;    ///< attempts the outage lasts (0 = forever)
  std::uint64_t flap_up = 0;       ///< healthy attempts per flap cycle (0 = off)
  std::uint64_t flap_down = 0;     ///< crashing attempts per flap cycle

  /// True when any fault can actually fire.
  [[nodiscard]] bool active() const {
    return crash_rate > 0.0 || hang_rate > 0.0 || corrupt_rate > 0.0 ||
           abort_rate > 0.0 || sequence_faults();
  }

  /// True when an attempt-ordinal fault (outage / flapping) is configured.
  [[nodiscard]] bool sequence_faults() const {
    return outage_start > 0 || (flap_up > 0 && flap_down > 0);
  }

  /// Parse a comma-separated spec, e.g.
  ///   "seed=7,crash=0.2,hang=0.05,corrupt=0.1,abort=0.02,hang_factor=30"
  /// or "outage_start=20,outage_len=30" or "flap_up=10,flap_down=15".
  /// Unknown keys, non-numeric values and rates outside [0,1] are errors.
  [[nodiscard]] static std::optional<FaultPlan> parse(const std::string& spec,
                                                      std::string& error);

  /// Canonical spec string (round-trips through parse).
  [[nodiscard]] std::string to_string() const;
};

enum class FaultKind {
  kNone,
  kCrash,            ///< transient: flow script fails with a crash error
  kHang,             ///< transient: simulated runtime inflated by hang_factor
  kCorruptReport,    ///< transient: report text truncated/garbled
  kPersistentAbort,  ///< deterministic: this point aborts on every attempt
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

/// Stable 64-bit key of a design point (parameter name/value map). Used to
/// address per-point fault decisions; must not depend on evaluation order.
[[nodiscard]] std::uint64_t fault_point_key(
    const util::FlatMap<std::int64_t>& point);

/// Injects faults per the plan. Thread-safe: decisions are stateless and the
/// counters are atomic, so one injector may be shared by all parallel tool
/// sessions of an engine.
class FaultInjector {
 public:
  struct Decision {
    FaultKind kind = FaultKind::kNone;
    double hang_factor = 1.0;  ///< runtime multiplier (>1 only for kHang)
  };

  struct Counters {
    std::uint64_t crashes = 0;
    std::uint64_t hangs = 0;
    std::uint64_t corrupted_reports = 0;
    std::uint64_t aborts = 0;
  };

  explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Fault for attempt `attempt` (0-based) on the point identified by
  /// `point_key`. Persistent aborts are keyed on the point alone and
  /// recur on every attempt; transient faults re-roll per attempt.
  [[nodiscard]] Decision decide(std::uint64_t point_key, int attempt) const;

  /// Injection totals so far (how often each fault actually fired).
  [[nodiscard]] Counters counters() const;

 private:
  FaultPlan plan_;
  mutable std::atomic<std::uint64_t> crashes_{0};
  mutable std::atomic<std::uint64_t> hangs_{0};
  mutable std::atomic<std::uint64_t> corrupted_{0};
  mutable std::atomic<std::uint64_t> aborts_{0};
  /// Global tool-attempt counter driving sequence faults (outage/flap).
  /// Only advanced when the plan configures them, so the purely stateless
  /// per-point/per-attempt fault streams stay order-independent.
  mutable std::atomic<std::uint64_t> attempt_ordinal_{0};
};

}  // namespace dovado::edatool
