// Per-tenant admission control: request-rate token buckets plus post-paid
// tool-second quotas.
//
// Admission is the *first* gate a request passes (before the fair-share
// scheduler even sees it): a tenant above its request rate or out of
// tool-second quota is answered immediately with `shed` + retry_after_ms —
// never queued — so an abusive client cannot consume memory, only wire
// bytes. Time is injected (seconds, any monotonic origin) so every policy
// decision is deterministic under test.
//
// The tool-second quota is post-paid: an evaluation's cost is only known
// when it finishes, so admit() requires the bucket to be non-negative and
// charge() deducts the actual cost afterwards (the level may go negative —
// the tenant then sheds until the refill rate pays the debt off). This
// bounds any tenant's overdraft to one in-flight batch of evaluations.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dovado::serve {

/// A standard token bucket over injected time. `rate` tokens/second refill
/// up to `burst`; the level may be driven negative by charge().
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate, double burst, double now)
      : rate_(rate), burst_(burst), level_(burst), last_(now) {}

  /// Take `amount` tokens if the (refilled) level covers it.
  [[nodiscard]] bool try_take(double amount, double now);

  /// Deduct `amount` unconditionally (post-paid charge; may go negative).
  void charge(double amount, double now);

  /// Seconds until the level reaches `target` at the refill rate
  /// (0 when already there; a large sentinel when rate is 0).
  [[nodiscard]] double seconds_until(double target, double now) const;

  [[nodiscard]] double level(double now) const;
  [[nodiscard]] double rate() const { return rate_; }

 private:
  void refill(double now);

  double rate_ = 0.0;
  double burst_ = 0.0;
  double level_ = 0.0;
  double last_ = 0.0;
};

/// Per-tenant limits. Zero rates mean "unlimited" for that dimension.
struct TenantPolicy {
  double weight = 1.0;             ///< fair-share weight (scheduler)
  double request_rate = 0.0;       ///< admissions/second; 0 = unlimited
  double request_burst = 0.0;      ///< bucket depth; 0 => max(1, request_rate)
  double tool_seconds_rate = 0.0;  ///< quota refill, tool-seconds/second
  double tool_seconds_burst = 0.0; ///< quota depth; 0 => 10 * rate (min 1)
  std::size_t queue_cap = 64;      ///< bounded per-tenant queue (scheduler)
};

struct AdmissionDecision {
  bool admitted = false;
  std::int64_t retry_after_ms = 0;  ///< meaningful when !admitted
  std::string reason;               ///< "request_rate" or "tool_quota"
};

struct TenantAdmissionStats {
  std::size_t admitted = 0;
  std::size_t shed_request_rate = 0;
  std::size_t shed_tool_quota = 0;
  double tool_seconds_charged = 0.0;
};

/// Not thread-safe: the server serializes calls under its own lock.
class AdmissionController {
 public:
  /// Pin a tenant to an explicit policy (otherwise TenantPolicy{} — no
  /// rate or quota limit, weight 1 — applies on first contact).
  void set_policy(const std::string& tenant, const TenantPolicy& policy, double now);

  [[nodiscard]] const TenantPolicy& policy(const std::string& tenant) const;

  /// Decide admission for one request at time `now` (seconds).
  [[nodiscard]] AdmissionDecision admit(const std::string& tenant, double now);

  /// Post-paid quota charge for a finished evaluation.
  void charge_tool_seconds(const std::string& tenant, double seconds, double now);

  [[nodiscard]] std::map<std::string, TenantAdmissionStats> stats() const;

 private:
  struct TenantState {
    TenantPolicy policy;
    TokenBucket requests;
    TokenBucket tool_seconds;
    TenantAdmissionStats stats;
  };

  TenantState& state_for(const std::string& tenant, double now);

  std::map<std::string, TenantState> tenants_;
};

}  // namespace dovado::serve
