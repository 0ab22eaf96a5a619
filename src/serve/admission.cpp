#include "src/serve/admission.hpp"

#include <algorithm>
#include <cmath>

namespace dovado::serve {

namespace {
constexpr double kUnreachableSeconds = 3600.0;  ///< rate 0 => "come back in an hour"

std::int64_t to_retry_ms(double seconds) {
  // Round up and floor at 1ms so a shed reply never says "retry now".
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(seconds * 1000.0)));
}
}  // namespace

void TokenBucket::refill(double now) {
  if (now > last_) {
    level_ = std::min(burst_, level_ + rate_ * (now - last_));
  }
  last_ = std::max(last_, now);
}

bool TokenBucket::try_take(double amount, double now) {
  refill(now);
  if (level_ < amount) return false;
  level_ -= amount;
  return true;
}

void TokenBucket::charge(double amount, double now) {
  refill(now);
  level_ -= amount;
}

double TokenBucket::seconds_until(double target, double now) const {
  TokenBucket copy = *this;
  copy.refill(now);
  if (copy.level_ >= target) return 0.0;
  if (rate_ <= 0.0) return kUnreachableSeconds;
  return (target - copy.level_) / rate_;
}

double TokenBucket::level(double now) const {
  TokenBucket copy = *this;
  copy.refill(now);
  return copy.level_;
}

void AdmissionController::set_policy(const std::string& tenant,
                                     const TenantPolicy& policy, double now) {
  TenantState state;
  state.policy = policy;
  const double request_burst = policy.request_burst > 0.0
                                   ? policy.request_burst
                                   : std::max(1.0, policy.request_rate);
  state.requests = TokenBucket(policy.request_rate, request_burst, now);
  const double quota_burst = policy.tool_seconds_burst > 0.0
                                 ? policy.tool_seconds_burst
                                 : std::max(1.0, 10.0 * policy.tool_seconds_rate);
  state.tool_seconds = TokenBucket(policy.tool_seconds_rate, quota_burst, now);
  tenants_[tenant] = std::move(state);
}

const TenantPolicy& AdmissionController::policy(const std::string& tenant) const {
  const auto it = tenants_.find(tenant);
  static const TenantPolicy kDefault{};
  return it == tenants_.end() ? kDefault : it->second.policy;
}

AdmissionController::TenantState& AdmissionController::state_for(
    const std::string& tenant, double now) {
  const auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second;
  set_policy(tenant, TenantPolicy{}, now);
  return tenants_[tenant];
}

AdmissionDecision AdmissionController::admit(const std::string& tenant, double now) {
  TenantState& state = state_for(tenant, now);
  AdmissionDecision decision;
  // Quota first: a quota-exhausted tenant should not burn request tokens on
  // requests that cannot run anyway. Post-paid, so "has quota" means the
  // bucket is above zero, not that it covers the (unknown) cost.
  if (state.policy.tool_seconds_rate > 0.0 &&
      state.tool_seconds.level(now) <= 0.0) {
    ++state.stats.shed_tool_quota;
    decision.reason = "tool_quota";
    // Ask the tenant back once a meaningful slice of quota (one refill
    // second's worth, at least) is available again, not the instant the
    // level crosses zero by epsilon.
    const double target = std::min(state.policy.tool_seconds_rate,
                                   state.tool_seconds.rate() > 0.0
                                       ? state.policy.tool_seconds_rate
                                       : 1.0);
    decision.retry_after_ms =
        to_retry_ms(state.tool_seconds.seconds_until(std::max(target, 1e-9), now));
    return decision;
  }
  if (state.policy.request_rate > 0.0 && !state.requests.try_take(1.0, now)) {
    ++state.stats.shed_request_rate;
    decision.reason = "request_rate";
    decision.retry_after_ms = to_retry_ms(state.requests.seconds_until(1.0, now));
    return decision;
  }
  ++state.stats.admitted;
  decision.admitted = true;
  return decision;
}

void AdmissionController::charge_tool_seconds(const std::string& tenant,
                                              double seconds, double now) {
  TenantState& state = state_for(tenant, now);
  if (state.policy.tool_seconds_rate > 0.0) {
    state.tool_seconds.charge(seconds, now);
  }
  state.stats.tool_seconds_charged += seconds;
}

std::map<std::string, TenantAdmissionStats> AdmissionController::stats() const {
  std::map<std::string, TenantAdmissionStats> out;
  for (const auto& [name, state] : tenants_) out[name] = state.stats;
  return out;
}

}  // namespace dovado::serve
