// Weighted deficit round-robin over bounded per-tenant queues.
//
// Classic DRR (Shreedhar & Varghese) adapted to tool-second costs: each
// tenant owns a bounded FIFO of jobs; a round-robin cursor visits non-empty
// queues, crediting `quantum * weight` deficit per visit and dispatching
// jobs while the deficit covers the tenant's *expected* per-job cost (an
// EWMA of its actual charged tool-seconds). Costs are only known at
// completion, so dispatch deducts the expectation and charge() reconciles
// it against the actual cost — a tenant whose jobs ran long goes into debt
// and is skipped until its credit recovers, which is exactly "weighted by
// tool-seconds consumed".
//
// Starvation-freedom: every non-empty queue gains `quantum * weight > 0`
// deficit per full rotation, so any tenant dispatches within a bounded
// number of rotations (debt is clamped, see kDebtRounds).
//
// Not thread-safe; the server serializes access under its own mutex. Pure
// (no clocks, no I/O), so unit tests drive it deterministically.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace dovado::serve {

struct TenantQueueStats {
  double weight = 1.0;
  std::size_t queued = 0;           ///< jobs waiting right now
  std::size_t dispatched = 0;       ///< jobs handed to the broker
  std::size_t shed_queue_full = 0;  ///< pushes rejected by the bounded queue
  double consumed_tool_seconds = 0.0;
  double expected_cost = 1.0;       ///< EWMA of per-job tool-seconds
  double deficit = 0.0;
  std::size_t inflight = 0;         ///< dispatched jobs not yet charged
};

template <typename Job>
class DrrScheduler {
 public:
  /// Register (or re-weight) a tenant. Unknown tenants pushed without
  /// registration get TenantPolicy{}'s weight 1 and queue cap 64.
  void set_tenant(const std::string& tenant, double weight, std::size_t queue_cap) {
    TenantState& state = state_for(tenant);
    state.stats.weight = std::max(1e-6, weight);
    state.queue_cap = std::max<std::size_t>(1, queue_cap);
  }

  /// Enqueue a job; false when the tenant's bounded queue is full (the
  /// caller sheds with retry_after_ms instead of buffering unboundedly).
  template <typename J>
  [[nodiscard]] bool push(const std::string& tenant, J&& job) {
    TenantState& state = state_for(tenant);
    if (state.queue.size() >= state.queue_cap) {
      ++state.stats.shed_queue_full;
      return false;
    }
    state.queue.push_back(std::forward<J>(job));
    ++queued_;
    return true;
  }

  /// Pick the next job under the DRR policy; nullopt when all queues are
  /// empty. Returns (tenant, job).
  [[nodiscard]] std::optional<std::pair<std::string, Job>> pop() {
    if (queued_ == 0 || ring_.empty()) return std::nullopt;
    const double quantum = max_expected_cost();
    // Each full rotation credits every non-empty queue, so some tenant
    // becomes eligible within ceil(debt / (quantum * weight)) rotations;
    // the debt clamp in charge() bounds that by kDebtRounds.
    for (std::size_t guard = 0; guard < ring_.size() * (kDebtRounds + 2); ++guard) {
      TenantState& state = tenants_[ring_[cursor_]];
      if (state.queue.empty()) {
        // Standard DRR: an emptied queue forfeits its leftover deficit so
        // an idle tenant cannot hoard credit.
        state.stats.deficit = 0.0;
        state.credited = false;
        advance();
        continue;
      }
      if (!state.credited) {
        state.stats.deficit += quantum * state.stats.weight;
        state.credited = true;
      }
      if (state.stats.deficit >= state.stats.expected_cost) {
        state.stats.deficit -= state.stats.expected_cost;
        state.inflight_expected.push_back(state.stats.expected_cost);
        std::optional<std::pair<std::string, Job>> next(
            std::in_place, ring_[cursor_], std::move(state.queue.front()));
        state.queue.pop_front();
        --queued_;
        ++state.stats.dispatched;
        if (state.queue.empty() || state.stats.deficit < state.stats.expected_cost) {
          state.credited = false;
          if (state.queue.empty()) state.stats.deficit = 0.0;
          advance();
        }
        return next;
      }
      state.credited = false;
      advance();
    }
    // Unreachable with positive weights; fail safe by serving the deepest
    // queue rather than stalling the dispatcher.
    std::string deepest;
    for (const auto& name : ring_) {
      if (tenants_[name].queue.empty()) continue;
      if (deepest.empty() ||
          tenants_[name].queue.size() > tenants_[deepest].queue.size()) {
        deepest = name;
      }
    }
    if (deepest.empty()) return std::nullopt;
    TenantState& state = tenants_[deepest];
    state.inflight_expected.push_back(state.stats.expected_cost);
    Job job = std::move(state.queue.front());
    state.queue.pop_front();
    --queued_;
    ++state.stats.dispatched;
    return std::make_pair(deepest, std::move(job));
  }

  /// Reconcile a completed job's actual tool-seconds against the expected
  /// cost deducted at dispatch, and fold the actual into the EWMA.
  void charge(const std::string& tenant, double actual_seconds) {
    const auto it = tenants_.find(tenant);
    if (it == tenants_.end()) return;
    TenantState& state = it->second;
    double expected = state.stats.expected_cost;
    if (!state.inflight_expected.empty()) {
      expected = state.inflight_expected.front();
      state.inflight_expected.pop_front();
    }
    const double actual = std::max(0.0, actual_seconds);
    state.stats.consumed_tool_seconds += actual;
    // Pay back (or claw back) the difference between what dispatch assumed
    // and what the job really cost; clamp the resulting debt so one wildly
    // mis-estimated job cannot stall a tenant for more than kDebtRounds
    // rotations.
    state.stats.deficit += expected - actual;
    const double floor =
        -static_cast<double>(kDebtRounds) * max_expected_cost() * state.stats.weight;
    state.stats.deficit = std::max(state.stats.deficit, floor);
    if (actual > 0.0) {
      state.stats.expected_cost = state.seen_cost
                                      ? 0.7 * state.stats.expected_cost + 0.3 * actual
                                      : actual;
      state.stats.expected_cost = std::max(state.stats.expected_cost, 1e-9);
      state.seen_cost = true;
    }
  }

  [[nodiscard]] std::size_t queued() const { return queued_; }
  [[nodiscard]] bool empty() const { return queued_ == 0; }

  /// Whether push() would refuse a job for `tenant` right now.
  [[nodiscard]] bool full(const std::string& tenant) const {
    const auto it = tenants_.find(tenant);
    return it != tenants_.end() && it->second.queue.size() >= it->second.queue_cap;
  }

  [[nodiscard]] std::size_t queued_for(const std::string& tenant) const {
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second.queue.size();
  }

  /// Remove and return every queued job (graceful drain sheds them with a
  /// "draining" reply instead of leaving clients hanging).
  [[nodiscard]] std::vector<std::pair<std::string, Job>> drain_all() {
    std::vector<std::pair<std::string, Job>> drained;
    for (const auto& name : ring_) {
      TenantState& state = tenants_[name];
      while (!state.queue.empty()) {
        drained.emplace_back(name, std::move(state.queue.front()));
        state.queue.pop_front();
        --queued_;
      }
      state.stats.deficit = 0.0;
      state.credited = false;
    }
    return drained;
  }

  [[nodiscard]] std::map<std::string, TenantQueueStats> stats() const {
    std::map<std::string, TenantQueueStats> out;
    for (const auto& [name, state] : tenants_) {
      TenantQueueStats s = state.stats;
      s.queued = state.queue.size();
      s.inflight = state.inflight_expected.size();
      out[name] = s;
    }
    return out;
  }

 private:
  /// Debt clamp, in rotations' worth of quantum * weight.
  static constexpr std::size_t kDebtRounds = 8;

  struct TenantState {
    std::deque<Job> queue;
    std::size_t queue_cap = 64;
    bool credited = false;   ///< deficit granted for the current visit
    bool seen_cost = false;  ///< expected_cost initialized from a real charge
    std::deque<double> inflight_expected;  ///< expectation deducted per dispatch
    TenantQueueStats stats;
  };

  TenantState& state_for(const std::string& tenant) {
    const auto it = tenants_.find(tenant);
    if (it != tenants_.end()) return it->second;
    TenantState& state = tenants_[tenant];
    ring_.push_back(tenant);
    return state;
  }

  void advance() { cursor_ = (cursor_ + 1) % ring_.size(); }

  [[nodiscard]] double max_expected_cost() const {
    double quantum = 1e-9;
    for (const auto& [name, state] : tenants_) {
      quantum = std::max(quantum, state.stats.expected_cost);
    }
    return quantum;
  }

  std::map<std::string, TenantState> tenants_;
  std::vector<std::string> ring_;  ///< visit order (registration order)
  std::size_t cursor_ = 0;
  std::size_t queued_ = 0;
};

}  // namespace dovado::serve
