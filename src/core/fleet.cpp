#include "src/core/fleet.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/util/logging.hpp"

namespace dovado::core {

std::shared_ptr<store::EvalStore> EvaluationFleet::open_store(const std::string& path) {
  // A read-only snapshot still serves store hits; this process's own
  // evaluations are simply not persisted.
  auto opened = store::EvalStore::open_writer(path);
  if (!opened.store && opened.lock_busy) {
    util::Log::warn(opened.error);
    opened = store::EvalStore::open_reader(path);
  }
  if (!opened.store) throw std::runtime_error(opened.error);
  const store::StoreStats stats = opened.store->stats();
  if (stats.torn_tail) {
    util::Log::warn("evaluation store '" + path +
                    "' had a torn final record (crash mid-append); dropped");
  }
  if (stats.quarantined > 0) {
    util::Log::warn("evaluation store '" + path + "': quarantined " +
                    std::to_string(stats.quarantined) + " corrupt region(s)");
  }
  util::Log::info("evaluation store '" + path + "': " + std::to_string(stats.live) +
                  " known evaluations" + (opened.store->writable() ? "" : " (read-only)"));
  return std::move(opened.store);
}

EvaluationFleet::EvaluationFleet(ProjectConfig project, BrokerConfig hifi,
                                 BreakerConfig breaker)
    : project_(std::move(project)),
      hifi_config_(std::move(hifi)) {
  if (breaker.enabled && project_.backend != kAnalyticBackend) {
    health_ = std::make_shared<BackendHealthManager>(breaker);
    health_->set_event_sink([this](const HealthEvent& event) {
      util::Log::warn("backend '" + event.backend + "' breaker: " +
                      health_event_kind_name(event.kind) +
                      (event.cause.empty() ? "" : " (" + event.cause + ")"));
      broker_->append_health_event(event);
    });
  }
  broker_ = std::make_unique<EvaluationBroker>(project_, hifi_config_, health_);
}

EvaluationBroker& EvaluationFleet::analytic() {
  util::MutexLock lock(mutex_);
  if (!analytic_) {
    ProjectConfig analytic_project = project_;
    analytic_project.backend = kAnalyticBackend;
    BrokerConfig config;
    config.workers = hifi_config_.workers;
    config.supervise = hifi_config_.supervise;
    config.derived_metrics = hifi_config_.derived_metrics;
    config.store = hifi_config_.store;
    config.store_tier = store::EvalStore::kTierScreen;
    config.campaign_id = hifi_config_.campaign_id;
    analytic_ = std::make_unique<EvaluationBroker>(std::move(analytic_project), config);
  }
  return *analytic_;
}

const EvaluationBroker* EvaluationFleet::built_analytic() const {
  util::MutexLock lock(mutex_);
  return analytic_.get();
}

SessionJournal::Replay EvaluationFleet::replay_journal() {
  SessionJournal::Replay replay = broker_->replay_journal();
  if (health_) health_->restore(replay.health_events);
  return replay;
}

ProbeQueue::ProbeQueue(EvaluationFleet& fleet)
    : broker_(fleet.broker()),
      health_(fleet.health()),
      cap_(health_ ? std::max<std::size_t>(health_->config().probe_budget * 4, 8) : 0) {}

void ProbeQueue::push(const DesignPoint& point) {
  if (health_ == nullptr) return;
  util::MutexLock lock(mutex_);
  if (queue_.size() >= cap_) return;
  if (!seen_.insert(point).second) return;
  queue_.push_back(point);
}

bool ProbeQueue::empty() const {
  util::MutexLock lock(mutex_);
  return queue_.empty();
}

void ProbeQueue::drain(
    const std::function<void(const DesignPoint&, const EvalResult&)>& on_answer) {
  if (health_ == nullptr) return;
  const std::string& backend = broker_.backend_info().name;
  while (health_->probe_wanted(backend)) {
    DesignPoint point;
    {
      util::MutexLock lock(mutex_);
      if (queue_.empty()) return;
      point = std::move(queue_.front());
      queue_.pop_front();
    }
    const EvalResult r = broker_.tool_evaluate(point, /*probe=*/true);
    if (r.fast_failed) {  // cooldown still counting, or the budget is spent
      util::MutexLock lock(mutex_);
      queue_.push_front(std::move(point));
      return;
    }
    on_answer(point, r);
  }
}

}  // namespace dovado::core
