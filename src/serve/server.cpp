#include "src/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "src/util/json.hpp"
#include "src/util/logging.hpp"
#include "src/util/strings.hpp"

namespace dovado::serve {

namespace {

/// Shed reply for a breaker fast-fail: the breaker's cooldown is measured
/// in *rejected attempts*, not wall time, so a fixed short retry hint keeps
/// attempts and the probes run after them flowing without hammering the daemon.
constexpr std::int64_t kBackendRetryMs = 500;

double steady_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool Server::Connection::send(const Response& response) {
  util::MutexLock lock(write_mu);
  if (!open.load()) return false;
  if (!sock.write_line(serialize_response(response), 5000)) {
    open.store(false);
    return false;
  }
  return true;
}

Server::Server(ServeConfig config)
    : config_(std::move(config)),
      clock_(config_.clock ? config_.clock : steady_now_seconds),
      fleet_(std::make_shared<core::EvaluationFleet>(config_.project, config_.broker,
                                                     config_.breaker)),
      probes_(*fleet_) {
  // A restart serves a previous daemon's journaled answers at zero tool
  // cost, and its breakers start as that daemon left them.
  (void)fleet_->replay_journal();
  max_inflight_ = config_.max_inflight != 0 ? config_.max_inflight
                                            : fleet_->broker().virtual_lane_count();
  max_inflight_ = std::max<std::size_t>(1, max_inflight_);
  const double t0 = now();
  for (const auto& tenant : config_.tenants) {
    admission_.set_policy(tenant.name, tenant.policy, t0);
    scheduler_.set_tenant(tenant.name, tenant.policy.weight,
                          tenant.policy.queue_cap);
  }
}

Server::~Server() {
  if (started_.load()) {
    drain();
    wait();
  }
}

bool Server::start(std::string& error) {
  if (started_.load()) {
    error = "server already started";
    return false;
  }
  if (config_.socket_path.empty()) {
    error = "no socket path configured";
    return false;
  }
  if (!listener_.listen(config_.socket_path, error)) return false;
  started_.store(true);
  dispatch_thread_ = std::thread(&Server::dispatch_loop, this);
  accept_thread_ = std::thread(&Server::accept_loop, this);
  return true;
}

void Server::drain() {
  {
    util::MutexLock lock(mu_);
    drain_requested_ = true;
  }
  cv_.notify_all();
}

void Server::wait() {
  if (!started_.load()) return;
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<ConnWorker> workers;
  {
    util::MutexLock lock(conns_mu_);
    workers.swap(conn_workers_);
  }
  for (auto& worker : workers) {
    if (worker.thread.joinable()) worker.thread.join();
  }
}

bool Server::draining() const {
  util::MutexLock lock(mu_);
  return drain_requested_ || draining_;
}

// ---------------------------------------------------------------------------
// Socket threads
// ---------------------------------------------------------------------------

void Server::accept_loop() {
  while (!stopping_.load()) {
    util::LineSocket sock = listener_.accept(100);
    if (!sock.valid()) {
      // Timeout or transient accept error; re-check stopping_ and retry.
      reap_connections();
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(sock);
    util::MutexLock lock(conns_mu_);
    std::size_t open = 0;
    for (const auto& worker : conn_workers_) {
      if (worker.conn->open.load()) ++open;
    }
    if (open >= config_.max_connections) {
      Response refusal;
      refusal.status = ResponseStatus::kShed;
      refusal.reason = "connection_limit";
      refusal.retry_after_ms = 1000;
      (void)conn->send(refusal);
      continue;  // conn closes when the shared_ptr dies
    }
    conn_workers_.push_back(
        ConnWorker{std::thread(&Server::connection_loop, this, conn), conn});
  }
  listener_.close();
}

void Server::reap_connections() {
  util::MutexLock lock(conns_mu_);
  for (auto it = conn_workers_.begin(); it != conn_workers_.end();) {
    if (!it->conn->open.load() && it->thread.joinable()) {
      it->thread.join();
      it = conn_workers_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::connection_loop(ConnPtr conn) {
  std::string line;
  while (!stopping_.load()) {
    bool timed_out = false;
    if (!conn->sock.read_line(line, 100, &timed_out)) {
      if (timed_out) continue;
      break;  // peer closed or socket error
    }
    if (line.empty()) continue;
    Request request;
    std::string parse_error;
    if (!parse_request(line, request, parse_error)) {
      Response malformed;
      malformed.status = ResponseStatus::kError;
      malformed.error = parse_error;
      if (!conn->send(malformed)) break;
      continue;
    }
    bool respond = false;
    Response response = handle_request(request, conn, respond);
    if (respond && !conn->send(response)) break;
  }
  // Mark closed and shut the socket down, but leave the fd to the
  // Connection's destructor: queued jobs may still hold the ConnPtr, and
  // closing here would let the kernel reuse the fd number under a
  // concurrent dispatcher write. The shutdown wakes a peer that raced a
  // frame against drain and is blocked waiting for a response nobody will
  // ever write — it sees EOF now instead of hanging until Server::wait()
  // destroys the connection.
  conn->open.store(false);
  conn->sock.shutdown();
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

Response Server::handle_request(const Request& request, const ConnPtr& conn,
                                bool& respond) {
  respond = true;
  switch (request.op) {
    case RequestOp::kPing: {
      util::MutexLock lock(mu_);
      ++requests_;
      Response response;
      response.id = request.id;
      response.status = ResponseStatus::kOk;
      return response;
    }
    case RequestOp::kStats: {
      {
        util::MutexLock lock(mu_);
        ++requests_;
      }
      Response response;
      response.id = request.id;
      response.status = ResponseStatus::kOk;
      response.stats_json = stats_json();
      return response;
    }
    case RequestOp::kEval:
    case RequestOp::kCampaign:
      break;
  }
  util::MutexLock lock(mu_);
  ++requests_;
  Response response = admit_and_enqueue_locked(request, conn, respond);
  if (!respond) cv_.notify_all();
  return response;
}

Response Server::admit_and_enqueue_locked(const Request& request,
                                          const ConnPtr& conn, bool& respond) {
  respond = true;
  Response response;
  response.id = request.id;
  if (request.tenant.empty()) {
    response.status = ResponseStatus::kError;
    response.error = "request is missing a tenant";
    return response;
  }
  if (drain_requested_ || draining_) {
    response.status = ResponseStatus::kDraining;
    response.reason = "draining";
    return response;
  }
  const AdmissionDecision decision = admission_.admit(request.tenant, now());
  if (!decision.admitted) {
    ++shed_;
    response.status = ResponseStatus::kShed;
    response.reason = decision.reason;
    response.retry_after_ms = decision.retry_after_ms;
    return response;
  }

  if (request.op == RequestOp::kEval) {
    Job job;
    job.tenant = request.tenant;
    job.id = request.id;
    job.point = request.point;
    job.deadline_tool_seconds = request.deadline_tool_seconds > 0.0
                                    ? request.deadline_tool_seconds
                                    : config_.default_deadline_tool_seconds;
    job.conn = conn;
    if (!scheduler_.push(request.tenant, std::move(job))) {
      ++shed_;
      response.status = ResponseStatus::kShed;
      response.reason = "queue_full";
      // Rough service-time hint: the backlog ahead of this request at the
      // tenant's expected per-job cost. Clamped so clients neither spin nor
      // give up on a briefly saturated daemon.
      const auto queue_stats = scheduler_.stats();
      const auto it = queue_stats.find(request.tenant);
      double eta = 1.0;
      if (it != queue_stats.end()) {
        eta = static_cast<double>(it->second.queued) *
              std::max(1e-3, it->second.expected_cost) /
              std::max<std::size_t>(1, max_inflight_);
      }
      response.retry_after_ms = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(eta * 1000.0), 50, 10000);
      return response;
    }
    respond = false;
    return response;
  }

  // Campaign submission: an engine over the shared fleet, whose constructor
  // checks the space, objectives and searcher name.
  const CampaignSpec& spec = request.campaign;
  if (spec.budget == 0) {
    response.status = ResponseStatus::kError;
    response.error = "campaign budget must be positive";
    return response;
  }
  core::DseConfig dse;
  dse.space = spec.space;
  dse.objectives = spec.objectives;
  dse.ga.population_size = std::max<std::size_t>(2, spec.population);
  dse.ga.seed = spec.seed;
  dse.derived_metrics = config_.broker.derived_metrics;
  dse.steady_state = true;
  dse.optimizer = spec.optimizer;
  dse.steady_state_evaluations = spec.budget;
  dse.max_inflight = std::max<std::size_t>(1, std::min(spec.population, max_inflight_));
  dse.preflight = false;          // the project was parsed once, by the shared fleet
  dse.store_warm_start = false;   // seeded by its searcher, not by other tenants' fronts

  auto campaign = std::make_shared<CampaignState>();
  campaign->tenant = request.tenant;
  campaign->id = request.id;
  campaign->objectives = spec.objectives;
  campaign->conn = conn;
  try {
    campaign->engine =
        std::make_unique<core::DseEngine>(config_.project, std::move(dse), fleet_);
    // The engine asks for a stop before every submission: the drain stops
    // the campaign, and what is in flight finishes and is told.
    campaign->engine->start_campaign([this] {
      mu_.assert_held();
      return draining_;
    });
  } catch (const std::exception& e) {
    response.status = ResponseStatus::kError;
    response.error = e.what();
    return response;
  }
  campaigns_.push_back(std::move(campaign));
  campaign_admitted_ = true;
  respond = false;
  return response;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void Server::dispatch_loop() {
  util::MutexLock lock(mu_);
  for (;;) {
    // Once draining, only a completion (or the last one landing) wakes the
    // loop: the worker that finishes an evaluation needs mu_ to publish it.
    while (!(!completions_.empty() || (drain_requested_ && !draining_) ||
             (draining_ && inflight_ == 0) ||
             (!draining_ && (campaign_admitted_ ||
                             (inflight_ < max_inflight_ && !scheduler_.empty()))))) {
      cv_.wait(mu_);
    }
    if (drain_requested_ && !draining_) {
      draining_ = true;
      util::Log::info(util::format(
          "serve: draining -- admissions stopped, %zu queued shed, "
          "%zu evaluations finishing",
          scheduler_.queued(), inflight_));
      shed_queue_locked();
    }
    finalize_completions_locked();
    if (draining_) {
      if (inflight_ == 0 && completions_.empty()) break;
      continue;
    }
    pump_locked();
  }
  dispatch_done_ = true;
  lock.unlock();
  if (store::EvalStore* store = fleet_->store()) {
    std::string flush_error;
    if (!store->flush(&flush_error)) {
      util::Log::warn("serve: store flush during drain failed: " + flush_error);
    }
  }
  stopping_.store(true);
  cv_.notify_all();
}

void Server::pump_locked() {
  if (draining_) return;
  // Campaign points enter the scheduling round next to the evals.
  advance_campaigns_locked();
  // Reuse the last batch's buffer; a concurrent pump (mu_ is dropped
  // below) starts an empty one of its own.
  std::vector<Job> batch = std::move(spare_batch_);
  spare_batch_.clear();
  while (inflight_ < max_inflight_) {
    auto next = scheduler_.pop();
    if (!next) {
      // A pop may have made room in a queue a campaign was waiting on.
      if (campaigns_.empty() || !advance_campaigns_locked()) break;
      continue;
    }
    ++inflight_;
    batch.push_back(std::move(next->second));
  }
  if (batch.empty()) return;
  // Submit outside the lock: with workers == 0 the broker evaluates
  // *inline* on this thread, and the evaluation must not hold up readers.
  // The inline case calls run_job directly — going through async() would
  // run it on this thread anyway, after paying for a future and two
  // std::function wrappers per job.
  const bool inline_eval = config_.broker.workers == 0;
  mu_.unlock();
  for (Job& job : batch) {
    if (inline_eval) {
      run_job(std::move(job));
    } else {
      fleet_->broker().async([this, job = std::move(job)]() mutable { run_job(std::move(job)); });
    }
  }
  batch.clear();
  mu_.lock();
  if (batch.capacity() > spare_batch_.capacity()) spare_batch_ = std::move(batch);
}

void Server::run_job(Job&& job) {
  // Every job must come back as a completion, or inflight_ never drops and
  // a drain never ends: an evaluation that throws (say, a derived-metric
  // compute) is answered as a failed evaluation.
  core::EvalResult result;
  try {
    result = fleet_->broker().tool_evaluate(job.point, false, job.deadline_tool_seconds);
  } catch (const std::exception& e) {
    result.error = std::string("evaluation raised an exception: ") + e.what();
  } catch (...) {
    result.error = "evaluation raised a non-standard exception";
  }
  util::MutexLock inner(mu_);
  completions_.emplace_back(std::move(job), std::move(result));
  cv_.notify_all();
}

void Server::finalize_completions_locked() {
  while (completions_head_ < completions_.size()) {
    Completion completion = std::move(completions_[completions_head_++]);
    if (completions_head_ == completions_.size()) {
      completions_.clear();
      completions_head_ = 0;
    }
    finalize_locked(std::move(completion));
  }
}

void Server::finalize_locked(Completion&& completion) {
  Job& job = completion.job;
  core::EvalResult& result = completion.result;
  --inflight_;
  const double charged = result.tool_seconds;
  // A free answer (cache hit, join, store hit, fast-fail) leaves the quota
  // bucket as it is, so it skips the bucket and its clock read.
  if (charged > 0.0) admission_.charge_tool_seconds(job.tenant, charged, now());
  scheduler_.charge(job.tenant, charged);

  if (job.campaign) {
    // The engine scores the answer like its own campaign (hedge and probes
    // included), outside mu_: those are broker calls.
    const std::shared_ptr<CampaignState> campaign = std::move(job.campaign);
    campaign->tool_seconds += charged;
    mu_.unlock();
    campaign->engine->complete(job.ticket, std::move(result));
    mu_.lock();
    charge_side_locked(*campaign);
    advance_campaign_locked(campaign);
    run_probes_locked(job.tenant);
    return;
  }

  // Single eval: translate the broker result into a wire response.
  Response response;
  response.id = job.id;
  if (result.fast_failed) {
    probes_.push(job.point);
    ++shed_;
    response.status = ResponseStatus::kShed;
    response.reason = "backend_unavailable";
    response.retry_after_ms = kBackendRetryMs;
  } else if (result.ok) {
    ++completed_by_tenant_[job.tenant];
    response.status = ResponseStatus::kOk;
    response.metrics = std::move(result.metrics.values);
    response.tool_seconds = result.tool_seconds;
    response.cache_hit = result.cache_hit || result.joined;
    response.store_hit = result.store_hit;
    response.attempts = result.attempts;
  } else {
    ++failed_by_tenant_[job.tenant];
    response.status = ResponseStatus::kFailed;
    response.error = result.error;
    response.tool_seconds = result.tool_seconds;
    response.attempts = result.attempts;
    if (result.deadline_truncated) response.reason = "deadline";
  }
  deliver_locked(job.conn, std::move(response));
  run_probes_locked(job.tenant);
}

void Server::run_probes_locked(const std::string& tenant) {
  if (probes_.empty()) return;
  double spent = 0.0;
  mu_.unlock();
  // The answers feed only the breaker and the cache.
  probes_.drain([&spent](const core::DesignPoint&, const core::EvalResult& r) {
    spent += r.tool_seconds;
  });
  mu_.lock();
  if (spent > 0.0) admission_.charge_tool_seconds(tenant, spent, now());
}

bool Server::advance_campaigns_locked() {
  campaign_admitted_ = false;
  bool queued = false;
  // A copy: finishing a campaign removes it from campaigns_.
  const std::vector<std::shared_ptr<CampaignState>> active = campaigns_;
  for (const auto& campaign : active) queued = advance_campaign_locked(campaign) || queued;
  return queued;
}

bool Server::advance_campaign_locked(const std::shared_ptr<CampaignState>& campaign) {
  bool queued = false;
  // Take only what the tenant's queue can hold: an ask stays in the engine
  // until it can be queued, so none is lost to a full queue.
  while (!campaign->finished && !scheduler_.full(campaign->tenant)) {
    std::optional<core::DseEngine::Dispatch> next = campaign->engine->take();
    if (!next) break;
    Job job;
    job.tenant = campaign->tenant;
    job.id = campaign->id;
    job.point = std::move(next->point);
    job.deadline_tool_seconds = config_.default_deadline_tool_seconds;
    job.conn = campaign->conn;
    job.campaign = campaign;
    job.ticket = next->ticket;
    (void)scheduler_.push(campaign->tenant, std::move(job));  // room checked above
    queued = true;
  }
  if (!campaign->finished && campaign->engine->done()) finish_campaign_locked(campaign);
  return queued;
}

void Server::charge_side_locked(CampaignState& campaign) {
  const double spent = campaign.engine->side_tool_seconds() - campaign.side_charged;
  if (spent <= 0.0) return;
  campaign.side_charged += spent;
  campaign.tool_seconds += spent;
  admission_.charge_tool_seconds(campaign.tenant, spent, now());
}

void Server::finish_campaign_locked(const std::shared_ptr<CampaignState>& campaign) {
  campaign->finished = true;
  campaigns_.erase(std::remove(campaigns_.begin(), campaigns_.end(), campaign),
                   campaigns_.end());
  // The front re-verifies hedged members on the tool: broker calls.
  mu_.unlock();
  const core::DseResult result = campaign->engine->finish_campaign();
  mu_.lock();
  charge_side_locked(*campaign);
  ++campaigns_finished_;
  ++completed_by_tenant_[campaign->tenant];

  Response response;
  response.status = ResponseStatus::kOk;
  response.id = campaign->id;
  response.evaluations = result.stats.steady_completions;
  response.tool_seconds = campaign->tool_seconds;
  for (const core::ExploredPoint& member : result.pareto) {
    FrontEntry entry;
    entry.point = member.params;
    for (const core::Objective& objective : campaign->objectives) {
      entry.objectives[objective.metric] = member.metrics.get(objective.metric);
    }
    response.front.push_back(std::move(entry));
  }
  deliver_locked(campaign->conn, std::move(response));
}

void Server::shed_queue_locked() {
  std::vector<std::pair<std::string, Job>> drained = scheduler_.drain_all();
  std::vector<std::pair<ConnPtr, Response>> replies;
  for (auto& [ignored, job] : drained) {
    // A drained job was never dispatched, so it holds no inflight
    // expectation and is not charged: charging it would pop the
    // expectation of a job still running and pay it back twice.
    if (job.campaign) {
      // Never ran: dropped from its campaign untold (no broker call).
      job.campaign->engine->complete(job.ticket, std::nullopt);
      continue;
    }
    Response response;
    response.id = job.id;
    response.status = ResponseStatus::kDraining;
    response.reason = "draining";
    if (job.conn) {
      replies.emplace_back(job.conn, std::move(response));
    } else {
      park_result_locked(std::move(response));
    }
  }
  // Every campaign stops submitting now; one with nothing running finishes
  // with its partial front, the others once their running points are told.
  advance_campaigns_locked();
  if (replies.empty()) return;
  mu_.unlock();
  for (auto& [conn, response] : replies) (void)conn->send(response);
  mu_.lock();
}

void Server::deliver_locked(const ConnPtr& conn, Response&& response) {
  if (!conn) {
    park_result_locked(std::move(response));
    cv_.notify_all();
    return;
  }
  mu_.unlock();
  (void)conn->send(response);
  mu_.lock();
}

void Server::park_result_locked(Response&& response) {
  for (Response& parked : local_results_) {
    if (parked.id == response.id) {
      parked = std::move(response);
      return;
    }
  }
  local_results_.push_back(std::move(response));
}

// ---------------------------------------------------------------------------
// In-process mode
// ---------------------------------------------------------------------------

Response Server::execute(const Request& request) {
  bool respond = false;
  Response response = handle_request(request, nullptr, respond);
  if (respond) return response;

  util::MutexLock lock(mu_);
  for (;;) {
    const auto it = std::find_if(local_results_.begin(), local_results_.end(),
                                 [&](const Response& parked) { return parked.id == request.id; });
    if (it != local_results_.end()) {
      Response done = std::move(*it);
      local_results_.erase(it);
      return done;
    }
    if (completions_.empty() && scheduler_.empty() && inflight_ == 0 &&
        campaigns_.empty()) {
      Response lost;
      lost.status = ResponseStatus::kError;
      lost.id = request.id;
      lost.error = "request produced no result";
      return lost;
    }
    pump_locked();
    if (completions_.empty() && inflight_ > 0) {
      while (completions_.empty()) cv_.wait(mu_);
    }
    finalize_completions_locked();
  }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

ServerStats Server::stats() const {
  ServerStats out;
  {
    util::MutexLock lock(mu_);
    const auto admission = admission_.stats();
    const auto queues = scheduler_.stats();
    std::vector<std::string> names;
    for (const auto& [name, ignored] : admission) names.push_back(name);
    for (const auto& [name, ignored] : queues) {
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
    std::sort(names.begin(), names.end());
    for (const auto& name : names) {
      ServerTenantStats tenant;
      tenant.name = name;
      const auto admission_it = admission.find(name);
      if (admission_it != admission.end()) tenant.admission = admission_it->second;
      const auto queue_it = queues.find(name);
      if (queue_it != queues.end()) tenant.queue = queue_it->second;
      const auto completed_it = completed_by_tenant_.find(name);
      if (completed_it != completed_by_tenant_.end()) {
        tenant.completed = completed_it->second;
      }
      const auto failed_it = failed_by_tenant_.find(name);
      if (failed_it != failed_by_tenant_.end()) tenant.failed = failed_it->second;
      out.tenants.push_back(std::move(tenant));
    }
    out.inflight = inflight_;
    out.queued = scheduler_.queued();
    out.requests = requests_;
    out.shed = shed_;
    out.campaigns_active = campaigns_.size();
    out.campaigns_finished = campaigns_finished_;
    out.draining = drain_requested_ || draining_;
  }
  out.broker = fleet_->broker().stats();
  {
    util::MutexLock lock(conns_mu_);
    for (const auto& worker : conn_workers_) {
      if (worker.conn->open.load()) ++out.connections;
    }
  }
  return out;
}

std::string Server::stats_json() const {
  const ServerStats snapshot = stats();
  util::JsonObject root;
  root["inflight"] = snapshot.inflight;
  root["queued"] = snapshot.queued;
  root["connections"] = snapshot.connections;
  root["requests"] = snapshot.requests;
  root["shed"] = snapshot.shed;
  root["campaigns_active"] = snapshot.campaigns_active;
  root["campaigns_finished"] = snapshot.campaigns_finished;
  root["draining"] = snapshot.draining;

  util::JsonObject broker;
  broker["fresh_runs"] = snapshot.broker.fresh_runs;
  broker["tool_seconds"] = snapshot.broker.tool_seconds;
  broker["store_hits"] = snapshot.broker.store_hits;
  broker["store_appends"] = snapshot.broker.store_appends;
  broker["virtual_lanes"] = snapshot.broker.virtual_lanes;
  broker["busy_tool_seconds"] = snapshot.broker.busy_tool_seconds;
  root["broker"] = std::move(broker);

  util::JsonArray tenants;
  for (const auto& tenant : snapshot.tenants) {
    util::JsonObject entry;
    entry["name"] = tenant.name;
    entry["weight"] = tenant.queue.weight;
    entry["queued"] = tenant.queue.queued;
    entry["dispatched"] = tenant.queue.dispatched;
    entry["completed"] = tenant.completed;
    entry["failed"] = tenant.failed;
    entry["admitted"] = tenant.admission.admitted;
    entry["shed_request_rate"] = tenant.admission.shed_request_rate;
    entry["shed_tool_quota"] = tenant.admission.shed_tool_quota;
    entry["shed_queue_full"] = tenant.queue.shed_queue_full;
    entry["tool_seconds"] = tenant.admission.tool_seconds_charged;
    entry["expected_cost"] = tenant.queue.expected_cost;
    entry["deficit"] = tenant.queue.deficit;
    tenants.push_back(std::move(entry));
  }
  root["tenants"] = std::move(tenants);
  return util::Json(std::move(root)).dump();
}

}  // namespace dovado::serve
