// The `dovado serve` daemon: a multi-tenant evaluation service over one
// shared core::EvaluationFleet (core/fleet.hpp).
//
// Many clients connect over a Unix-domain socket (newline-delimited JSON,
// see protocol.hpp) and submit single-point evaluations or whole campaign
// searches. Every request passes, in order:
//
//   1. admission  — per-tenant request-rate token bucket + post-paid
//                   tool-second quota (admission.hpp). Over-limit requests
//                   are answered `shed` + retry_after_ms by the reader
//                   thread itself; they never allocate queue space.
//   2. scheduling — weighted deficit round-robin over bounded per-tenant
//                   queues (scheduler.hpp). A full queue sheds too:
//                   backpressure is an explicit reply, never an unbounded
//                   buffer.
//   3. dispatch   — a single dispatch thread keeps up to max_inflight
//                   evaluations on the fleet's hi-fi broker, which carries
//                   the cache, single-flight, supervisor retries, breakers,
//                   journal and cross-campaign store for *all* tenants.
//
// A campaign is a core::DseEngine over the shared fleet, whose ask/tell
// loop the dispatch thread alone drives: each DseEngine::take() becomes a
// job that competes in step 2, each answer goes back through complete(),
// and the client gets the engine's front. Hedges from
// every campaign share the fleet's analytic broker (one cache, one
// single-flight, the store's screen tier). Every hi-fi second a campaign
// causes is charged to its tenant. A single eval the breaker fast-fails is
// shed and queued as a recovery probe, which runs after a later completion
// (so single evals alone recover an open breaker) and is charged to that
// completion's tenant.
//
// Durability contract: a response with status ok/failed is only written
// after the broker has journaled (fsync) and store-appended the fresh
// answer, so an acked evaluation survives any crash after the ack.
// Graceful drain (SIGTERM path): stop admitting, shed the queued backlog
// with `draining` replies, let in-flight evaluations finish (journaled as
// usual), flush the store, then exit — zero acked evaluations lost.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dse.hpp"
#include "src/core/fleet.hpp"
#include "src/serve/admission.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/scheduler.hpp"
#include "src/util/socket.hpp"
#include "src/util/sync.hpp"

namespace dovado::serve {

/// A named tenant with a pinned policy (unknown tenants get TenantPolicy{}).
struct ServeTenantConfig {
  std::string name;
  TenantPolicy policy;
};

struct ServeConfig {
  std::string socket_path;
  core::ProjectConfig project;
  /// Hi-fi broker knobs: workers, fault plan, supervisor, journal, store.
  core::BrokerConfig broker;
  /// Circuit breakers on the shared backend (enabled by default).
  core::BreakerConfig breaker;
  std::vector<ServeTenantConfig> tenants;
  /// Evaluations in flight on the broker at once; 0 = one per virtual lane.
  std::size_t max_inflight = 0;
  std::size_t max_connections = 64;
  /// Per-request tool-second deadline applied when a request names none;
  /// 0 = unbounded. Propagated into the supervisor's retry loop.
  double default_deadline_tool_seconds = 0.0;
  /// Injected clock in seconds (monotonic origin); null = steady_clock.
  /// Admission buckets refill on this clock, so tests drive virtual time.
  std::function<double()> clock;
};

struct ServerTenantStats {
  std::string name;
  TenantAdmissionStats admission;
  TenantQueueStats queue;
  std::size_t completed = 0;  ///< ok responses sent
  std::size_t failed = 0;     ///< failed responses sent
};

struct ServerStats {
  std::vector<ServerTenantStats> tenants;
  core::BrokerStats broker;
  std::size_t inflight = 0;
  std::size_t queued = 0;
  std::size_t connections = 0;
  std::size_t requests = 0;            ///< frames parsed into requests
  std::size_t shed = 0;                ///< shed replies sent (all reasons)
  std::size_t campaigns_active = 0;
  std::size_t campaigns_finished = 0;
  bool draining = false;
};

class Server {
 public:
  /// Builds the shared fleet (throws like EvaluationBroker on bad
  /// project/backend/journal), replays its journal into the cache and the
  /// breakers, and sets up admission and scheduling. No threads or sockets yet —
  /// start() does that; execute() works without ever calling start()
  /// (in-process mode for tests and the bench).
  explicit Server(ServeConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and spawn the accept + dispatch threads.
  [[nodiscard]] bool start(std::string& error);

  /// Begin graceful drain (idempotent): stop admitting, shed the queued
  /// backlog, finish in-flight work, flush the store, stop the threads.
  /// Returns immediately; wait() blocks until the drain completes. NOT
  /// async-signal-safe — call from a normal thread, not a signal handler.
  void drain();

  /// Block until a started server has fully drained and stopped.
  void wait();

  [[nodiscard]] bool draining() const;
  [[nodiscard]] ServerStats stats() const;
  /// The stats snapshot as a JSON document (the `stats` op payload).
  [[nodiscard]] std::string stats_json() const;

  /// Synchronous in-process request path: admission -> scheduler ->
  /// broker, all on the caller's thread (the broker still fans evaluations
  /// out when configured with workers). Only valid when start() was never
  /// called, and from one thread at a time — it drives the same code the
  /// dispatch thread runs, so the two must not race.
  [[nodiscard]] Response execute(const Request& request);

  [[nodiscard]] core::EvaluationBroker& broker() { return fleet_->broker(); }
  [[nodiscard]] core::EvaluationFleet& fleet() { return *fleet_; }

 private:
  struct Connection {
    util::LineSocket sock;
    /// Leaf lock: serializes whole response frames onto the socket. Never
    /// held together with mu_ — every delivery path releases mu_ first.
    util::Mutex write_mu{"serve.Connection.write"};
    std::atomic<bool> open{true};

    /// Serialize + frame + send; false (and marks closed) when the peer
    /// is gone.
    bool send(const Response& response);
  };
  using ConnPtr = std::shared_ptr<Connection>;

  struct CampaignState;

  /// One schedulable unit: either a client's single eval or one point a
  /// campaign's engine handed out.
  struct Job {
    std::string tenant;
    std::string id;                       ///< request id (campaign: its id)
    core::DesignPoint point;
    double deadline_tool_seconds = 0.0;
    ConnPtr conn;                         ///< null in execute() mode
    std::shared_ptr<CampaignState> campaign;  ///< null for single evals
    std::size_t ticket = 0;               ///< campaign points: the engine's ticket
  };

  struct Completion {
    Job job;
    core::EvalResult result;
  };

  /// An admitted campaign. The engine is advanced by the dispatch thread
  /// only (execute()'s caller in in-process mode); the other fields are
  /// guarded by mu_.
  struct CampaignState {
    std::string tenant;
    std::string id;
    std::vector<core::Objective> objectives;
    ConnPtr conn;
    std::unique_ptr<core::DseEngine> engine;
    double tool_seconds = 0.0;   ///< hi-fi seconds charged to the tenant
    double side_charged = 0.0;   ///< the engine's side_tool_seconds() charged so far
    bool finished = false;
  };

  void accept_loop();
  void connection_loop(ConnPtr conn);
  void dispatch_loop();

  /// Handle one parsed request from a reader thread (or execute()).
  /// Immediate answers (ping/stats/shed/draining/error) are returned with
  /// `respond=true`; admitted work is queued and answered later by the
  /// dispatcher.
  Response handle_request(const Request& request, const ConnPtr& conn, bool& respond);

  /// Admission + enqueue for one eval/campaign request. Caller holds mu_.
  Response admit_and_enqueue_locked(const Request& request, const ConnPtr& conn,
                                    bool& respond) DOVADO_REQUIRES(mu_);

  /// Launch up to max_inflight queued jobs onto the broker. Caller holds
  /// mu_; may release and re-acquire it around broker submission.
  void pump_locked() DOVADO_REQUIRES(mu_);

  /// Evaluate one dispatched job and park the result in completions_.
  /// Runs with mu_ NOT held (worker thread, or the dispatcher inline when
  /// the broker has no workers).
  void run_job(Job&& job);

  /// Apply one finished evaluation: charges, campaign tell/refill, the
  /// client response, then the single-eval recovery probes. Caller holds
  /// mu_; releases it to write and to probe.
  void finalize_locked(Completion&& completion) DOVADO_REQUIRES(mu_);

  /// Drain probes_ with mu_ released; charge their seconds to `tenant`.
  void run_probes_locked(const std::string& tenant) DOVADO_REQUIRES(mu_);

  /// Finalize queued completions oldest first until none is left. Caller
  /// holds mu_ (finalize_locked may drop it to write).
  void finalize_completions_locked() DOVADO_REQUIRES(mu_);

  /// Queue what the campaign's engine hands out while its tenant's queue
  /// has room, and finish the campaign once the engine is done. Returns true
  /// when a job was queued. Caller holds mu_ (take() makes no broker call
  /// for a serve campaign: no screening, NWM, journal marks or deadline);
  /// finishing releases it meanwhile.
  bool advance_campaign_locked(const std::shared_ptr<CampaignState>& campaign)
      DOVADO_REQUIRES(mu_);

  /// advance_campaign_locked() for every active campaign.
  bool advance_campaigns_locked() DOVADO_REQUIRES(mu_);

  /// Charge the campaign's tenant for the hi-fi seconds its engine spent on
  /// probes and front verification since the last charge. Caller holds mu_.
  void charge_side_locked(CampaignState& campaign) DOVADO_REQUIRES(mu_);

  /// Finish a campaign: the engine's front (re-verified with mu_
  /// released), then the response. Caller holds mu_; it is released
  /// meanwhile.
  void finish_campaign_locked(const std::shared_ptr<CampaignState>& campaign)
      DOVADO_REQUIRES(mu_);

  /// Shed every queued job with a draining/shed reply. Caller holds mu_.
  void shed_queue_locked() DOVADO_REQUIRES(mu_);

  /// Hand a response to its connection (releasing mu_ around the socket
  /// write) or, in execute() mode, park it in local_results_.
  void deliver_locked(const ConnPtr& conn, Response&& response) DOVADO_REQUIRES(mu_);

  /// Park an execute() response under its request id, response.id
  /// (replacing one already parked under that id).
  void park_result_locked(Response&& response) DOVADO_REQUIRES(mu_);

  /// Join reader threads whose connection has closed (called from the
  /// accept loop so a long-lived daemon does not accumulate dead threads).
  void reap_connections();

  [[nodiscard]] double now() const { return clock_(); }

  ServeConfig config_;
  std::function<double()> clock_;
  std::shared_ptr<core::EvaluationFleet> fleet_;
  core::ProbeQueue probes_;  ///< single evals the breaker fast-failed
  std::size_t max_inflight_ = 1;

  /// The server lock: admission, scheduling and campaign state. Ordered
  /// before every broker/store lock (dispatch holds mu_ while touching the
  /// scheduler, but releases it before broker submission) and never held
  /// across a socket write (deliver_locked drops it first).
  mutable util::Mutex mu_{"serve.Server"};
  util::CondVar cv_;
  AdmissionController admission_ DOVADO_GUARDED_BY(mu_);
  DrrScheduler<Job> scheduler_ DOVADO_GUARDED_BY(mu_);
  /// Finished evaluations awaiting finalize: a FIFO from
  /// completions_head_, emptied (capacity kept) once drained, so a
  /// request's round trip does not allocate queue nodes.
  std::vector<Completion> completions_ DOVADO_GUARDED_BY(mu_);
  std::size_t completions_head_ DOVADO_GUARDED_BY(mu_) = 0;
  std::vector<Job> spare_batch_ DOVADO_GUARDED_BY(mu_);  ///< pump_locked's buffer
  std::vector<std::shared_ptr<CampaignState>> campaigns_
      DOVADO_GUARDED_BY(mu_);  ///< active only
  /// A campaign was admitted and waits for the dispatch thread to queue
  /// its first points.
  bool campaign_admitted_ DOVADO_GUARDED_BY(mu_) = false;
  /// execute() responses, found by request id; one per waiting caller.
  std::vector<Response> local_results_ DOVADO_GUARDED_BY(mu_);
  std::size_t inflight_ DOVADO_GUARDED_BY(mu_) = 0;
  std::size_t requests_ DOVADO_GUARDED_BY(mu_) = 0;
  std::size_t shed_ DOVADO_GUARDED_BY(mu_) = 0;
  std::size_t campaigns_finished_ DOVADO_GUARDED_BY(mu_) = 0;
  std::map<std::string, std::size_t> completed_by_tenant_ DOVADO_GUARDED_BY(mu_);
  std::map<std::string, std::size_t> failed_by_tenant_ DOVADO_GUARDED_BY(mu_);
  bool drain_requested_ DOVADO_GUARDED_BY(mu_) = false;
  bool draining_ DOVADO_GUARDED_BY(mu_) = false;
  bool dispatch_done_ DOVADO_GUARDED_BY(mu_) = false;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  util::UnixListener listener_;
  std::thread accept_thread_;
  std::thread dispatch_thread_;

  struct ConnWorker {
    std::thread thread;
    ConnPtr conn;
  };
  /// Guards only the worker-thread roster; independent of mu_ (no code
  /// path holds both).
  mutable util::Mutex conns_mu_{"serve.Server.conns"};
  std::vector<ConnWorker> conn_workers_ DOVADO_GUARDED_BY(conns_mu_);
  std::size_t connections_ DOVADO_GUARDED_BY(conns_mu_) = 0;  ///< currently open
};

}  // namespace dovado::serve
