// The Dovado DSE engine (paper Sec. III-B / III-C, Figs. 1-2).
//
// Wires together the design space, the evaluation broker(s), the NSGA-II
// solver and (optionally) the Nadaraya-Watson approximation control model:
//   1. optional pre-training: M distinct tool runs on randomly sampled
//      points build the synthetic dataset,
//   2. NSGA-II explores index space; each fitness evaluation goes through
//      the control model (cached tool run / estimate / tool run + dataset
//      growth) or straight to the tool when approximation is disabled,
//   3. the non-dominated set of explored configurations is returned (with
//      estimated front members re-evaluated by the tool for exactness).
//
// The evaluation machinery — store, brokers, breakers and journal replay —
// is an EvaluationFleet (core/fleet.hpp): the engine builds one from its
// config, or a serve daemon's engines share the daemon's; the engine owns
// the search logic. The fleet's analytic-tier broker serves both
// low-fidelity uses: with multi-fidelity screening enabled
// (screen_keep_ratio < 1) it pre-ranks each block of proposals (a GA
// generation, or a population of steady-state asks) and only the most
// promising fraction pays for a high-fidelity run, the rest being recorded
// as estimated; and while the hi-fi breaker is open it hedges fast-failed
// points.
//
// Tool time is *simulated* (the SimVivado runtime model), so the paper's
// four-hour soft deadline semantics are reproduced without wall-clock cost.
// An engine runs one campaign, through one ask/tell loop: take() hands out
// the next point to dispatch, complete() tells its answer, done() says when
// the campaign is over (core/campaign.cpp). run() drives the loop on the
// thread pool's lanes, up to max_inflight evaluations at once, one tool
// session per lane — the same shape as running parallel Vivado processes;
// the serve daemon drives it between start_campaign() and
// finish_campaign().
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "src/core/broker.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/fleet.hpp"
#include "src/core/param_domain.hpp"
#include "src/core/supervisor.hpp"
#include "src/edatool/faults.hpp"
#include "src/model/control.hpp"
#include "src/opt/baselines.hpp"
#include "src/opt/nsga2.hpp"
#include "src/opt/optimizer_base.hpp"
#include "src/util/sync.hpp"

namespace dovado::core {

/// One optimization objective: a metric name from EvalMetrics plus the
/// direction. Internally everything is minimized (maximize => negate).
struct Objective {
  std::string metric;
  bool maximize = false;
};

/// One explored configuration.
struct ExploredPoint {
  DesignPoint params;
  EvalMetrics metrics;
  bool estimated = false;    ///< metrics came from the NWM or the screening backend
  bool failed = false;       ///< tool run failed (e.g. over-utilization)
  bool approximate = false;  ///< NWM fallback score for a retry-exhausted point
};

struct DseConfig {
  DesignSpace space;
  std::vector<Objective> objectives;

  /// Genetic-algorithm settings (population, generations, operators, seed).
  opt::Nsga2Config ga;

  /// Custom static performance models, computed once per successful tool
  /// run, before its answer is cached (see DerivedMetric in
  /// core/evaluator.hpp).
  std::vector<DerivedMetric> derived_metrics;

  /// Evaluation backend override; empty uses the project's backend.
  std::string backend;

  /// Multi-fidelity screening on the analytic tier. 1.0 (default) disables
  /// screening; must be in (0, 1]. The campaign loop ranks a block of screen
  /// answers (a GA generation, or a population of steady-state asks) by
  /// non-dominated sorting and boundary crowding, and forward the best
  /// ceil(ratio x block) first-seen points; e.g. 0.5 halves the hi-fi runs.
  /// Points with a hi-fi answer are not screened, a screen-out settles from
  /// its cached screen answer ever after, and screen failures forward.
  double screen_keep_ratio = 1.0;

  /// Fitness-approximation model (Sec. III-C). Disabled by default — the
  /// Corundum/Neorv32/TiReX studies run direct Vivado evaluations. With it
  /// on, estimated members of the final front are re-evaluated by the tool,
  /// and a point that exhausts its retries (quarantine) is scored with an
  /// NWM estimate flagged `approximate=true` instead of the failure penalty
  /// once the dataset holds 5 samples.
  bool use_approximation = false;
  model::ControlModel::Config control;
  std::size_t pretrain_samples = 100;  ///< M, the synthetic-dataset size

  /// Soft deadline on cumulative *simulated* high-fidelity tool seconds.
  /// Infinity = unconstrained. Screening runs are not charged against it.
  /// The campaign loop checks it before every submission: once it passes,
  /// the loop stops submitting, drains the evaluations already in flight,
  /// and counts the forwarded points it never submitted in deadline_skips.
  /// Pre-training and evaluate_set check it before every point.
  double deadline_tool_seconds = std::numeric_limits<double>::infinity();

  /// Worker threads for parallel tool runs (0 = evaluate inline).
  std::size_t workers = 0;

  /// Searcher choice (see DESIGN.md "Steady-state engine"). false: the
  /// paper's generational NSGA-II (opt::GenerationalNsga2), which proposes
  /// one generation at a time and waits at a lane barrier until it is
  /// fully told. true: the steady-state searcher named by `optimizer`,
  /// which never waits, so survival happens per completion. Both run
  /// through the same submit/complete loop; hedging and probe scheduling
  /// happen per completion either way.
  bool steady_state = false;

  /// Searcher of a steady-state campaign, resolved through
  /// opt::OptimizerRegistry (see DESIGN.md "Optimizer portfolio & algorithm
  /// selection"): "nsga2" (default), "random", "local", "surrogate",
  /// "exhaustive", or "portfolio" (a UCB bandit over several members).
  /// Anything other than "nsga2" requires steady_state — the generational
  /// searcher is NSGA-II. Unknown names throw at construction with a
  /// did-you-mean suggestion.
  std::string optimizer = "nsga2";

  /// Member searchers of the "portfolio" optimizer, in bandit order. Empty
  /// = the default set (nsga2, random, local, surrogate). Only valid with
  /// optimizer == "portfolio"; members must be distinct non-portfolio
  /// registry names.
  std::vector<std::string> portfolio_members;

  /// Bound on concurrently submitted (inflight) high-fidelity evaluations
  /// of the campaign loop, for either searcher. 0 = one per virtual
  /// evaluator lane for a steady searcher; for the generational one, whose
  /// generation is asked whole, the whole generation, or two per lane when
  /// deadline_tool_seconds is finite.
  std::size_t max_inflight = 0;

  /// Evaluation budget of a steady-state campaign (completions, counting
  /// estimates and screen settles). 0 = population * (generations + 1),
  /// what the generational searcher asks at the same ga settings. Ignored
  /// when steady_state is off: the generational searcher ends the run
  /// itself.
  std::size_t steady_state_evaluations = 0;

  /// Virtual evaluator lanes for utilization accounting and steady-state
  /// completion ordering (see BrokerConfig::virtual_lanes). 0 = match the
  /// real lane count (workers + 1, or 1 inline).
  std::size_t virtual_lanes = 0;

  /// Warm start: tool-backed points from a previous session (see
  /// core/session.hpp). They pre-populate the evaluation cache — and, when
  /// approximation is on, the synthetic dataset — so resumed explorations
  /// never repay for known configurations. Estimated points are ignored.
  std::vector<ExploredPoint> warm_start;

  /// Retry/quarantine policy applied to every tool evaluation (see
  /// core/supervisor.hpp). Always active; on a fault-free tool the policy
  /// is pure bookkeeping (the clean path takes a single attempt).
  SupervisorConfig supervise;

  /// Fault injection for the simulated tool (tests, robustness drills —
  /// see edatool/faults.hpp). Inactive by default.
  edatool::FaultPlan fault_plan;

  /// Crash-safety journal (see core/journal.hpp). Empty = no journal.
  std::string journal_path;

  /// Replay an existing journal at `journal_path` into the evaluation
  /// cache before exploring (crash recovery). When false, an existing
  /// journal file is discarded and written fresh.
  bool resume_from_journal = false;

  /// Durable cross-campaign evaluation store (see src/store/ and DESIGN.md
  /// "Evaluation store & warm start"). Empty = disabled. The engine opens
  /// it as the single writer (falling back to a read-only snapshot, with a
  /// warning, when another live campaign holds the writer lock), consults
  /// it before every dispatch, seeds the initial population from prior
  /// fronts, and appends every completed evaluation.
  std::string store_path;

  /// Campaign id stamped on store records appended by this run
  /// (provenance; empty is fine).
  std::string campaign_id;

  /// Seed the NSGA-II / steady-state initial population from the store's
  /// prior non-dominated front (points that encode into the current space
  /// with all objective metrics present). Disable for A/B cold starts.
  bool store_warm_start = true;

  /// Backend health management (see core/health/ and DESIGN.md
  /// "Availability & degradation ladder"): a per-backend circuit breaker
  /// fast-fails evaluations on a persistently sick backend, new points are
  /// hedged on the analytic tier (flagged `approximate=true`; the final
  /// front's hedged members are re-verified on the tool) and a bounded
  /// probe queue re-tries representative points until the backend recovers.
  /// Disabled automatically when the high-fidelity backend *is* the
  /// analytic backend (there is nothing to degrade to).
  BreakerConfig breaker;

  /// Mandatory pre-flight static analysis (see src/analysis/ and DESIGN.md
  /// "Static verification layer"): run() lints the project and this
  /// configuration before the first broker call and throws
  /// std::runtime_error (with the rendered report) on any error-severity
  /// diagnostic, so no tool seconds are paid for a doomed campaign.
  /// Disable only to reproduce pre-lint behavior (CLI: --no-preflight).
  bool preflight = true;
};

struct DseStats {
  std::size_t ga_evaluations = 0;    ///< fitness evaluations requested
  std::size_t tool_runs = 0;         ///< actual (simulated) tool invocations
  std::size_t estimates = 0;         ///< answered by the NWM
  std::size_t cache_hits = 0;        ///< answered by the evaluation cache
  std::size_t failures = 0;
  std::size_t pretrain_runs = 0;
  double simulated_tool_seconds = 0.0;
  bool deadline_hit = false;
  std::size_t generations = 0;
  double preflight_ms = 0.0;         ///< wall-clock spent in the pre-flight lint

  // Concurrency counters (see DESIGN.md "Concurrency model").
  std::size_t single_flight_joins = 0;  ///< shared another task's identical run
  std::size_t lease_waits = 0;          ///< acquire() calls that blocked for an evaluator
  std::size_t deadline_skips = 0;       ///< forwarded points the deadline kept from the tool

  // Multi-fidelity screening counters (see DESIGN.md "Backend abstraction
  // & multi-fidelity screening").
  std::size_t screened_out = 0;         ///< distinct points settled by the screening backend
  /// Fresh runs and simulated seconds of the analytic-tier broker; 0
  /// unless screening is on (hedges alone show only in backend_runs).
  std::size_t screen_runs = 0;
  double screen_tool_seconds = 0.0;
  /// Fresh pipeline runs per backend name (e.g. "vivado-sim", "analytic").
  std::map<std::string, std::size_t> backend_runs;

  // Robustness counters (see DESIGN.md "Failure model & recovery").
  std::size_t retries = 0;                 ///< extra tool attempts after failures
  std::size_t transient_failures = 0;      ///< attempts classified transient
  std::size_t deterministic_failures = 0;  ///< attempts classified deterministic
  std::size_t timeouts = 0;                ///< attempts over the per-attempt budget
  std::size_t quarantined = 0;             ///< points that exhausted their retries
  std::size_t approx_fallbacks = 0;        ///< quarantined points scored by the NWM
  std::size_t journal_replays = 0;         ///< points recovered from the journal
  std::size_t journal_skipped_records = 0; ///< unknown-kind journal records skipped on replay
  std::size_t faults_injected = 0;         ///< injected tool faults (fault plans only)
  double backoff_tool_seconds = 0.0;       ///< simulated seconds spent backing off

  // Cross-campaign evaluation store counters (see src/store/ and DESIGN.md
  // "Evaluation store & warm start").
  std::size_t store_hits = 0;        ///< dispatches answered from the store (zero tool seconds)
  std::size_t store_appends = 0;     ///< fresh answers persisted to the store
  std::size_t store_seeded_points = 0;       ///< initial-population members from prior fronts
  std::size_t store_quarantined_records = 0; ///< corrupt store records skipped at open

  // Campaign loop counters (see DESIGN.md "Steady-state engine").
  std::size_t steady_completions = 0;  ///< completions processed by the campaign loop
  std::size_t inflight_replayed = 0;   ///< journaled inflight points re-submitted on resume
  /// Virtual-lane utilization of the high-fidelity evaluator fleet:
  /// busy evaluator-seconds / (virtual makespan * lanes). The generational
  /// searcher barriers every generation (idle lanes wait for the slowest
  /// run); a steady-state searcher keeps lanes busy continuously.
  double tool_seconds_utilization = 0.0;
  double busy_tool_seconds = 0.0;        ///< lane-occupying run seconds
  double virtual_makespan_seconds = 0.0; ///< when the last virtual lane goes idle
  std::size_t virtual_lanes = 0;

  // Optimizer attribution (see DESIGN.md "Optimizer portfolio & algorithm
  // selection"). Empty before run().
  std::string optimizer_name;  ///< name of the searcher that ran
  /// Per-member ask/tell/hypervolume-gain accounting; one entry for single
  /// searchers, one per member (with bandit selection weights) for the
  /// portfolio.
  std::vector<opt::MemberStats> optimizer_members;

  // Availability counters (see DESIGN.md "Availability & degradation
  // ladder").
  std::size_t breaker_trips = 0;       ///< circuit-breaker open transitions
  std::size_t breaker_recoveries = 0;  ///< breakers closed again after probes
  std::size_t breaker_fast_fails = 0;  ///< evaluations rejected in O(1) while open
  std::size_t probe_runs = 0;          ///< recovery probes sent to the sick backend
  std::size_t degraded_evals = 0;      ///< points hedged on the analytic tier
  std::size_t reverified_points = 0;   ///< hedged front members re-verified hi-fi
};

struct DseResult {
  std::vector<ExploredPoint> pareto;    ///< the non-dominated set
  std::vector<ExploredPoint> explored;  ///< every configuration touched
  DseStats stats;
};

class DseEngine {
 public:
  /// Throws std::runtime_error when the project cannot be parsed, the
  /// design space is empty, a backend name is unknown, or an objective
  /// metric is not reported by the backend (the message suggests the
  /// closest known name).
  DseEngine(ProjectConfig project, DseConfig config);

  /// An engine over a fleet someone else built and replayed (the serve
  /// daemon's); null builds one from the config, as above. With a shared
  /// fleet the config's store and journal paths must be empty, and the
  /// surrogate sampler gets no NWM hook. stats() reports the shared
  /// brokers' and breakers' counters, which cover all their users.
  DseEngine(ProjectConfig project, DseConfig config, std::shared_ptr<EvaluationFleet> fleet);

  /// Run the full exploration. `stop_requested`, when set, is polled
  /// before every submission like the tool deadline (e.g. the CLI's
  /// SIGINT handler): once it returns true the campaign stops submitting,
  /// drains what is in flight and returns the front found so far.
  [[nodiscard]] DseResult run(const std::function<bool()>& stop_requested = {});

  /// A point to evaluate on the high-fidelity tier; its answer comes back
  /// through complete(ticket, ...). Tickets count submissions.
  struct Dispatch {
    std::size_t ticket = 0;
    DesignPoint point;
  };

  /// run() in steps for an outside driver: the pre-flight gate,
  /// pre-training and the searcher, then the loop (dispatch what take()
  /// hands out, complete() each answer, stop once done()), then
  /// finish_campaign(). One campaign per engine: a second start_campaign()
  /// or run() throws std::logic_error. The loop calls are the driver's
  /// alone, one at a time.
  void start_campaign(std::function<bool()> stop_requested = {});

  /// The next point to dispatch, or std::nullopt when none can go now (the
  /// in-flight bound, a waiting searcher, a spent budget or a stop). Asks
  /// a block through the ladder when the queue is empty, and tells the
  /// answers the ladder gave. Checks the stop request, and the tool
  /// deadline when there is one, before every submission.
  [[nodiscard]] std::optional<Dispatch> take();

  /// The answer for a dispatched point, or std::nullopt when it was
  /// dropped without running (nothing is told). Scored through settle(),
  /// hedged on the analytic tier when it fast-failed, then told, then the
  /// breaker's recovery probes run. In order, an early answer waits for
  /// the ones before it (take() tells those that fall due).
  void complete(std::size_t ticket, std::optional<EvalResult> result);

  /// True when nothing is outstanding and the budget is spent, the
  /// searcher waits with nothing in flight, or submission stopped.
  [[nodiscard]] bool done() const;

  /// The non-dominated set of everything explored, estimated and hedged
  /// members re-verified on the tool (even past the deadline), and stats.
  [[nodiscard]] DseResult finish_campaign();

  /// Hi-fi tool seconds the engine spent itself, besides the dispatched
  /// points: recovery probes and front verification.
  [[nodiscard]] double side_tool_seconds() const;

  /// Design-automation mode: evaluate an explicit set of configurations
  /// (the paper's "exact exploration of a given set of parameters") in one
  /// fan-out over the lanes. Points whose turn comes after the tool
  /// deadline passed are returned as failed (and not recorded as explored).
  [[nodiscard]] std::vector<ExploredPoint> evaluate_set(
      const std::vector<DesignPoint>& points);

  /// Consistent snapshot of the statistics (engine counters merged with
  /// the brokers'). Safe to call concurrently with in-flight evaluations.
  [[nodiscard]] DseStats stats() const;

  /// The control model after run() — exposes dataset/threshold/stats for
  /// analysis benches. Null when approximation is disabled.
  [[nodiscard]] const model::ControlModel* control_model() const { return control_.get(); }

  /// The store, brokers and breakers this engine evaluates on.
  [[nodiscard]] const EvaluationFleet& fleet() const { return *fleet_; }

  /// Objective vector (minimized) from metrics; +inf on failures.
  [[nodiscard]] opt::Objectives to_objectives(const EvalMetrics& metrics) const;

 private:
  /// Raw-parameter-space coordinates of a point (Eq. 4's decision vars).
  [[nodiscard]] model::Point to_model_point(const DesignPoint& point) const;

  /// Screen `unique_points` on the analytic tier: per point, the
  /// screening answer that settles it, or std::nullopt to forward it to
  /// high fidelity (screen failures too: the tool has the authoritative
  /// verdict on whether a point is buildable).
  [[nodiscard]] std::vector<std::optional<EvalResult>> screen_batch(
      const std::vector<DesignPoint>& unique_points);

  /// Where ladder() sent one point of a block: estimated, screened out, or
  /// (neither) forwarded to high fidelity for the caller to dispatch.
  struct Rung {
    std::optional<opt::Objectives> estimate;  ///< the NWM answer
    std::optional<EvalResult> screen;         ///< the screen answer that settles it
    [[nodiscard]] bool forwarded() const { return !estimate && !screen; }
  };

  /// The one screening rule: try_estimate each point of the block, then
  /// screen_batch its distinct rest unless the deadline passed.
  std::vector<Rung> ladder(const std::vector<DesignPoint>& block);

  /// Tool-evaluate `points` in one fan-out over the lanes, checking the
  /// deadline before each point: a point whose turn comes after it passed
  /// is not dispatched (std::nullopt) and the deadline is marked hit. The
  /// lanes meet at a barrier afterwards.
  std::vector<std::optional<EvalResult>> evaluate_points(
      const std::vector<DesignPoint>& points);

  /// The pre-flight gate: static lint of project + config before the first
  /// broker call (throws on error-severity diagnostics). No-op when
  /// config_.preflight is false.
  void run_preflight();

  void pretrain();

  /// run()'s driver: pool runners and the calling thread evaluate what
  /// take() hands out; answers go back oldest first (in order) or earliest
  /// virtual finish first. An evaluation's exception is rethrown once no
  /// runner is left.
  void run_campaign();

  /// One asked point of the campaign, from its ask until it is told.
  struct Slot {
    opt::Genome genome;
    DesignPoint point;
    Rung rung{};
    std::optional<EvalResult> result{};  ///< the broker answer, once delivered
    bool answered = false;  ///< ready to tell: a ladder answer, a broker answer or a drop
  };

  /// Ask up to `n` proposals (fewer when the searcher starts waiting) and
  /// run them through the ladder.
  void ask_block(std::size_t n);

  /// Stop submitting: queued forwarded points never reach the tool.
  void stop(bool deadline);

  /// Tell a pending slot and release its in-flight place.
  void resolve(std::map<std::size_t, Slot>::iterator it);

  /// Tell one slot's answer: its estimate or screen-out, or its broker
  /// answer through settle(), hedging a fast-fail on the analytic tier.
  void tell(Slot& slot);

  /// Add `point` to the explored set, or let an exact answer supersede an
  /// estimate (and an NWM fallback a bare failure). Returns true when the
  /// point was not explored before.
  bool record(const DesignPoint& point, const EvalMetrics& metrics, bool estimated,
              bool failed, bool approximate = false);

  /// Whether `point` is recorded as a hedged (breaker-degraded) estimate.
  bool hedged(const DesignPoint& point);

  /// How settle() scored one broker answer.
  struct Settled {
    opt::Objectives objectives;
    double tell_cost = 0.0;  ///< hi-fi tool seconds billed to the asking searcher
  };

  /// The one scoring path for a high-fidelity broker answer (see DESIGN.md
  /// "One scoring path"): tally it, score a
  /// fast-fail from `hedge` (the analytic-tier answer the caller obtained,
  /// or null), score a quarantined point with an NWM fallback, penalize
  /// other failures, record the point and grow the dataset with a fresh
  /// exact answer.
  Settled settle(const DesignPoint& point, const EvalResult& r, const EvalResult* hedge);

  /// Score a screened-out point with its low-fidelity answer (recorded
  /// estimated); the first settle of a point counts as screened_out.
  opt::Objectives settle_screen(const DesignPoint& point, const EvalMetrics& metrics);

  /// Count a broker answer: cache hit, single-flight join or tool run, and
  /// failure.
  void tally(const EvalResult& r);

  /// Answer `point` with the NWM when the control model says it is close
  /// enough to the dataset (counted and recorded estimated); std::nullopt
  /// when the point must go to the tool (or approximation is off).
  std::optional<opt::Objectives> try_estimate(const DesignPoint& point);

  /// The NWM estimate at `point`, as objective metrics; refits the model
  /// first when a sample was added since its last fit.
  [[nodiscard]] EvalMetrics estimate_metrics(const DesignPoint& point);

  /// Add an exact answer to the approximation dataset when the point lies in
  /// the current space, carries every objective metric and its coordinates
  /// are not a sample yet. No-op without approximation.
  void grow_dataset(const DesignPoint& point, const EvalMetrics& metrics);

  /// Whether `metrics` reports every objective metric.
  [[nodiscard]] bool has_objectives(const EvalMetrics& metrics) const;

  /// Initial genomes from exact prior answers: the non-dominated subset of
  /// the non-estimated, non-failed `points` that encode into the current
  /// space, in order.
  [[nodiscard]] std::vector<opt::Genome> seed_genomes(
      const std::vector<ExploredPoint>& points) const;

  /// Whether multi-fidelity screening is on (screen_keep_ratio < 1).
  [[nodiscard]] bool screening() const { return config_.screen_keep_ratio < 1.0; }

  /// Drain the campaign's probe queue: answers are tallied, successes
  /// recorded exact and grown into the dataset. Called after each
  /// completion and between front-verification passes.
  void run_probe_queue();

  void add_side_tool_seconds(double seconds);

  ProjectConfig project_;
  DseConfig config_;
  const bool own_fleet_;  ///< the engine built its fleet from config_
  std::shared_ptr<EvaluationFleet> fleet_;
  std::unique_ptr<ProbeQueue> probes_;  ///< this campaign's fast-failed points
  /// Points a crashed campaign journaled as submitted; start_campaign()
  /// queues them first, to be submitted exactly once, bypassing the ladder.
  std::vector<InflightMark> replayed_inflight_;
  std::unique_ptr<model::ControlModel> control_;

  // The campaign, from start_campaign() on. Only its driver touches it, one
  // call at a time, so it needs no lock.
  bool campaign_started_ = false;
  std::unique_ptr<opt::Problem> problem_;
  std::unique_ptr<opt::Optimizer> searcher_;
  std::function<bool()> stop_requested_;
  /// Answers are told in submission order (the generational searcher)
  /// rather than as they arrive.
  bool in_order_ = false;
  std::size_t budget_ = 0;        ///< asks plus replayed points
  std::size_t max_inflight_ = 1;  ///< forwarded points outstanding at once
  std::size_t block_size_ = 1;    ///< asks per ladder block
  std::deque<Slot> queue_;               ///< asked, awaiting submission
  std::map<std::size_t, Slot> pending_;  ///< submitted, not yet told, by ticket
  std::size_t submitted_ = 0;            ///< against the budget
  std::size_t inflight_ = 0;             ///< forwarded and not yet told
  std::size_t next_ticket_ = 0;
  bool barrier_due_ = false;  ///< the searcher waited since the last block
  bool stopped_ = false;      ///< submission stopped (deadline or stop request)

  // Engine locks are independent leaves: no code path holds two of them at
  // once (see DESIGN.md "Concurrency contracts" for the repo-wide ordering).
  util::Mutex record_mutex_{"DseEngine.record"};
  std::map<DesignPoint, std::size_t> explored_index_
      DOVADO_GUARDED_BY(record_mutex_);
  std::vector<ExploredPoint> explored_ DOVADO_GUARDED_BY(record_mutex_);

  mutable util::Mutex stats_mutex_{"DseEngine.stats"};
  DseStats stats_ DOVADO_GUARDED_BY(stats_mutex_);  ///< engine-local counters
  double side_tool_seconds_ DOVADO_GUARDED_BY(stats_mutex_) = 0.0;
};

}  // namespace dovado::core
