// Single design point evaluation (paper Sec. III-A).
//
// The full design-automation pipeline for one configuration:
//   parse RTL -> box the module -> generate the XDC + TCL flow script ->
//   run the (simulated) tool -> parse the utilization/timing reports back
//   into metrics.
// Results are memoized in an EvaluationCache shared across evaluators so
// repeated points cost nothing (mirroring Vivado answering from cached
// runs for already-seen points).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/boxing/box.hpp"
#include "src/core/param_domain.hpp"
#include "src/util/sync.hpp"
#include "src/edatool/backend.hpp"
#include "src/hdl/ast.hpp"
#include "src/tcl/frames.hpp"

namespace dovado::core {

/// Metric values of one evaluated design point. Keys:
///   "lut", "lut_logic", "lut_mem", "ff", "bram", "dsp", "fmax_mhz",
///   "wns_ns", "delay_ns"  — plus "uram" only on URAM-bearing devices
/// (device-dependent resources are reported only if present, Sec. III-A.4).
struct EvalMetrics {
  util::FlatMap<double> values;

  [[nodiscard]] double get(const std::string& name, double fallback = 0.0) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
};

/// How an evaluation failure is classified by the supervision layer (see
/// core/supervisor.hpp and DESIGN.md "Failure model & recovery").
enum class FailureClass {
  kNone,           ///< the evaluation succeeded
  kTransient,      ///< tool crash / corrupt report — worth retrying
  kDeterministic,  ///< same point will fail the same way (e.g. over-utilization)
  kTimeout,        ///< attempt exceeded the per-attempt tool-seconds budget
};

[[nodiscard]] const char* failure_class_name(FailureClass cls);

/// Outcome of evaluating one design point.
struct EvalResult {
  bool ok = false;
  std::string error;
  EvalMetrics metrics;
  double tool_seconds = 0.0;  ///< simulated tool runtime of this evaluation
  bool cache_hit = false;
  bool joined = false;  ///< shared another thread's in-flight run (single-flight)
  /// Served from the cross-campaign evaluation store (see src/store/):
  /// a prior campaign already paid for this exact (point, backend, tier),
  /// so the answer is charged zero tool seconds.
  bool store_hit = false;
  /// The circuit breaker rejected the run in O(1) without touching the
  /// backend (see core/health/breaker.hpp). Never cached or journaled —
  /// it says nothing about the design point, only about backend health.
  bool fast_failed = false;
  /// Position of this answer on the broker's virtual lane clock: the
  /// simulated time at which a real evaluator fleet would have finished
  /// this run. 0 for answers that consumed no lane time (cache hits,
  /// single-flight joins, fast-fails). Set by the broker, not the
  /// evaluator; the steady-state engine orders completions by it.
  double virtual_finish = 0.0;

  // Supervision outcome (meaningful when an EvaluationSupervisor wrapped the
  // run; defaults describe an unsupervised single attempt). These travel
  // through the cache, so single-flight joiners and later cache hits see the
  // same classification the leader produced.
  FailureClass failure = FailureClass::kNone;
  int attempts = 1;           ///< tool attempts performed (1 + retries)
  bool quarantined = false;   ///< exhausted retries; point is quarantined
  double backoff_seconds = 0.0;  ///< simulated backoff charged across retries
  /// A *per-request* tool-seconds deadline (see supervise()'s
  /// deadline_tool_seconds) cut supervision short. The answer reflects the
  /// requester's budget, not the design point, so it is never published to
  /// the shared cache, journaled, stored, or quarantined — another caller
  /// with a roomier deadline may still get a real answer.
  bool deadline_truncated = false;
};

/// Project-level configuration shared by all evaluations.
struct ProjectConfig {
  std::vector<tcl::SourceFile> sources;  ///< RTL files on disk
  std::string top_module;                ///< the module under exploration
  std::string part;                      ///< target device
  std::string clock_port;                ///< empty => auto-detect
  double target_period_ns = 1.0;         ///< the paper targets 1 GHz
  std::string synth_directive = "Default";
  std::string place_directive = "Default";
  std::string route_directive = "Default";
  bool run_implementation = true;        ///< false => synthesis-only metrics
  bool incremental_synth = false;
  bool incremental_impl = false;
  /// Evaluation backend, resolved through edatool::BackendRegistry
  /// ("vivado-sim" = the simulated tool, "analytic" = the fast
  /// low-fidelity estimator).
  std::string backend = "vivado-sim";
};

/// Why `space` cannot be explored on `module`: the message naming the first
/// design-space parameter that is not a free parameter of the module (names
/// match case-insensitively for VHDL), or empty when every one is.
[[nodiscard]] std::string space_parameter_error(const DesignSpace& space,
                                                const hdl::Module& module);

/// Thread-safe memoization of (design point -> result), shared between
/// parallel evaluators, with *single-flight* deduplication: the first
/// thread to claim an uncached point becomes its leader and runs the tool;
/// any concurrent claimant of the same point blocks on the in-flight entry
/// and shares the leader's answer instead of paying for a duplicate run.
class EvaluationCache {
 public:
  enum class ClaimKind {
    kHit,     ///< already cached; `result` holds the memoized answer
    kLeader,  ///< caller owns the point: evaluate, then publish() or abandon()
    kJoined,  ///< blocked on an in-flight leader and shares its result
  };
  struct Claim {
    ClaimKind kind = ClaimKind::kLeader;
    EvalResult result;  ///< valid for kHit and kJoined
  };

  /// Resolve a point with single-flight semantics. kLeader claimants *must*
  /// eventually call publish() (any deterministic outcome, success or
  /// failure) or abandon() (evaluation aborted, e.g. by an exception) for
  /// the same point, or joined threads would block forever.
  [[nodiscard]] Claim claim(const DesignPoint& point);

  /// Memoize the leader's result and wake every joined thread with it.
  void publish(const DesignPoint& point, const EvalResult& result);

  /// Drop the in-flight entry without a result; woken joiners retry the
  /// claim (one of them becomes the new leader).
  void abandon(const DesignPoint& point);

  [[nodiscard]] std::optional<EvalResult> lookup(const DesignPoint& point) const;
  /// Presence test without copying the cached result (hot-path guards).
  [[nodiscard]] bool contains(const DesignPoint& point) const;
  /// Direct insertion, bypassing single-flight (warm-start seeding).
  void store(const DesignPoint& point, const EvalResult& result);
  [[nodiscard]] std::size_t size() const;

 private:
  /// One in-flight evaluation. Joiners wait on `done` under the cache
  /// mutex (which also guards the published/abandoned/result fields — a
  /// nested struct cannot name the outer mutex in an annotation); the
  /// shared_ptr keeps the entry alive after the leader erases it from the
  /// in-flight map.
  struct InFlight {
    util::CondVar done;
    bool published = false;
    bool abandoned = false;
    EvalResult result;
  };

  mutable util::Mutex mutex_{"EvaluationCache"};
  std::map<DesignPoint, EvalResult> entries_ DOVADO_GUARDED_BY(mutex_);
  std::map<DesignPoint, std::shared_ptr<InFlight>> in_flight_
      DOVADO_GUARDED_BY(mutex_);
};

class EvaluationSupervisor;

class PointEvaluator {
 public:
  /// Parses the project sources eagerly and instantiates the configured
  /// evaluation backend; throws std::runtime_error when the top module
  /// cannot be found or parsed, or the backend name is unknown. `cache`
  /// may be shared across evaluators (pass nullptr for a private cache).
  PointEvaluator(ProjectConfig config, std::shared_ptr<EvaluationCache> cache = nullptr);

  // The box template points at module_: an evaluator stays where it was
  // built.
  PointEvaluator(const PointEvaluator&) = delete;
  PointEvaluator& operator=(const PointEvaluator&) = delete;

  /// Evaluate one design point end to end. When a supervisor is attached,
  /// the single-flight leader runs under its retry/quarantine policy and
  /// the final (possibly retried) outcome is what gets published.
  ///
  /// `deadline_tool_seconds` > 0 bounds the *total* simulated tool seconds
  /// this request may consume across attempts and backoff (the serve
  /// daemon's per-request deadline). A deadline-truncated failure is
  /// abandoned, not published: the cache keeps no answer for the point and
  /// a later caller may evaluate it afresh.
  [[nodiscard]] EvalResult evaluate(const DesignPoint& point,
                                    double deadline_tool_seconds = 0.0);

  /// Attach a shared retry/quarantine policy (nullptr = single attempt).
  void set_supervisor(std::shared_ptr<EvaluationSupervisor> supervisor) {
    supervisor_ = std::move(supervisor);
  }

  /// Forward a fault injector to the underlying tool session.
  void set_fault_injector(std::shared_ptr<const edatool::FaultInjector> injector) {
    backend_->set_fault_injector(std::move(injector));
  }

  /// The parsed module under exploration.
  [[nodiscard]] const hdl::Module& module() const { return module_; }

  /// Free (tunable) parameters of the module.
  [[nodiscard]] std::vector<hdl::Parameter> free_parameters() const {
    return module_.free_parameters();
  }

  /// Cumulative simulated tool seconds across this evaluator's runs
  /// (cache hits cost nothing).
  [[nodiscard]] double tool_seconds() const { return backend_->total_seconds(); }

  /// The evaluation backend session (tests and ablations inspect it).
  [[nodiscard]] const edatool::EdaBackend& backend() const { return *backend_; }

  [[nodiscard]] const ProjectConfig& config() const { return config_; }
  [[nodiscard]] const std::shared_ptr<EvaluationCache>& cache() const { return cache_; }

 private:
  /// The pipeline body behind evaluate(); runs without consulting the
  /// cache (the caller holds the single-flight claim). `attempt` is the
  /// 0-based retry index, forwarded to the backend's fault context.
  [[nodiscard]] EvalResult run_pipeline(const DesignPoint& point, int attempt);

  ProjectConfig config_;
  std::shared_ptr<EvaluationCache> cache_;
  std::shared_ptr<EvaluationSupervisor> supervisor_;
  hdl::Module module_;
  /// The project's box, built once by the constructor; each run renders
  /// its point into it.
  std::optional<boxing::BoxTemplate> box_;
  std::unique_ptr<edatool::EdaBackend> backend_;
  /// What every run hands the backend: the project's flow frame and its
  /// script, built once by the constructor.
  edatool::FlowRequest flow_;
  /// Set when the frame fails validation; every point then fails with it.
  std::string flow_error_;
};

/// A mutex/condvar-guarded free-list of evaluators. Each PointEvaluator
/// owns a stateful SimVivado session, so two in-flight evaluations must
/// never share one; parallel batch code checks out an exclusive evaluator
/// with acquire() and returns it when the RAII Lease dies. acquire()
/// blocks when every evaluator is checked out (counted in lease_waits(),
/// surfaced through DseStats), which replaces the racy `index % size`
/// selection that could alias two tasks onto the same session.
class EvaluatorPool {
 public:
  class Lease {
   public:
    Lease(Lease&& other) noexcept : pool_(other.pool_), evaluator_(other.evaluator_) {
      other.pool_ = nullptr;
      other.evaluator_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease();

    [[nodiscard]] PointEvaluator* operator->() const { return evaluator_; }
    [[nodiscard]] PointEvaluator& operator*() const { return *evaluator_; }

   private:
    friend class EvaluatorPool;
    Lease(EvaluatorPool* pool, PointEvaluator* evaluator)
        : pool_(pool), evaluator_(evaluator) {}

    EvaluatorPool* pool_;
    PointEvaluator* evaluator_;
  };

  EvaluatorPool() = default;

  /// Register an evaluator; it becomes immediately acquirable. The first
  /// add() snapshots the module interface for module()/free_parameters().
  void add(std::unique_ptr<PointEvaluator> evaluator);

  /// Check out an exclusive evaluator, blocking until one is free.
  /// Throws std::logic_error on an empty pool (nothing could ever be
  /// released to satisfy the wait).
  [[nodiscard]] Lease acquire();

  [[nodiscard]] std::size_t size() const;

  /// Number of acquire() calls that had to block for a free evaluator.
  [[nodiscard]] std::size_t lease_waits() const;

  /// The module interface under exploration, snapshotted when the first
  /// evaluator was registered — safe to read while evaluations are in
  /// flight (it never touches a live evaluator). Throws std::logic_error
  /// on an empty pool.
  [[nodiscard]] const hdl::Module& module() const;

  /// Free (tunable) parameters of the snapshotted module interface.
  [[nodiscard]] const std::vector<hdl::Parameter>& free_parameters() const;

 private:
  void release(PointEvaluator* evaluator);

  mutable util::Mutex mutex_{"EvaluatorPool"};
  util::CondVar available_;
  std::vector<std::unique_ptr<PointEvaluator>> owned_ DOVADO_GUARDED_BY(mutex_);
  std::vector<PointEvaluator*> idle_ DOVADO_GUARDED_BY(mutex_);
  std::size_t lease_waits_ DOVADO_GUARDED_BY(mutex_) = 0;

  /// Interface snapshot captured at first add(); immutable afterwards, so
  /// reads need no lock once an evaluator exists.
  std::unique_ptr<hdl::Module> module_snapshot_;
  std::vector<hdl::Parameter> free_parameters_snapshot_;
};

}  // namespace dovado::core
