#include "src/cli/commands.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <thread>

#include "src/analysis/analyzer.hpp"
#include "src/analysis/render.hpp"
#include "src/core/dse.hpp"
#include "src/core/sensitivity.hpp"
#include "src/edatool/faults.hpp"
#include "src/core/session.hpp"
#include "src/core/writers.hpp"
#include "src/hdl/expr.hpp"
#include "src/hdl/frontend.hpp"
#include "src/fpga/board.hpp"
#include "src/perf/roofline.hpp"
#include "src/serve/client.hpp"
#include "src/serve/server.hpp"
#include "src/store/store.hpp"
#include "src/util/json.hpp"
#include "src/util/logging.hpp"
#include "src/util/strings.hpp"

namespace dovado::cli {

namespace {

/// Build the project configuration shared by evaluate/explore.
core::ProjectConfig project_from(const Options& options) {
  core::ProjectConfig project;
  for (const auto& path : options.sources) {
    tcl::SourceFile source;
    source.path = path;
    source.language = hdl::language_from_path(path).value_or(hdl::HdlLanguage::kVhdl);
    project.sources.push_back(std::move(source));
  }
  project.top_module = options.top;
  project.part = options.part;
  project.target_period_ns = options.period_ns;
  project.synth_directive = options.synth_directive;
  project.place_directive = options.place_directive;
  project.route_directive = options.route_directive;
  project.run_implementation = options.run_implementation;
  project.incremental_synth = options.incremental;
  project.incremental_impl = options.incremental;
  project.backend = options.backend;
  return project;
}

bool write_file(const std::string& path, const std::string& content, std::ostream& err) {
  std::ofstream out(path);
  if (!out) {
    err << "cannot write " << path << "\n";
    return false;
  }
  out << content;
  return true;
}

/// Resolve the fault plan into `plan`: --fault-plan wins over the
/// DOVADO_FAULT_PLAN environment variable. Returns false (with a message)
/// on a bad spec.
bool apply_fault_plan(const Options& options, edatool::FaultPlan& plan, std::ostream& err) {
  std::string spec = options.fault_plan;
  if (spec.empty()) {
    const char* env = std::getenv("DOVADO_FAULT_PLAN");
    if (env != nullptr) spec = env;
  }
  if (spec.empty()) return true;
  std::string error;
  const auto parsed = edatool::FaultPlan::parse(spec, error);
  if (!parsed) {
    err << "invalid fault plan '" << spec << "': " << error << "\n";
    return false;
  }
  plan = *parsed;
  return true;
}

/// The retry and circuit-breaker settings explore and serve share.
void apply_supervision(const Options& options, core::SupervisorConfig& supervise,
                       core::BreakerConfig& breaker) {
  supervise.max_retries = options.max_retries;
  supervise.attempt_timeout_tool_seconds = options.attempt_timeout;
  supervise.seed = options.seed;
  breaker.enabled = options.breaker;
  breaker.window = options.breaker_window;
  breaker.failure_threshold = options.breaker_threshold;
  breaker.probe_budget = options.probe_budget;
  breaker.seed = options.seed;
}

/// Last signal delivered while a ScopedSignalHandlers is installed
/// (0 = none). Lock-free atomic, safe to set from the handler.
std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

/// Route SIGINT/SIGTERM into g_signal for the lifetime of this object
/// (restoring the previous handlers on destruction). No SA_RESTART: the
/// wait loops must wake from blocking calls when a signal lands.
class ScopedSignalHandlers {
 public:
  ScopedSignalHandlers() {
    g_signal.store(0, std::memory_order_relaxed);
    struct sigaction action = {};
    action.sa_handler = on_signal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGINT, &action, &old_int_);
    sigaction(SIGTERM, &action, &old_term_);
  }
  ~ScopedSignalHandlers() {
    sigaction(SIGINT, &old_int_, nullptr);
    sigaction(SIGTERM, &old_term_, nullptr);
  }
  ScopedSignalHandlers(const ScopedSignalHandlers&) = delete;
  ScopedSignalHandlers& operator=(const ScopedSignalHandlers&) = delete;

  [[nodiscard]] static int delivered() {
    return g_signal.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static const char* name(int sig) {
    return sig == SIGINT ? "SIGINT" : sig == SIGTERM ? "SIGTERM" : "signal";
  }

 private:
  struct sigaction old_int_ = {};
  struct sigaction old_term_ = {};
};

}  // namespace

int run_parse(const Options& options, std::ostream& out, std::ostream& err) {
  bool found = false;
  for (const auto& path : options.sources) {
    const hdl::ParseResult parsed = hdl::parse_file(path);
    for (const auto& diag : parsed.diagnostics) {
      err << path << ":" << diag.loc.line << ": " << diag.message << "\n";
    }
    if (!parsed.ok) continue;
    const hdl::Module* module = parsed.file.find_module(options.top);
    if (module == nullptr) continue;
    found = true;

    out << "module " << module->name << " (" << language_name(module->language) << ")\n";
    if (!module->libraries.empty()) {
      out << "  libraries: " << util::join(module->libraries, ", ") << "\n";
    }
    out << "  parameters:\n";
    for (const auto& p : module->parameters) {
      out << "    " << (p.is_local ? "[local] " : "") << p.name;
      if (!p.type_name.empty()) out << " : " << p.type_name;
      if (!p.default_expr.empty()) out << " := " << p.default_expr;
      out << "\n";
    }
    out << "  ports:\n";
    const hdl::ExprEnv env = hdl::build_param_env(*module, {});
    for (const auto& port : module->ports) {
      out << "    " << port.name << " : " << port_dir_name(port.dir) << " "
          << port.type_name;
      if (port.is_vector) {
        const auto width = hdl::port_width(port, module->language, env);
        if (width) out << "[" << *width << "]";
        else out << "[" << port.left_expr << (port.downto ? " downto " : " to ")
                 << port.right_expr << "]";
      }
      out << "\n";
    }
    const hdl::Port* clk = hdl::find_clock_port(*module);
    out << "  clock: " << (clk != nullptr ? clk->name : "(none detected)") << "\n";
  }
  if (!found) {
    err << "top module '" << options.top << "' not found in the given sources\n";
    return 1;
  }
  return 0;
}

int run_evaluate(const Options& options, std::ostream& out, std::ostream& err) {
  try {
    core::PointEvaluator evaluator(project_from(options));
    const core::EvalResult result = evaluator.evaluate(options.assignments);
    if (!result.ok) {
      err << "evaluation failed: " << result.error << "\n";
      return 1;
    }
    core::ExploredPoint point;
    point.params = options.assignments;
    point.metrics = result.metrics;
    out << core::format_table({point});
    out << "simulated tool time: " << util::format("%.0f s", result.tool_seconds) << "\n";
    if (!options.json_path.empty()) {
      core::DseResult single;
      single.pareto.push_back(point);
      single.explored.push_back(point);
      if (!write_file(options.json_path, core::to_json(single), err)) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int run_explore(const Options& options, std::ostream& out, std::ostream& err) {
  try {
    core::DseConfig config;
    config.space.params = options.params;
    for (const auto& [metric, maximize] : options.objectives) {
      config.objectives.push_back({metric, maximize});
    }
    config.ga.population_size = options.population;
    config.ga.max_generations = options.generations;
    config.ga.seed = options.seed;
    config.use_approximation = options.approximate;
    config.pretrain_samples = options.pretrain;
    config.workers = options.workers;
    config.screen_keep_ratio = options.screen_ratio;
    config.steady_state = options.steady_state;
    config.max_inflight = options.max_inflight;
    config.optimizer = options.optimizer;
    config.portfolio_members = options.portfolio_members;
    if (options.deadline_hours > 0.0) {
      config.deadline_tool_seconds = options.deadline_hours * 3600.0;
    }
    apply_supervision(options, config.supervise, config.breaker);
    config.journal_path = options.journal_path;
    config.resume_from_journal = !options.resume_path.empty();
    config.store_path = options.store_path;
    config.campaign_id = options.campaign_id;
    config.store_warm_start = options.store_warm_start;
    config.preflight = options.preflight;
    if (!apply_fault_plan(options, config.fault_plan, err)) return 1;
    if (!options.resume_path.empty()) {
      core::SessionLoad session = core::load_session_ex(options.resume_path);
      switch (session.status) {
        case core::SessionLoadStatus::kLoaded:
          config.warm_start = std::move(session.explored);
          out << "resuming from " << options.resume_path << " ("
              << config.warm_start.size() << " known points)\n";
          break;
        case core::SessionLoadStatus::kMissing:
          // First run of a to-be-resumed campaign: nothing to warm-start
          // from yet (the journal, if any, may still have evaluations).
          out << "session " << options.resume_path
              << " not found; starting fresh\n";
          break;
        case core::SessionLoadStatus::kCorrupt:
          err << "session " << options.resume_path
              << " exists but cannot be parsed; refusing to discard it\n";
          return 1;
      }
    }

    // Graceful shutdown: SIGINT/SIGTERM stops submitting new evaluations,
    // drains the in-flight ones (journal and store flushed as usual), and
    // the partial front below is printed before exiting with a distinct
    // code. A second signal still kills the process the hard way.
    ScopedSignalHandlers signals;
    core::DseEngine engine(project_from(options), config);
    const core::DseResult result =
        engine.run([] { return ScopedSignalHandlers::delivered() != 0; });

    out << "explored " << result.explored.size() << " design points ("
        << result.stats.tool_runs << " tool runs, " << result.stats.estimates
        << " estimates, " << result.stats.cache_hits << " cache hits, "
        << result.stats.single_flight_joins << " single-flight joins, "
        << util::format("%.0f", result.stats.simulated_tool_seconds)
        << " simulated tool seconds";
    if (result.stats.deadline_hit) out << ", deadline hit";
    out << ")\n";
    if (!result.stats.backend_runs.empty()) {
      out << "backend runs:";
      for (const auto& [name, runs] : result.stats.backend_runs) {
        out << " " << name << "=" << runs;
      }
      if (result.stats.screened_out > 0) {
        out << " (" << result.stats.screened_out << " screened out, "
            << util::format("%.0f", result.stats.screen_tool_seconds)
            << " screening tool seconds)";
      }
      out << "\n";
    }
    if (options.steady_state) {
      out << "steady state: " << result.stats.steady_completions << " completions, "
          << result.stats.inflight_replayed << " inflight replayed, "
          << util::format("%.1f%%", result.stats.tool_seconds_utilization * 100.0)
          << " lane utilization over " << result.stats.virtual_lanes
          << " lanes\n";
      if (!result.stats.optimizer_name.empty()) {
        out << "optimizer: " << result.stats.optimizer_name << "\n";
        for (const auto& member : result.stats.optimizer_members) {
          out << "  " << member.name << ": " << member.asks << " asks, "
              << member.tells << " tells, "
              << util::format("%.4f", member.hv_gain) << " hv gain, "
              << util::format("%.0f", member.cost_seconds) << " tool seconds, "
              << util::format("%.2f", member.weight) << " weight\n";
        }
      }
    }
    out << "parallel dispatch: " << result.stats.lease_waits << " lease waits, "
        << result.stats.deadline_skips << " deadline skips\n";
    out << "robustness: " << result.stats.retries << " retries, "
        << result.stats.transient_failures << " transient / "
        << result.stats.deterministic_failures << " deterministic / "
        << result.stats.timeouts << " timeout failures, "
        << result.stats.quarantined << " quarantined, "
        << result.stats.approx_fallbacks << " approx fallbacks, "
        << result.stats.journal_replays << " journal replays";
    if (result.stats.journal_skipped_records > 0) {
      out << ", " << result.stats.journal_skipped_records
          << " journal records skipped";
    }
    if (result.stats.faults_injected > 0) {
      out << ", " << result.stats.faults_injected << " faults injected";
    }
    out << "\n";
    if (!options.store_path.empty()) {
      out << "store: " << result.stats.store_hits << " hits, "
          << result.stats.store_appends << " appends, "
          << result.stats.store_seeded_points << " seeded points";
      if (result.stats.store_quarantined_records > 0) {
        out << ", " << result.stats.store_quarantined_records
            << " quarantined records";
      }
      out << "\n";
    }
    if (result.stats.breaker_trips > 0 || result.stats.breaker_fast_fails > 0 ||
        result.stats.degraded_evals > 0) {
      out << "availability: " << result.stats.breaker_trips << " breaker trips / "
          << result.stats.breaker_recoveries << " recoveries, "
          << result.stats.breaker_fast_fails << " fast fails, "
          << result.stats.probe_runs << " probes, "
          << result.stats.degraded_evals << " degraded evals, "
          << result.stats.reverified_points << " re-verified\n";
    }
    out << "\n";
    out << "non-dominated set (" << result.pareto.size() << " points):\n";
    out << core::format_table(result.pareto);

    if (!options.csv_path.empty()) {
      std::ofstream csv(options.csv_path);
      if (!csv) {
        err << "cannot write " << options.csv_path << "\n";
        return 1;
      }
      core::write_csv(csv, result.explored);
      out << "explored points written to " << options.csv_path << "\n";
    }
    if (!options.json_path.empty()) {
      if (!write_file(options.json_path, core::to_json(result), err)) return 1;
      out << "full result written to " << options.json_path << "\n";
    }
    if (!options.session_path.empty()) {
      if (!core::save_session(options.session_path, result.explored)) {
        err << "cannot write session " << options.session_path << "\n";
        return 1;
      }
      out << "session saved to " << options.session_path << "\n";
    }
    const int sig = ScopedSignalHandlers::delivered();
    if (sig != 0) {
      out << "interrupted by " << ScopedSignalHandlers::name(sig)
          << ": the search stopped early; the results above are the partial "
             "front (journal/store/session flushed)\n";
      return kExitInterrupted;
    }
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int run_sensitivity(const Options& options, std::ostream& out, std::ostream& err) {
  try {
    core::DesignSpace space;
    space.params = options.params;
    core::DesignPoint base = core::center_point(space);
    for (const auto& [name, value] : options.assignments) base[name] = value;

    core::SensitivityOptions sens;
    sens.samples_per_param = options.samples_per_param;
    sens.workers = options.workers;
    const core::SensitivityReport report =
        core::analyze_sensitivity(project_from(options), space, base, sens);

    out << "base point:";
    for (const auto& [name, value] : report.base) out << " " << name << "=" << value;
    out << "\n\n";
    out << report.format_table({"lut", "ff", "bram", "fmax_mhz", "power_w"});
    out << "\nmost influential parameter per metric:\n";
    for (const char* metric : {"lut", "fmax_mhz", "power_w"}) {
      const auto ranked = report.ranking(metric);
      if (!ranked.empty()) {
        out << "  " << metric << ": " << ranked.front().first << " ("
            << util::format("%.1f%%", 100.0 * ranked.front().second) << ")\n";
      }
    }
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int run_roofline(const Options& options, std::ostream& out, std::ostream& err) {
  const auto device = fpga::resolve_device(options.part);
  if (!device) {
    err << "unknown part '" << options.part << "'\n";
    return 1;
  }
  const perf::RooflineMachine machine = perf::machine_from_device(*device, options.clock_mhz);
  std::vector<perf::RooflinePoint> points;
  for (const auto& spec : options.kernels) {
    perf::RooflineKernel kernel;
    kernel.name = spec.name;
    kernel.ops = spec.ops;
    kernel.bytes = spec.bytes;
    kernel.achieved_gops = spec.achieved_gops;
    points.push_back(perf::place_kernel(machine, kernel));
  }
  out << perf::render_ascii(machine, points);
  if (!options.csv_path.empty()) {
    if (!write_file(options.csv_path, perf::to_csv(machine, points), err)) return 1;
    out << "roofline data written to " << options.csv_path << "\n";
  }
  return 0;
}

int run_lint(const Options& options, std::ostream& out, std::ostream& err) {
  analysis::RuleSet rules;
  const std::string spec_error = rules.apply_spec(options.lint_rules);
  if (!spec_error.empty()) {
    err << spec_error << "\n";
    return 2;
  }

  analysis::LintReport report;
  const core::ProjectConfig project = project_from(options);
  const std::optional<hdl::Module> top = analysis::lint_project(project, report);

  // Design-space lint only when the user gave a space to judge.
  if (!options.params.empty() || !options.objectives.empty()) {
    core::DseConfig config;
    config.space.params = options.params;
    for (const auto& [metric, maximize] : options.objectives) {
      config.objectives.push_back({metric, maximize});
    }
    config.backend = options.backend;
    config.screen_keep_ratio = options.screen_ratio;
    analysis::lint_dse_config(project, top ? &*top : nullptr, config,
                              options.raw_param_specs, report);
  }

  rules.filter(report);
  out << (options.lint_format == "json" ? analysis::render_json(report)
                                        : analysis::render_text(report));
  return report.exit_code();
}

int run_db(const Options& options, std::ostream& out, std::ostream& err) {
  using store::EvalStore;
  using store::StoreRecord;

  // Record filter shared by query/export: --tier and --backend narrow the
  // live set; no flags means everything.
  auto matches = [&](const StoreRecord& rec) {
    if (!options.db_tier.empty() && rec.tier != options.db_tier) return false;
    if (!options.db_backend.empty() && rec.backend != options.db_backend) return false;
    return true;
  };

  if (options.db_action == "compact") {
    auto opened = EvalStore::open_writer(options.store_path);
    if (!opened.store) {
      err << opened.error << "\n";
      return 1;
    }
    const store::StoreStats before = opened.store->stats();
    std::string error;
    if (!opened.store->compact(error)) {
      err << error << "\n";
      return 1;
    }
    const store::StoreStats after = opened.store->stats();
    out << "compacted " << options.store_path << ": " << before.records
        << " records (" << before.file_bytes << " bytes) -> " << after.records
        << " live records (" << after.file_bytes << " bytes)\n";
    if (before.quarantined > 0 || before.torn_tail) {
      out << "dropped " << before.quarantined << " quarantined region(s)"
          << (before.torn_tail ? " and a torn tail" : "") << "\n";
    }
    return 0;
  }

  // stats/query/export are read-only: a snapshot works even while a live
  // campaign holds the writer lock.
  auto opened = EvalStore::open_reader(options.store_path);
  if (!opened.store) {
    err << opened.error << "\n";
    return 1;
  }
  const EvalStore& db = *opened.store;
  const store::StoreStats stats = db.stats();

  if (options.db_action == "stats") {
    out << options.store_path << ": " << stats.records << " records, "
        << stats.live << " live (latest per design/backend/tier), "
        << stats.file_bytes << " bytes\n";
    if (stats.quarantined > 0 || stats.torn_tail) {
      out << "integrity: " << stats.quarantined << " quarantined corrupt region(s)"
          << (stats.torn_tail ? ", torn tail dropped" : "")
          << " (run 'dovado db compact' to rewrite clean)\n";
    }
    std::map<std::string, std::size_t> by_bucket;
    std::size_t failures = 0;
    double tool_seconds = 0.0;
    for (const auto& rec : db.live_records()) {
      ++by_bucket[rec.backend + "/" + rec.tier];
      if (!rec.ok) ++failures;
      tool_seconds += rec.tool_seconds;
    }
    for (const auto& [bucket, count] : by_bucket) {
      out << "  " << bucket << ": " << count << " live\n";
    }
    out << "banked tool time: " << util::format("%.0f", tool_seconds)
        << " simulated seconds (" << failures << " recorded failures)\n";
    return 0;
  }

  std::vector<StoreRecord> selected;
  for (const auto& rec : db.live_records()) {
    if (matches(rec)) selected.push_back(rec);
  }
  // The table and CSV views of the selection.
  const auto explored_points = [&selected] {
    std::vector<core::ExploredPoint> points;
    for (const auto& rec : selected) {
      core::ExploredPoint p;
      p.params = rec.params;
      p.metrics.values = rec.metrics;
      p.failed = !rec.ok;
      p.approximate = rec.approximate;
      points.push_back(std::move(p));
    }
    return points;
  };

  if (options.db_action == "query") {
    const std::vector<core::ExploredPoint> points = explored_points();
    out << selected.size() << " live record(s)";
    if (!options.db_tier.empty()) out << ", tier " << options.db_tier;
    if (!options.db_backend.empty()) out << ", backend " << options.db_backend;
    out << ":\n";
    out << core::format_table(points);
    return 0;
  }

  // export: the full record set as JSON (machine-readable) or CSV.
  util::JsonArray records;
  for (const auto& rec : selected) records.push_back(store::record_to_json(rec));
  util::JsonObject root;
  root["store"] = util::Json(options.store_path);
  root["records"] = util::Json(std::move(records));
  const std::string json = util::Json(std::move(root)).dump(2) + "\n";

  if (!options.csv_path.empty()) {
    const std::vector<core::ExploredPoint> points = explored_points();
    std::ofstream csv(options.csv_path);
    if (!csv) {
      err << "cannot write " << options.csv_path << "\n";
      return 1;
    }
    core::write_csv(csv, points);
    out << selected.size() << " record(s) written to " << options.csv_path << "\n";
    return 0;
  }
  if (!options.json_path.empty()) {
    if (!write_file(options.json_path, json, err)) return 1;
    out << selected.size() << " record(s) written to " << options.json_path << "\n";
    return 0;
  }
  out << json;
  return 0;
}

int run_serve(const Options& options, std::ostream& out, std::ostream& err) {
  try {
    serve::ServeConfig config;
    config.socket_path = options.socket_path;
    config.project = project_from(options);
    config.broker.workers = options.workers;
    apply_supervision(options, config.broker.supervise, config.breaker);
    if (!apply_fault_plan(options, config.broker.fault_plan, err)) return 1;
    config.broker.journal_path = options.journal_path;
    // A daemon restart must replay its own journal: every answer acked
    // before the restart is served from cache afterwards.
    config.broker.resume_from_journal = !options.journal_path.empty();
    if (!options.store_path.empty()) {
      config.broker.store = core::EvaluationFleet::open_store(options.store_path);
    }
    config.broker.campaign_id =
        options.campaign_id.empty() ? "serve" : options.campaign_id;
    config.max_inflight = options.max_inflight;
    config.max_connections = options.max_connections;
    config.default_deadline_tool_seconds = options.deadline_tool_seconds;
    for (const ServeTenantSpec& spec : options.serve_tenants) {
      serve::ServeTenantConfig tenant;
      tenant.name = spec.name;
      tenant.policy.weight = spec.weight;
      tenant.policy.queue_cap = spec.queue_cap;
      tenant.policy.request_rate = spec.request_rate;
      tenant.policy.request_burst = spec.request_burst;
      tenant.policy.tool_seconds_rate = spec.tool_seconds_rate;
      tenant.policy.tool_seconds_burst = spec.tool_seconds_burst;
      config.tenants.push_back(std::move(tenant));
    }

    serve::Server server(std::move(config));
    std::string error;
    if (!server.start(error)) {
      err << "dovado serve: " << error << "\n";
      return 1;
    }
    out << "dovado serve: listening on " << options.socket_path << " ("
        << options.serve_tenants.size()
        << " pinned tenant(s); SIGTERM drains gracefully)\n";
    out.flush();

    ScopedSignalHandlers signals;
    while (ScopedSignalHandlers::delivered() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const int sig = ScopedSignalHandlers::delivered();
    out << "dovado serve: received " << ScopedSignalHandlers::name(sig)
        << "; draining (in-flight evaluations finish, queued work is shed)\n";
    out.flush();
    server.drain();
    server.wait();

    const serve::ServerStats stats = server.stats();
    out << "dovado serve: drained; " << stats.requests << " requests, "
        << stats.shed << " shed, " << stats.campaigns_finished
        << " campaigns finished\n";
    for (const serve::ServerTenantStats& tenant : stats.tenants) {
      out << "  " << tenant.name << ": weight "
          << util::format("%.0f", tenant.queue.weight) << ", "
          << tenant.completed << " ok / " << tenant.failed << " failed, shed "
          << tenant.admission.shed_request_rate << " rate / "
          << tenant.admission.shed_tool_quota << " quota / "
          << tenant.queue.shed_queue_full << " queue, "
          << util::format("%.1f", tenant.admission.tool_seconds_charged)
          << " tool seconds\n";
    }
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int run_client(const Options& options, std::ostream& out, std::ostream& err) {
  serve::Client client;
  std::string error;
  if (!client.connect(options.socket_path, error)) {
    err << "dovado client: " << error << "\n";
    return 2;
  }
  if (options.assignments.empty()) {
    if (!client.ping(error)) {
      err << "dovado client: " << error << "\n";
      return 2;
    }
    out << "pong\n";
    return 0;
  }
  serve::Response response;
  if (!client.eval(options.tenant, options.assignments,
                   options.deadline_tool_seconds, response, error)) {
    err << "dovado client: " << error << "\n";
    return 2;
  }
  switch (response.status) {
    case serve::ResponseStatus::kOk: {
      for (const auto& [name, value] : response.metrics) {
        out << name << " = " << util::format("%g", value) << "\n";
      }
      out << "tool seconds: " << util::format("%.1f", response.tool_seconds);
      if (response.cache_hit) out << " (cache hit)";
      if (response.store_hit) out << " (store hit)";
      out << "\n";
      return 0;
    }
    case serve::ResponseStatus::kFailed:
      err << "evaluation failed: " << response.error << "\n";
      return 1;
    case serve::ResponseStatus::kShed:
      err << "shed (" << response.reason << "); retry after "
          << response.retry_after_ms << " ms\n";
      return 4;
    case serve::ResponseStatus::kDraining:
      err << "daemon is draining; resubmit after it restarts\n";
      return 4;
    case serve::ResponseStatus::kError:
      err << "request rejected: " << response.error << "\n";
      return 2;
  }
  return 2;
}

int run_top(const Options& options, std::ostream& out, std::ostream& err) {
  serve::Client client;
  std::string error;
  if (!client.connect(options.socket_path, error)) {
    err << "dovado top: " << error << "\n";
    return 2;
  }
  std::string stats_json;
  if (!client.stats(stats_json, error)) {
    err << "dovado top: " << error << "\n";
    return 2;
  }
  util::Json parsed;
  if (util::Json::parse(stats_json, parsed)) {
    out << parsed.dump(2) << "\n";
  } else {
    out << stats_json << "\n";
  }
  return 0;
}

int run(const Options& options, std::ostream& out, std::ostream& err) {
  switch (options.command) {
    case Command::kHelp:
      out << usage();
      return 0;
    case Command::kParse:
      return run_parse(options, out, err);
    case Command::kEvaluate:
      return run_evaluate(options, out, err);
    case Command::kExplore:
      return run_explore(options, out, err);
    case Command::kSensitivity:
      return run_sensitivity(options, out, err);
    case Command::kRoofline:
      return run_roofline(options, out, err);
    case Command::kLint:
      return run_lint(options, out, err);
    case Command::kDb:
      return run_db(options, out, err);
    case Command::kServe:
      return run_serve(options, out, err);
    case Command::kClient:
      return run_client(options, out, err);
    case Command::kTop:
      return run_top(options, out, err);
  }
  return 1;
}

}  // namespace dovado::cli
