#include "perfbench/workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "perfbench/refkernel.hpp"
#include "perfbench/trace.hpp"
#include "src/analysis/analyzer.hpp"
#include "src/boxing/box.hpp"
#include "src/core/dse.hpp"
#include "src/core/journal.hpp"
#include "src/edatool/report.hpp"
#include "src/hdl/frontend.hpp"
#include "src/opt/indicators.hpp"
#include "src/opt/nds.hpp"
#include "src/opt/optimizer.hpp"
#include "src/serve/server.hpp"
#include "src/store/store.hpp"
#include "src/tcl/frames.hpp"
#include "src/util/logging.hpp"

namespace perfbench {
namespace {

using namespace dovado;
using Clock = std::chrono::steady_clock;

constexpr const char* kTimedBackend = "perfbench-vivado-sim";
constexpr const char* kTimedOptimizer = "perfbench-nsga2";

/// Work per run is fixed by --seconds (the rates below are calibrated so a
/// run lasts about that long on the reference host), not by a wall-clock
/// deadline: the same seed and length give the same campaigns and requests,
/// so tool_s and hypervolume repeat bit-for-bit and the caches grow the same
/// way whatever the host speed.
constexpr double kFreshCampaignsPerSecond = 4.0;
constexpr double kNwmCampaignsPerSecond = 1.0;
constexpr double kRequestsPerSecond = 1500.0;
constexpr std::size_t kMinCampaigns = 4;
constexpr std::size_t kMinRequests = 4000;
/// Requests per serve run at most: 40% of them draw distinct store points,
/// which the store domain must cover.
constexpr std::size_t kMaxRequests = 78000;
/// Engine constructions timed per explore run for setup_s.
constexpr std::size_t kSetupReps = 40;
/// Serve requests per measured round (one calibration window per round).
constexpr std::size_t kServeRound = 500;
/// Every kFreshCheckStride-th fresh serve answer is re-evaluated.
constexpr std::size_t kFreshCheckStride = 8;
/// Store open + server construction repetitions per serve run.
constexpr int kServeSetups = 3;

std::size_t work_units(double per_second, double seconds, std::size_t minimum) {
  return std::max(minimum, static_cast<std::size_t>(per_second * seconds + 0.5));
}

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t campaign_seed(std::uint64_t run_seed, std::size_t k) {
  return splitmix64(run_seed * 1000003ull + k) % 1000000007ull + 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

void add_problem(Outcome& out, const std::string& what) {
  ++out.failed;
  if (out.problems.size() < 8) out.problems.push_back(what);
}

// ---------------------------------------------------------------------------
// Traced-run hooks: timing wrappers registered with the backend and
// optimizer registries. They delegate to "vivado-sim" / "nsga2" and forward
// info(), so store keys, breaker names and search behaviour are unchanged.
// ---------------------------------------------------------------------------

struct Hooks {
  Tracer* tracer = nullptr;
  std::atomic<std::int64_t> parent{-1};
  std::atomic<std::int64_t> round{0};
  /// Explore rounds longer than one calibration interval are split: the
  /// optimizer wrapper checkpoints the normalizer from inside the campaign.
  Normalizer* pacer = nullptr;
  std::string perturb_metric;
  util::Mutex mu{"perfbench.Hooks"};
  std::vector<std::vector<std::string>> reports DOVADO_GUARDED_BY(mu);
};

Hooks& hooks() {
  static Hooks instance;
  return instance;
}

constexpr std::size_t kMaxCapturedReports = 400;
/// Longest stretch of a round between two calibration windows.
constexpr double kSegmentS = 0.1;

std::string report_row(const std::string& metric) {
  static const std::map<std::string, std::string> rows = {
      {"lut", "Slice LUTs"}, {"ff", "Slice Registers"}, {"dsp", "DSPs"},
      {"bram", "Block RAM Tile"}};
  const auto it = rows.find(metric);
  if (it == rows.end()) throw std::runtime_error("cannot perturb metric '" + metric + "'");
  return it->second;
}

/// Self-test only: add one to `metric` in the utilization report.
void perturb(edatool::FlowOutcome& outcome, const std::string& metric) {
  const std::string row = report_row(metric);
  for (auto& chunk : outcome.reports) {
    if (edatool::TimingReport::parse_checked(chunk).attempted) continue;
    auto checked = edatool::UtilizationReport::parse_checked(chunk);
    if (!checked.report) continue;
    for (auto& r : checked.report->rows) {
      if (r.site_type == row) r.used += 1;
    }
    chunk = checked.report->to_text();
  }
}

class TimedBackend final : public edatool::EdaBackend {
 public:
  TimedBackend() : inner_(edatool::BackendRegistry::create("vivado-sim")) {}

  const edatool::BackendInfo& info() const override { return inner_->info(); }
  void add_virtual_file(const std::string& path, std::string content) override {
    inner_->add_virtual_file(path, std::move(content));
  }
  void set_fault_injector(std::shared_ptr<const edatool::FaultInjector> injector) override {
    inner_->set_fault_injector(std::move(injector));
  }
  void set_fault_context(std::uint64_t point_key, int attempt) override {
    inner_->set_fault_context(point_key, attempt);
  }
  edatool::FlowOutcome run_flow(const edatool::FlowRequest& request) override {
    Hooks& h = hooks();
    edatool::FlowOutcome outcome;
    {
      ScopedSpan span(h.tracer, "edatool.run_flow", h.parent.load(), h.round.load());
      outcome = inner_->run_flow(request);
    }
    if (!h.perturb_metric.empty()) perturb(outcome, h.perturb_metric);
    if (h.tracer != nullptr && outcome.ok) {
      util::MutexLock lock(h.mu);
      if (h.reports.size() < kMaxCapturedReports) h.reports.push_back(outcome.reports);
    }
    return outcome;
  }
  double total_seconds() const override { return inner_->total_seconds(); }
  std::uint64_t flows_run() const override { return inner_->flows_run(); }
  std::vector<std::string> metric_names() const override { return inner_->metric_names(); }

 private:
  std::unique_ptr<edatool::EdaBackend> inner_;
};

class TimedOptimizer final : public opt::Optimizer {
 public:
  explicit TimedOptimizer(const opt::OptimizerContext& ctx)
      : inner_(opt::OptimizerRegistry::create("nsga2", ctx)) {}

  const opt::OptimizerInfo& info() const override { return inner_->info(); }
  opt::Genome ask() override {
    Hooks& h = hooks();
    if (h.pacer != nullptr && h.pacer->segment_elapsed() >= kSegmentS) {
      ScopedSpan span(h.tracer, "calibrate", h.parent.load(), h.round.load());
      h.pacer->checkpoint();
    }
    ScopedSpan span(h.tracer, "opt.ask", h.parent.load(), h.round.load());
    return inner_->ask();
  }
  void tell(const opt::Genome& genome, const opt::Objectives& objectives,
            double cost_seconds) override {
    Hooks& h = hooks();
    ScopedSpan span(h.tracer, "opt.tell", h.parent.load(), h.round.load());
    inner_->tell(genome, objectives, cost_seconds);
  }
  void reserve(const opt::Genome& genome) override { inner_->reserve(genome); }
  void reserve_for(const opt::Genome& genome, const std::string& member) override {
    inner_->reserve_for(genome, member);
  }
  std::string attributed_to(const opt::Genome& genome) const override {
    return inner_->attributed_to(genome);
  }
  std::vector<opt::Individual> front() const override { return inner_->front(); }
  std::size_t told() const override { return inner_->told(); }
  std::vector<opt::MemberStats> member_stats() const override {
    return inner_->member_stats();
  }

 private:
  std::unique_ptr<opt::Optimizer> inner_;
};

void register_wrappers() {
  static const bool registered = [] {
    edatool::BackendRegistry::register_backend(
        kTimedBackend, [] { return std::make_unique<TimedBackend>(); });
    opt::OptimizerRegistry::register_optimizer(
        kTimedOptimizer,
        [](const opt::OptimizerContext& ctx) { return std::make_unique<TimedOptimizer>(ctx); });
    return true;
  }();
  (void)registered;
}

// ---------------------------------------------------------------------------
// Output check: an independent evaluation (own evaluator and cache, no
// store, no model) must reproduce every reported answer exactly.
// ---------------------------------------------------------------------------

class Checker {
 public:
  Checker(core::ProjectConfig project, std::vector<core::DerivedMetric> derived)
      : evaluator_(std::move(project)), derived_(std::move(derived)) {}

  /// Empty when `metrics` equal the independent answer for `point`.
  std::string check(const core::DesignPoint& point, bool ok,
                    const std::map<std::string, double>& metrics) {
    core::EvalResult r = evaluator_.evaluate(point);
    if (r.ok != ok) {
      return std::string("independent evaluation ") + (r.ok ? "succeeded" : "failed") +
             " but the answer says " + (ok ? "ok" : "failed") + " at " + describe(point);
    }
    if (!ok) return {};
    for (const auto& d : derived_) r.metrics.values[d.name] = d.compute(point, r.metrics);
    for (const auto& [name, value] : r.metrics.values) {
      const auto it = metrics.find(name);
      if (it == metrics.end() || it->second != value) {
        return "metric '" + name + "' differs from an independent evaluation at " +
               describe(point);
      }
    }
    if (metrics.size() != r.metrics.values.size()) {
      return "metric set differs from an independent evaluation at " + describe(point);
    }
    return {};
  }

  static std::string describe(const core::DesignPoint& point) {
    std::string s = "{";
    for (const auto& [k, v] : point) {
      if (s.size() > 1) s += ",";
      s += k + "=" + std::to_string(v);
    }
    return s + "}";
  }

 private:
  core::PointEvaluator evaluator_;
  std::vector<core::DerivedMetric> derived_;
};

// ---------------------------------------------------------------------------
// Projects and campaign definitions.
// ---------------------------------------------------------------------------

core::ProjectConfig systolic_project(const Options& o) {
  core::ProjectConfig p;
  p.sources.push_back({o.rtl_dir + "/systolic_mm.sv", hdl::HdlLanguage::kSystemVerilog,
                       "work", false});
  p.top_module = "systolic_mm";
  p.part = "xcvu9p-flga2104-2l-e";
  p.target_period_ns = 1.0;
  return p;
}

core::ProjectConfig fifo_project(const Options& o, const std::string& part) {
  core::ProjectConfig p;
  p.sources.push_back({o.rtl_dir + "/cv32e40p_fifo.sv", hdl::HdlLanguage::kSystemVerilog,
                       "work", false});
  p.top_module = "cv32e40p_fifo";
  p.part = part;
  p.target_period_ns = 1.0;
  return p;
}

/// The serve workload's project: a large part, so that nearly every point of
/// its domains fits and the request mix is dominated by genuine answers.
core::ProjectConfig serve_project(const Options& o) {
  return fifo_project(o, "xcvu9p-flga2104-2l-e");
}

std::vector<core::DerivedMetric> systolic_derived() {
  return {{"throughput", [](const core::DesignPoint& p, const core::EvalMetrics& m) {
             return m.get("fmax_mhz") * static_cast<double>(p.at("ROWS")) *
                    static_cast<double>(p.at("COLS"));
           }}};
}

std::vector<core::DerivedMetric> fifo_derived() {
  return {{"capacity", [](const core::DesignPoint& p, const core::EvalMetrics&) {
             return static_cast<double>(p.at("DEPTH")) *
                    static_cast<double>(p.at("DATA_WIDTH"));
           }}};
}

struct ExploreSpec {
  core::ProjectConfig project;
  std::vector<core::DerivedMetric> derived;
  std::function<core::DseConfig(std::uint64_t)> make_config;
  double campaigns_per_second = 1.0;
  std::size_t lanes = 1;
  bool steady_state = false;
};

ExploreSpec explore_fresh_spec(const Options& o) {
  ExploreSpec spec;
  spec.project = systolic_project(o);
  spec.derived = systolic_derived();
  spec.campaigns_per_second = kFreshCampaignsPerSecond;
  spec.lanes = 3;
  spec.make_config = [derived = spec.derived](std::uint64_t seed) {
    core::DseConfig c;
    c.space.params.push_back({"ROWS", core::ParamDomain::range(1, 32)});
    c.space.params.push_back({"COLS", core::ParamDomain::range(1, 32)});
    c.space.params.push_back({"DATA_W", core::ParamDomain::range(4, 32, 4)});
    c.space.params.push_back({"ACC_W", core::ParamDomain::range(8, 64, 8)});
    c.objectives = {{"lut", false}, {"throughput", true}};
    c.derived_metrics = derived;
    c.ga.population_size = 96;
    c.ga.max_generations = 8;
    c.ga.seed = seed;
    c.workers = 2;
    return c;
  };
  return spec;
}

ExploreSpec explore_nwm_spec(const Options& o) {
  ExploreSpec spec;
  spec.project = fifo_project(o, "xc7k70tfbv676-1");
  spec.derived = fifo_derived();
  spec.campaigns_per_second = kNwmCampaignsPerSecond;
  spec.lanes = 1;
  spec.steady_state = true;
  spec.make_config = [derived = spec.derived](std::uint64_t seed) {
    core::DseConfig c;
    c.space.params.push_back({"DEPTH", core::ParamDomain::range(8, 1031)});
    c.space.params.push_back({"DATA_WIDTH", core::ParamDomain::range(8, 128, 8)});
    c.objectives = {{"lut", false}, {"capacity", true}};
    c.derived_metrics = derived;
    c.ga.population_size = 32;
    c.ga.max_generations = 10;
    c.ga.seed = seed;
    c.steady_state = true;
    c.use_approximation = true;
    c.pretrain_samples = 100;
    c.workers = 0;
    return c;
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Explore workloads: many short campaigns, each one round between two
// calibration windows.
// ---------------------------------------------------------------------------

struct CampaignRecord {
  double setup_raw = 0.0;
  double run_raw = 0.0;
  double setup_norm = 0.0;
  double run_norm = 0.0;
  std::size_t evaluations = 0;
  std::size_t tool_runs = 0;
  std::size_t estimates = 0;
  std::size_t lease_waits = 0;
  double tool_s = 0.0;
  double hv = 0.0;
};

struct ExplorePass {
  std::vector<CampaignRecord> campaigns;
  /// Campaign 0's tool-backed explored points and (NWM) dataset, for the
  /// per-layer replays.
  std::vector<core::DesignPoint> fresh_points;
  model::Dataset dataset;
  std::vector<model::Point> decided_points;
  model::ControlModel::Config control;
};

ExplorePass explore_pass(const ExploreSpec& spec, const Options& o, bool traced,
                         std::size_t campaigns, Normalizer& norm,
                         Checker& checker, Outcome& out, Tracer* tracer) {
  ExplorePass pass;
  core::ProjectConfig project = spec.project;
  if (traced || !o.perturb_metric.empty()) project.backend = kTimedBackend;
  // The steady-state campaigns always ask through the wrapper, which paces
  // the calibration windows (and records spans when traced).
  for (std::size_t k = 0; k < campaigns; ++k) {
    core::DseConfig config = spec.make_config(campaign_seed(o.seed, k));
    if (spec.steady_state) config.optimizer = kTimedOptimizer;
    CampaignRecord rec;
    ++out.attempted;
    bool in_round = false;
    try {
      core::DseResult result;
      std::vector<opt::Objectives> front_objectives;
      {
        ScopedSpan root(tracer, "campaign", -1, static_cast<std::int64_t>(k));
        hooks().round = static_cast<std::int64_t>(k);
        std::unique_ptr<core::DseEngine> engine;
        norm.begin_round();
        in_round = true;
        const auto t0 = Clock::now();
        {
          ScopedSpan s(tracer, "engine.construct", root.id(), static_cast<std::int64_t>(k));
          engine = std::make_unique<core::DseEngine>(project, config);
        }
        rec.setup_raw = since(t0);
        {
          ScopedSpan s(tracer, "engine.run", root.id(), static_cast<std::int64_t>(k));
          hooks().parent = s.id();
          hooks().pacer = spec.steady_state ? &norm : nullptr;
          result = engine->run();
          hooks().pacer = nullptr;
        }
        norm.stop_clock();
        for (const auto& m : result.pareto) front_objectives.push_back(engine->to_objectives(m.metrics));
        if (k == 0 && engine->control_model() != nullptr) {
          pass.dataset = engine->control_model()->dataset();
          pass.control = config.control;
        }
        // Join the engine's worker threads before the closing calibration
        // window, so that no other thread of the process can run in it.
        engine.reset();
        norm.end_round();
        in_round = false;
      }
      rec.setup_norm = rec.setup_raw * norm.first_scale();
      rec.run_raw = norm.round_raw() - rec.setup_raw;
      rec.run_norm = norm.round_norm() - rec.setup_norm;
      rec.evaluations = result.stats.ga_evaluations;
      rec.tool_runs = result.stats.tool_runs;
      rec.estimates = result.stats.estimates;
      rec.lease_waits = result.stats.lease_waits;
      rec.tool_s = result.stats.simulated_tool_seconds;
      rec.hv = opt::hypervolume(front_objectives, o.hv_ref);
      if (k == 0) {
        for (const auto& p : result.explored) {
          if (!p.estimated && !p.failed) pass.fresh_points.push_back(p.params);
          if (spec.steady_state) {
            model::Point mp;
            for (const auto& param : config.space.params) {
              mp.push_back(static_cast<double>(p.params.at(param.name)));
            }
            pass.decided_points.push_back(std::move(mp));
          }
        }
      }
      // Output check: every front member is tool-backed and reproduced
      // exactly by an independent evaluation.
      std::string problem;
      if (result.pareto.empty()) problem = "campaign returned an empty front";
      for (const auto& m : result.pareto) {
        if (!problem.empty()) break;
        if (m.estimated || m.failed || m.approximate) {
          problem = "front member is not tool-backed: " + Checker::describe(m.params);
          break;
        }
        problem = checker.check(m.params, true, m.metrics.values);
      }
      if (!problem.empty()) add_problem(out, "campaign " + std::to_string(k) + ": " + problem);
    } catch (const std::exception& e) {
      hooks().pacer = nullptr;
      if (in_round) norm.end_round();
      add_problem(out, "campaign " + std::to_string(k) + " threw: " + e.what());
    }
    pass.campaigns.push_back(rec);
  }
  return pass;
}

struct ExactTotals {
  double tool_s = 0.0;
  double hv = 0.0;
};

/// Simulated seconds rounded to the millisecond. With parallel lanes the
/// broker adds each run's seconds in completion order, so the unrounded sum
/// differs between identical campaigns in its last bits.
double round_sim_seconds(double seconds) { return std::round(seconds * 1e3) / 1e3; }

ExactTotals exact_totals(const std::vector<CampaignRecord>& campaigns) {
  ExactTotals t;
  for (const auto& c : campaigns) {
    t.tool_s += c.tool_s;
    t.hv += c.hv;
  }
  t.tool_s = round_sim_seconds(t.tool_s);
  return t;
}

/// setup_s of the explore workloads: DseEngine construction (RTL parse per
/// lane, brokers), timed kSetupReps times on the run's campaign configs.
struct SetupTimes {
  std::vector<double> norm;
  std::vector<double> raw;
};

SetupTimes measure_setup(const ExploreSpec& spec, const Options& o, Normalizer& norm) {
  SetupTimes t;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    core::DseConfig config = spec.make_config(campaign_seed(o.seed, r));
    if (spec.steady_state) config.optimizer = kTimedOptimizer;
    norm.begin_round();
    const auto t0 = Clock::now();
    auto engine = std::make_unique<core::DseEngine>(spec.project, config);
    t.raw.push_back(since(t0));
    norm.stop_clock();
    engine.reset();  // joins its worker threads before the calibration window
    norm.end_round();
    t.norm.push_back(t.raw.back() * norm.first_scale());
  }
  return t;
}

double median_scale(const std::vector<CampaignRecord>& campaigns) {
  std::vector<double> s;
  for (const auto& c : campaigns) {
    if (c.run_raw > 0.0) s.push_back(c.run_norm / c.run_raw);
  }
  return s.empty() ? 1.0 : median(std::move(s));
}

/// Host-normalized mean of `reps` calls of `fn` (seconds), measured as one
/// round between calibration windows.
double timed_round(Normalizer& norm, std::size_t reps, const std::function<void(std::size_t)>& fn) {
  if (reps == 0) return 0.0;
  norm.begin_round();
  for (std::size_t i = 0; i < reps; ++i) fn(i);
  norm.end_round();
  return norm.round_norm() / static_cast<double>(reps);
}

/// The per-layer replays shared by both explore workloads: RTL parse,
/// pre-flight, boxing, script generation, report parse-back and a fresh
/// PointEvaluator::evaluate on campaign 0's own points.
struct PipelineReplay {
  double parse_us = 0.0;
  double preflight_ms = 0.0;
  double box_us = 0.0;
  double script_us = 0.0;
  double report_parse_us = 0.0;
  double evaluate_us = 0.0;
};

PipelineReplay replay_pipeline(const core::ProjectConfig& project, const core::DseConfig& config,
                               const std::vector<core::DesignPoint>& points, Normalizer& norm) {
  static volatile std::size_t sink = 0;
  PipelineReplay r;
  const std::string& source = project.sources.front().path;
  r.parse_us = 1e6 * timed_round(norm, 20, [&](std::size_t) {
    sink = sink + hdl::parse_file(source).file.modules.size();
  });
  r.preflight_ms = 1e3 * timed_round(norm, 5, [&](std::size_t) {
    sink = sink + analysis::preflight(project, config).diagnostics.size();
  });
  const hdl::ParseResult parsed = hdl::parse_file(source);
  const hdl::Module* module = parsed.file.find_module(project.top_module);
  if (module == nullptr || points.empty()) return r;

  std::vector<boxing::BoxResult> boxes(points.size());
  r.box_us = 1e6 * timed_round(norm, points.size(), [&](std::size_t i) {
    boxing::BoxConfig bc;
    bc.clock_port = project.clock_port;
    bc.parameters = points[i];
    bc.target_period_ns = project.target_period_ns;
    boxes[i] = boxing::generate_box(*module, bc);
  });
  std::vector<tcl::FrameConfig> frames;
  for (const auto& box : boxes) {
    tcl::FrameConfig frame;
    frame.sources = project.sources;
    frame.box_path = box.language == hdl::HdlLanguage::kVhdl ? "dovado_box.vhd" : "dovado_box.v";
    frame.box_language = box.language;
    frame.top = box.top_name;
    frame.part = project.part;
    frames.push_back(std::move(frame));
  }
  r.script_us = 1e6 * timed_round(norm, frames.size(), [&](std::size_t i) {
    sink = sink + tcl::generate_flow_script(frames[i]).size();
  });

  std::vector<std::vector<std::string>> reports;
  {
    Hooks& h = hooks();
    util::MutexLock lock(h.mu);
    reports = h.reports;
  }
  r.report_parse_us = 1e6 * timed_round(norm, reports.size(), [&](std::size_t i) {
    bool have_util = false;
    bool have_timing = false;
    for (const auto& chunk : reports[i]) {
      if (!have_util) have_util = edatool::UtilizationReport::parse_checked(chunk).report.has_value();
      if (!have_timing) have_timing = edatool::TimingReport::parse_checked(chunk).report.has_value();
    }
    sink = sink + (have_util ? 1 : 0) + (have_timing ? 1 : 0);
  });

  core::ProjectConfig plain = project;
  plain.backend = "vivado-sim";
  core::PointEvaluator evaluator(plain);  // private cache: every point is fresh
  r.evaluate_us = 1e6 * timed_round(norm, points.size(), [&](std::size_t i) {
    sink = sink + (evaluator.evaluate(points[i]).ok ? 1 : 0);
  });
  return r;
}

Outcome run_explore(const Options& o, const ExploreSpec& spec) {
  Outcome out;
  Normalizer norm(o.reference);
  core::ProjectConfig check_project = spec.project;
  Checker checker(check_project, spec.derived);

  // Warm-up campaign (not reported): page in code and the allocator.
  {
    Outcome scratch;
    Options warm = o;
    warm.seed = o.seed ^ 0x5eedull;
    (void)explore_pass(spec, warm, false, 1, norm, checker, scratch, nullptr);
  }
  // Engine construction is parse and allocation work, whatever the
  // campaign's mix: it is scaled by the map kernel alone.
  Reference setup_reference = o.reference;
  setup_reference.fp_weight = 0.0;
  Normalizer setup_norm(setup_reference);
  const SetupTimes setup = measure_setup(spec, o, setup_norm);

  if (!o.trace) {
    const std::size_t campaigns = work_units(spec.campaigns_per_second, o.seconds, kMinCampaigns);
    const ExplorePass pass = explore_pass(spec, o, false, campaigns, norm, checker, out, nullptr);
    // Throughput is taken per campaign and the median reported, so a round
    // hit by a stall elsewhere on the host does not move the run's figure.
    std::vector<double> run;
    std::vector<double> run_raw;
    std::vector<double> rate;
    std::vector<double> rate_raw;
    for (const auto& c : pass.campaigns) {
      if (c.run_raw <= 0.0) continue;
      run.push_back(c.run_norm);
      run_raw.push_back(c.run_raw);
      rate.push_back(static_cast<double>(c.evaluations) / c.run_norm);
      rate_raw.push_back(static_cast<double>(c.evaluations) / c.run_raw);
    }
    const ExactTotals exact = exact_totals(pass.campaigns);
    out.metrics = {
        {"setup_s", median(setup.norm), "s"},
        {"evals_per_s", median(rate), "1/s"},
        {"latency_p50_us", 1e6 * median(run), "us"},
        {"latency_samples", static_cast<double>(run.size()), "count"},
        {"tool_s", exact.tool_s, "sim_s"},
        {"hypervolume", exact.hv, "objective"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        // Diagnostics (not gated): the same timings without normalization.
        {"raw_setup_s", median(setup.raw), "s"},
        {"raw_evals_per_s", median(rate_raw), "1/s"},
        {"raw_latency_p50_us", 1e6 * median(run_raw), "us"},
        {"speed_index", norm.speed_index(), "ratio"},
    };
    out.guard_tripped = !norm.guard_ok() || !setup_norm.guard_ok();
    return out;
  }

  // Traced run: half the work untraced, the same campaigns again traced,
  // then the per-layer replays on campaign 0's points.
  const std::size_t campaigns =
      work_units(spec.campaigns_per_second, 0.5 * o.seconds, kMinCampaigns);
  const ExplorePass plain = explore_pass(spec, o, false, campaigns, norm, checker, out, nullptr);
  Tracer tracer;
  hooks().tracer = &tracer;
  {
    util::MutexLock lock(hooks().mu);
    hooks().reports.clear();
  }
  const ExplorePass traced =
      explore_pass(spec, o, true, campaigns, norm, checker, out, &tracer);
  hooks().tracer = nullptr;

  const ExactTotals a = exact_totals(plain.campaigns);
  const ExactTotals b = exact_totals(traced.campaigns);
  if (a.tool_s != b.tool_s || a.hv != b.hv) {
    add_problem(out, "traced campaigns diverged from untraced ones (tool_s/hypervolume)");
  }

  const core::DseConfig config0 = spec.make_config(campaign_seed(o.seed, 0));
  const PipelineReplay pipe = replay_pipeline(spec.project, config0, traced.fresh_points, norm);

  double run_norm = 0.0;
  double evals = 0.0;
  double tool_runs = 0.0;
  double estimates = 0.0;
  double lease_waits = 0.0;
  for (const auto& c : traced.campaigns) {
    run_norm += c.run_norm;
    evals += static_cast<double>(c.evaluations);
    tool_runs += static_cast<double>(c.tool_runs);
    estimates += static_cast<double>(c.estimates);
    lease_waits += static_cast<double>(c.lease_waits);
  }
  double plain_norm = 0.0;
  double plain_raw = 0.0;
  double plain_evals = 0.0;
  for (const auto& c : plain.campaigns) {
    plain_norm += c.run_norm;
    plain_raw += c.run_raw;
    plain_evals += static_cast<double>(c.evaluations);
  }
  const double scale = median_scale(traced.campaigns);
  const double flows = static_cast<double>(tracer.count("edatool.run_flow"));
  const double run_flow_s = scale * tracer.total_s("edatool.run_flow");
  const double run_flow_us = flows > 0 ? 1e6 * run_flow_s / flows : 0.0;
  const double lane_s = run_norm * static_cast<double>(spec.lanes);

  // NWM replays: add_sample over the campaign-0 dataset in insertion order,
  // then estimate/decide on campaign 0's points against the final model.
  double add_sample_total = 0.0;
  double estimate_us = 0.0;
  double decide_us = 0.0;
  std::size_t samples = 0;
  if (!traced.dataset.empty()) {
    model::ControlModel model(traced.control);
    const auto& pts = traced.dataset.points();
    const auto& vals = traced.dataset.values();
    samples = pts.size();
    add_sample_total = timed_round(norm, samples, [&](std::size_t i) {
                         model.add_sample(pts[i], vals[i]);
                       }) * static_cast<double>(samples);
    static volatile double dsink = 0.0;
    const auto& q = traced.decided_points;
    estimate_us = 1e6 * timed_round(norm, q.size(), [&](std::size_t i) {
      dsink = dsink + model.estimate(q[i]).front();
    });
    decide_us = 1e6 * timed_round(norm, q.size(), [&](std::size_t i) {
      dsink = dsink + static_cast<double>(model.decide(q[i]));
    });
  }
  // Campaign 0's share of model time: the replay reproduces its add_sample
  // sequence exactly; estimates and decisions at the final model size.
  double model_share = 0.0;
  if (samples > 0 && !traced.campaigns.empty()) {
    const CampaignRecord& c0 = traced.campaigns.front();
    const double decisions = static_cast<double>(c0.evaluations);
    const double model_s = add_sample_total + 1e-6 * (estimate_us * c0.estimates +
                                                      decide_us * decisions);
    model_share = model_s / c0.run_norm;
  }
  const double pipeline_s =
      run_flow_s + 1e-6 * tool_runs * (pipe.box_us + pipe.script_us + pipe.report_parse_us);

  const double ask_n = static_cast<double>(tracer.count("opt.ask"));
  const double tell_n = static_cast<double>(tracer.count("opt.tell"));
  const double self_s = scale * tracer.self_s("engine.run");

  const std::string dump = o.trace_path;
  if (!dump.empty() && !tracer.write_json(dump)) add_problem(out, "cannot write " + dump);

  out.metrics = {
      {"hdl.parse_us", pipe.parse_us, "us"},
      {"boxing.box_us", pipe.box_us, "us"},
      {"tcl.script_us", pipe.script_us, "us"},
      {"edatool.run_flow_us", run_flow_us, "us"},
      {"edatool.run_flow_share", run_flow_s / lane_s, "ratio"},
      {"edatool.flows", flows, "count"},
      {"edatool.report_parse_us", pipe.report_parse_us, "us"},
      {"core.evaluate_us", pipe.evaluate_us, "us"},
      {"core.hit_us", 0.0, "us"},
      {"core.engine_self_us", evals > 0 ? 1e6 * self_s / evals : 0.0, "us"},
      {"core.journal_append_us", 0.0, "us"},
      {"core.fresh_ratio", evals > 0 ? tool_runs / evals : 0.0, "ratio"},
      {"core.lease_waits", lease_waits, "count"},
      {"pipeline.share", pipeline_s / lane_s, "ratio"},
      {"model.add_sample_us", samples > 0 ? 1e6 * add_sample_total / samples : 0.0, "us"},
      {"model.samples", static_cast<double>(samples), "count"},
      {"model.estimate_us", estimate_us, "us"},
      {"model.decide_us", decide_us, "us"},
      {"model.estimate_ratio", evals > 0 ? estimates / evals : 0.0, "ratio"},
      {"model.share", model_share, "ratio"},
      {"opt.ask_us", ask_n > 0 ? 1e6 * scale * tracer.total_s("opt.ask") / ask_n : 0.0, "us"},
      {"opt.tell_us", tell_n > 0 ? 1e6 * scale * tracer.total_s("opt.tell") / tell_n : 0.0, "us"},
      {"analysis.preflight_ms", pipe.preflight_ms, "ms"},
      {"store.open_ms", 0.0, "ms"},
      {"store.lookup_us", 0.0, "us"},
      {"store.hits", 0.0, "count"},
      {"store.append_us", 0.0, "us"},
      {"store.appends", 0.0, "count"},
      {"serve.store_hit_us", 0.0, "us"},
      {"serve.fresh_us", 0.0, "us"},
      {"serve.repeat_us", 0.0, "us"},
      {"serve.request_path_us", 0.0, "us"},
      {"serve.protocol_us", 0.0, "us"},
      {"serve.fresh_eval_share", 0.0, "ratio"},
      {"serve.latency_p90_us", 0.0, "us"},
      {"serve.latency_p99_us", 0.0, "us"},
      {"serve.latency_samples", 0.0, "count"},
      {"host.speed_index", norm.speed_index(), "ratio"},
      {"host.io_index", 0.0, "ratio"},
      {"host.raw_evals_per_s", plain_raw > 0 ? plain_evals / plain_raw : 0.0, "1/s"},
      {"host.raw_setup_s", median(setup.raw), "s"},
      {"trace.overhead", plain_norm > 0 ? run_norm / plain_norm - 1.0 : 0.0, "ratio"},
  };
  out.guard_tripped = !norm.guard_ok() || !setup_norm.guard_ok();
  return out;
}

// ---------------------------------------------------------------------------
// serve_durable: a single-caller closed loop over Server::execute.
// ---------------------------------------------------------------------------

/// The store domain (every point pre-built) and the fresh domain (never in
/// the store) of the serve workload, both cv32e40p_fifo.
constexpr std::int64_t kStoreDepthLo = 8;
constexpr std::int64_t kDepths = 2048;
constexpr std::int64_t kFreshDepths = 8192;
constexpr std::int64_t kWidths = 16;  // DATA_WIDTH 8..128 step 8
constexpr std::int64_t kFreshDepthLo = kStoreDepthLo + kDepths;

core::DesignPoint domain_point(std::int64_t depth_lo, std::int64_t index) {
  return {{"DEPTH", depth_lo + index / kWidths}, {"DATA_WIDTH", 8 * (1 + index % kWidths)}};
}

enum class RequestClass { kStoreHit, kFresh, kRepeat };

struct ServeSample {
  RequestClass cls = RequestClass::kFresh;
  double raw_s = 0.0;
  double cpu_s = 0.0;  ///< thread CPU time of the request
  double norm_s = 0.0;
};

struct ServePass {
  std::vector<ServeSample> samples;
  std::vector<double> setup_norm;
  std::vector<double> setup_raw;
  std::vector<double> open_norm;
  double timed_norm = 0.0;
  double timed_raw = 0.0;
  double tool_s = 0.0;
  double hv = 0.0;
  std::size_t fresh = 0;
  std::size_t store_hits = 0;
  std::size_t store_appends = 0;
  std::vector<core::DesignPoint> fresh_points;
  std::vector<serve::Request> sample_requests;
  std::vector<serve::Response> sample_responses;
  double hit_us = 0.0;
  double request_path_us = 0.0;
};

serve::ServeConfig serve_config(const Options& o, bool wrapped) {
  serve::ServeConfig c;
  c.project = serve_project(o);
  if (wrapped) c.project.backend = kTimedBackend;
  c.broker.workers = 0;
  c.breaker.enabled = false;
  for (const auto& [name, weight] : std::vector<std::pair<std::string, double>>{
           {"interactive", 4.0}, {"batch", 2.0}, {"analytics", 1.0}}) {
    serve::ServeTenantConfig t;
    t.name = name;
    t.policy.weight = weight;  // zero rates: admission never sheds
    c.tenants.push_back(t);
  }
  return c;
}

ServePass serve_pass(const Options& o, bool traced, std::size_t requests,
                     Normalizer& norm, Checker& checker, const store::EvalStore& pristine,
                     Outcome& out, Tracer* tracer) {
  ServePass pass;
  const std::string tag = traced ? "traced" : "plain";
  const std::string store_copy = o.work_dir + "/serve-" + tag + ".dvstore";
  std::filesystem::copy_file(o.store_path, store_copy,
                             std::filesystem::copy_options::overwrite_existing);
  const std::size_t base_records = pristine.stats().records;

  std::shared_ptr<store::EvalStore> store;
  std::unique_ptr<serve::Server> server;
  std::string journal_path;
  for (int i = 0; i < kServeSetups; ++i) {
    server.reset();
    store.reset();
    journal_path = o.work_dir + "/serve-" + tag + "-" + std::to_string(i) + ".journal";
    norm.begin_round();
    const auto t0 = Clock::now();
    store::StoreOptions so;
    so.fsync_interval = 1;
    auto opened = store::EvalStore::open_writer(store_copy, so);
    if (!opened.store) throw std::runtime_error("cannot open the serve store: " + opened.error);
    store = std::move(opened.store);
    const auto t1 = Clock::now();
    serve::ServeConfig config = serve_config(o, traced || !o.perturb_metric.empty());
    config.broker.store = store;
    config.broker.journal_path = journal_path;
    server = std::make_unique<serve::Server>(config);
    norm.end_round();
    pass.setup_raw.push_back(norm.round_raw());
    pass.setup_norm.push_back(norm.round_norm());
    pass.open_norm.push_back(norm.normalize(std::chrono::duration<double>(t1 - t0).count()));
  }

  // The seeded request stream: store points and fresh points are drawn
  // without replacement, repeats uniformly from the points answered so far.
  std::mt19937_64 rng(splitmix64(o.seed));
  std::vector<std::int64_t> store_order(kDepths * kWidths);
  std::vector<std::int64_t> fresh_order(kFreshDepths * kWidths);
  std::iota(store_order.begin(), store_order.end(), 0);
  std::iota(fresh_order.begin(), fresh_order.end(), 0);
  std::shuffle(store_order.begin(), store_order.end(), rng);
  std::shuffle(fresh_order.begin(), fresh_order.end(), rng);
  std::size_t next_store = 0;
  std::size_t next_fresh = 0;
  const std::vector<std::string> tenants = {"interactive", "batch", "analytics"};
  std::vector<core::DesignPoint> answered;
  std::map<core::DesignPoint, serve::Response> first_answer;
  std::vector<opt::Objectives> answered_objectives;
  std::size_t wire_bytes = 0;

  struct Pending {
    serve::Request request;
    serve::Response response;
    RequestClass cls;
    bool parsed = true;
  };
  std::vector<Pending> round;
  round.reserve(kServeRound);
  std::size_t n = 0;
  while (n < requests) {
    // Generate the round's requests (untimed).
    round.clear();
    for (std::size_t i = 0; i < kServeRound && n + i < requests; ++i) {
      const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
      Pending p;
      if (u < 0.3 && !answered.empty()) {
        p.cls = RequestClass::kRepeat;
        p.request.point = answered[rng() % answered.size()];
      } else if (u < 0.7 && next_store < store_order.size()) {
        p.cls = RequestClass::kStoreHit;
        p.request.point = domain_point(kStoreDepthLo, store_order[next_store++]);
      } else if (next_fresh < fresh_order.size()) {
        p.cls = RequestClass::kFresh;
        p.request.point = domain_point(kFreshDepthLo, fresh_order[next_fresh++]);
      } else {
        throw std::runtime_error("serve request stream exhausted its fresh domain");
      }
      p.request.op = serve::RequestOp::kEval;
      p.request.tenant = tenants[rng() % tenants.size()];
      p.request.id = "r" + std::to_string(n + i);
      // A point answered earlier in this round is a repeat too.
      if (p.cls != RequestClass::kRepeat) answered.push_back(p.request.point);
      round.push_back(std::move(p));
    }
    // Timed: protocol parse, execute, protocol serialize per request.
    const std::size_t first = pass.samples.size();
    norm.begin_round();
    for (auto& p : round) {
      ScopedSpan span(tracer, "serve.request", -1, static_cast<std::int64_t>(n));
      hooks().parent = span.id();
      const double c0 = thread_cpu_s();
      const auto t0 = Clock::now();
      const std::string line = serve::serialize_request(p.request);
      serve::Request parsed;
      std::string error;
      if (!serve::parse_request(line, parsed, error)) {
        p.parsed = false;
      } else {
        p.response = server->execute(parsed);
        wire_bytes += serve::serialize_response(p.response).size();
      }
      ServeSample s;
      s.cls = p.cls;
      s.raw_s = since(t0);
      s.cpu_s = thread_cpu_s() - c0;
      pass.samples.push_back(s);
    }
    norm.end_round();
    pass.timed_raw += norm.round_raw();
    for (std::size_t i = first; i < pass.samples.size(); ++i) {
      ServeSample& sample = pass.samples[i];
      sample.norm_s = norm.normalize_split(sample.raw_s, sample.cpu_s);
      pass.timed_norm += sample.norm_s;
    }

    // Output checks (untimed).
    for (auto& p : round) {
      ++n;
      ++out.attempted;
      const core::DesignPoint& point = p.request.point;
      if (!p.parsed) {
        add_problem(out, "request " + p.request.id + " failed to round-trip the protocol");
        continue;
      }
      const serve::Response& r = p.response;
      if (r.status != serve::ResponseStatus::kOk && r.status != serve::ResponseStatus::kFailed) {
        add_problem(out, "request " + p.request.id + " answered " +
                             serve::response_status_name(r.status) + " " + r.reason + r.error);
        continue;
      }
      const bool ok = r.status == serve::ResponseStatus::kOk;
      std::string problem;
      if (p.cls == RequestClass::kStoreHit) {
        ++pass.store_hits;
        const auto rec = pristine.lookup(point, "vivado-sim", store::EvalStore::kTierHifi);
        // Failed answers carry no hit flags on the wire; their class is
        // checked through the record and the first answer instead.
        if (ok && !r.store_hit) {
          problem = "store point not answered from the store";
        } else if (!rec || rec->ok != ok || (ok && rec->metrics != r.metrics)) {
          problem = "store hit differs from the pre-built record";
        }
      } else if (p.cls == RequestClass::kFresh) {
        ++pass.fresh;
        if (ok && (r.store_hit || r.cache_hit)) {
          problem = "never-seen point answered from a cache";
        } else if (pass.fresh % kFreshCheckStride == 1) {
          problem = checker.check(point, ok, r.metrics);
        }
        if (pass.fresh_points.size() < 400) pass.fresh_points.push_back(point);
      } else {
        const auto it = first_answer.find(point);
        if (ok && !r.cache_hit) {
          problem = "repeated point not answered from the cache";
        } else if (it == first_answer.end() || it->second.status != r.status ||
                   it->second.metrics != r.metrics) {
          problem = "repeat differs from the first answer";
        }
      }
      if (!problem.empty()) add_problem(out, "request " + p.request.id + ": " + problem);
      first_answer.emplace(point, r);
      pass.tool_s += r.tool_seconds;
      if (ok) {
        answered_objectives.push_back(
            {r.metrics.at("lut"),
             -static_cast<double>(point.at("DEPTH") * point.at("DATA_WIDTH"))});
      }
      if (pass.sample_requests.size() < 400) {
        pass.sample_requests.push_back(p.request);
        pass.sample_responses.push_back(r);
      }
    }
  }
  if (wire_bytes == 0) add_problem(out, "no response was serialized");

  // Non-dominated set of every answered point.
  std::vector<opt::Objectives> front;
  for (const std::size_t i : opt::non_dominated_indices(answered_objectives)) {
    front.push_back(answered_objectives[i]);
  }
  pass.hv = opt::hypervolume(front, o.hv_ref);
  pass.tool_s = round_sim_seconds(pass.tool_s);

  // Traced run: a cache hit on the bare broker vs through execute(), in
  // alternating rounds; the request path is the median paired difference.
  const auto ok_answer = std::find_if(first_answer.begin(), first_answer.end(), [](const auto& a) {
    return a.second.status == serve::ResponseStatus::kOk;
  });
  if (traced && ok_answer != first_answer.end()) {
    const core::DesignPoint hit = ok_answer->first;
    static volatile std::size_t sink = 0;
    serve::Request request;
    request.op = serve::RequestOp::kEval;
    request.tenant = "interactive";
    request.point = hit;
    std::vector<double> bare;
    std::vector<double> path;
    for (int pair = 0; pair < 6; ++pair) {
      const double b = 1e6 * timed_round(norm, 2000, [&](std::size_t) {
        sink = sink + (server->broker().tool_evaluate(hit).cache_hit ? 1 : 0);
      });
      const double e = 1e6 * timed_round(norm, 2000, [&](std::size_t i) {
        request.id = "h" + std::to_string(i);
        sink = sink + (server->execute(request).cache_hit ? 1 : 0);
      });
      bare.push_back(b);
      path.push_back(e - b);
    }
    pass.hit_us = median(bare);
    pass.request_path_us = median(path);
  }
  pass.store_appends = server->stats().broker.store_appends;

  // Durability checks: one journal eval record per fresh answer, and the
  // store grew by exactly that many records.
  server.reset();
  store.reset();
  {
    core::SessionJournal::Replay replay;
    std::string error;
    auto journal = core::SessionJournal::open(journal_path, &replay, error);
    if (!journal) {
      add_problem(out, "cannot reopen the serve journal: " + error);
    } else if (replay.records.size() != pass.fresh) {
      add_problem(out, "journal holds " + std::to_string(replay.records.size()) +
                           " eval records for " + std::to_string(pass.fresh) + " fresh answers");
    }
  }
  {
    auto reopened = store::EvalStore::open_reader(store_copy);
    if (!reopened.store) {
      add_problem(out, "cannot reopen the serve store: " + reopened.error);
    } else if (reopened.store->stats().records != base_records + pass.fresh) {
      add_problem(out, "store grew by " +
                           std::to_string(reopened.store->stats().records - base_records) +
                           " records for " + std::to_string(pass.fresh) + " fresh answers");
    }
  }
  std::error_code ignored;
  std::filesystem::remove(store_copy, ignored);
  std::filesystem::remove(store_copy + ".lock", ignored);
  for (int i = 0; i < kServeSetups; ++i) {
    std::filesystem::remove(o.work_dir + "/serve-" + tag + "-" + std::to_string(i) + ".journal",
                            ignored);
  }
  return pass;
}

/// Requests answered per second at the median latency of each request
/// class, weighted by the run's class counts. Fresh requests pay two fsyncs
/// whose tails swing with other tenants' disk traffic (neither a stall nor
/// its absence is the program's doing), so the run's throughput is taken
/// from per-class medians rather than from the wall-clock sum.
double median_rate(const ServePass& pass, bool raw) {
  double total_s = 0.0;
  for (const RequestClass cls : {RequestClass::kStoreHit, RequestClass::kFresh, RequestClass::kRepeat}) {
    std::vector<double> v;
    for (const auto& s : pass.samples) {
      if (s.cls == cls) v.push_back(raw ? s.raw_s : s.norm_s);
    }
    total_s += median(v) * static_cast<double>(v.size());
  }
  return total_s > 0.0 ? static_cast<double>(pass.samples.size()) / total_s : 0.0;
}

double class_mean_us(const ServePass& pass, RequestClass cls) {
  std::vector<double> v;
  for (const auto& s : pass.samples) {
    if (s.cls == cls) v.push_back(s.norm_s);
  }
  return 1e6 * mean(v);
}

Outcome run_serve(const Options& o) {
  Outcome out;
  Normalizer norm(o.reference, o.work_dir + "/io-probe");
  auto pristine_open = store::EvalStore::open_reader(o.store_path);
  if (!pristine_open.store) {
    throw std::runtime_error("cannot read the pre-built store: " + pristine_open.error);
  }
  const store::EvalStore& pristine = *pristine_open.store;
  Checker checker(serve_project(o), {});

  if (!o.trace) {
    const std::size_t requests =
        std::min(kMaxRequests, work_units(kRequestsPerSecond, o.seconds, kMinRequests));
    const ServePass pass = serve_pass(o, false, requests, norm, checker,
                                      pristine, out, nullptr);
    std::vector<double> lat;
    std::vector<double> lat_raw;
    for (const auto& s : pass.samples) {
      lat.push_back(s.norm_s);
      lat_raw.push_back(s.raw_s);
    }
    out.metrics = {
        {"setup_s", median(pass.setup_norm), "s"},
        {"evals_per_s", median_rate(pass, false), "1/s"},
        {"latency_p50_us", 1e6 * median(lat), "us"},
        {"latency_samples", static_cast<double>(lat.size()), "count"},
        {"tool_s", pass.tool_s, "sim_s"},
        {"hypervolume", pass.hv, "objective"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        // Diagnostics (not gated): the same timings without normalization.
        {"raw_setup_s", median(pass.setup_raw), "s"},
        {"raw_evals_per_s", median_rate(pass, true), "1/s"},
        {"wall_evals_per_s", static_cast<double>(pass.samples.size()) / pass.timed_norm, "1/s"},
        {"raw_latency_p50_us", 1e6 * median(lat_raw), "us"},
        {"speed_index", norm.speed_index(), "ratio"},
        {"io_index", norm.io_index(), "ratio"},
    };
    out.guard_tripped = !norm.guard_ok();
    return out;
  }

  const std::size_t requests =
      std::min(kMaxRequests, work_units(kRequestsPerSecond, 0.5 * o.seconds, kMinRequests));
  const ServePass plain =
      serve_pass(o, false, requests, norm, checker, pristine, out, nullptr);
  Tracer tracer;
  hooks().tracer = &tracer;
  const ServePass traced =
      serve_pass(o, true, requests, norm, checker, pristine, out, &tracer);
  hooks().tracer = nullptr;
  if (plain.tool_s != traced.tool_s || plain.hv != traced.hv) {
    add_problem(out, "traced serve run diverged from the untraced one (tool_s/hypervolume)");
  }

  static volatile std::size_t sink = 0;
  // Store lookups on store-domain points, appends of fresh answers to a
  // scratch store with the workload's fsync policy.
  std::vector<core::DesignPoint> lookups;
  for (std::int64_t i = 0; i < 2000; ++i) lookups.push_back(domain_point(kStoreDepthLo, (i * 7919) % (kDepths * kWidths)));
  const double lookup_us = 1e6 * timed_round(norm, lookups.size(), [&](std::size_t i) {
    sink = sink + (pristine.lookup(lookups[i], "vivado-sim", store::EvalStore::kTierHifi) ? 1 : 0);
  });
  core::ProjectConfig plain_project = serve_project(o);
  core::PointEvaluator evaluator(plain_project);
  std::vector<core::EvalResult> fresh_results(traced.fresh_points.size());
  const double evaluate_us = 1e6 * timed_round(norm, traced.fresh_points.size(), [&](std::size_t i) {
    fresh_results[i] = evaluator.evaluate(traced.fresh_points[i]);
  });
  double append_us = 0.0;
  {
    const std::string path = o.work_dir + "/replay.dvstore";
    store::StoreOptions so;
    so.fsync_interval = 1;
    auto scratch = store::EvalStore::open_writer(path, so);
    if (!scratch.store) throw std::runtime_error("cannot open a scratch store: " + scratch.error);
    append_us = 1e6 * timed_round(norm, fresh_results.size(), [&](std::size_t i) {
      store::StoreRecord rec;
      rec.params = traced.fresh_points[i];
      rec.backend = "vivado-sim";
      rec.tier = store::EvalStore::kTierHifi;
      rec.metrics = fresh_results[i].metrics.values;
      rec.ok = fresh_results[i].ok;
      rec.tool_seconds = fresh_results[i].tool_seconds;
      sink = sink + (scratch.store->append(std::move(rec)) ? 1 : 0);
    });
    scratch.store.reset();
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
    std::filesystem::remove(path + ".lock", ignored);
  }
  double journal_us = 0.0;
  {
    const std::string path = o.work_dir + "/replay.journal";
    std::string error;
    auto journal = core::SessionJournal::open(path, nullptr, error);
    if (!journal) throw std::runtime_error("cannot open a scratch journal: " + error);
    journal_us = 1e6 * timed_round(norm, fresh_results.size(), [&](std::size_t i) {
      core::JournalRecord rec;
      rec.params = traced.fresh_points[i];
      rec.metrics = fresh_results[i].metrics;
      rec.ok = fresh_results[i].ok;
      rec.tool_seconds = fresh_results[i].tool_seconds;
      sink = sink + (journal->append(rec) ? 1 : 0);
    });
    journal.reset();
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
  const double protocol_us = 1e6 * timed_round(norm, traced.sample_requests.size(), [&](std::size_t i) {
    serve::Request parsed;
    std::string error;
    sink = sink + (serve::parse_request(serve::serialize_request(traced.sample_requests[i]), parsed, error) ? 1 : 0);
    sink = sink + serve::serialize_response(traced.sample_responses[i]).size();
  });
  const double parse_us = 1e6 * timed_round(norm, 20, [&](std::size_t) {
    sink = sink + hdl::parse_file(plain_project.sources.front().path).file.modules.size();
  });

  std::vector<double> lat;
  for (const auto& s : plain.samples) lat.push_back(s.norm_s);
  const double fresh_us = class_mean_us(plain, RequestClass::kFresh);
  const double flows = static_cast<double>(tracer.count("edatool.run_flow"));
  double scale = plain.timed_raw > 0 ? traced.timed_norm / traced.timed_raw : 1.0;
  const double run_flow_us = flows > 0 ? 1e6 * scale * tracer.total_s("edatool.run_flow") / flows : 0.0;
  const double answered_requests = static_cast<double>(plain.samples.size());

  const std::string dump = o.trace_path;
  if (!dump.empty() && !tracer.write_json(dump)) add_problem(out, "cannot write " + dump);

  out.metrics = {
      {"hdl.parse_us", parse_us, "us"},
      {"boxing.box_us", 0.0, "us"},
      {"tcl.script_us", 0.0, "us"},
      {"edatool.run_flow_us", run_flow_us, "us"},
      {"edatool.run_flow_share", traced.timed_norm > 0 ? scale * tracer.total_s("edatool.run_flow") / traced.timed_norm : 0.0, "ratio"},
      {"edatool.flows", flows, "count"},
      {"edatool.report_parse_us", 0.0, "us"},
      {"core.evaluate_us", evaluate_us, "us"},
      {"core.hit_us", traced.hit_us, "us"},
      {"core.engine_self_us", 0.0, "us"},
      {"core.journal_append_us", journal_us, "us"},
      {"core.fresh_ratio", static_cast<double>(plain.fresh) / answered_requests, "ratio"},
      {"core.lease_waits", 0.0, "count"},
      {"pipeline.share", 0.0, "ratio"},
      {"model.add_sample_us", 0.0, "us"},
      {"model.samples", 0.0, "count"},
      {"model.estimate_us", 0.0, "us"},
      {"model.decide_us", 0.0, "us"},
      {"model.estimate_ratio", 0.0, "ratio"},
      {"model.share", 0.0, "ratio"},
      {"opt.ask_us", 0.0, "us"},
      {"opt.tell_us", 0.0, "us"},
      {"analysis.preflight_ms", 0.0, "ms"},
      {"store.open_ms", 1e3 * median(plain.open_norm), "ms"},
      {"store.lookup_us", lookup_us, "us"},
      {"store.hits", static_cast<double>(plain.store_hits), "count"},
      {"store.append_us", append_us, "us"},
      {"store.appends", static_cast<double>(plain.store_appends), "count"},
      {"serve.store_hit_us", class_mean_us(plain, RequestClass::kStoreHit), "us"},
      {"serve.fresh_us", fresh_us, "us"},
      {"serve.repeat_us", class_mean_us(plain, RequestClass::kRepeat), "us"},
      {"serve.request_path_us", traced.request_path_us, "us"},
      {"serve.protocol_us", protocol_us, "us"},
      {"serve.fresh_eval_share", fresh_us > 0 ? (evaluate_us + journal_us + append_us) / fresh_us : 0.0, "ratio"},
      {"serve.latency_p90_us", 1e6 * quantile(lat, 0.90), "us"},
      {"serve.latency_p99_us", 1e6 * quantile(lat, 0.99), "us"},
      {"serve.latency_samples", static_cast<double>(lat.size()), "count"},
      {"host.speed_index", norm.speed_index(), "ratio"},
      {"host.io_index", norm.io_index(), "ratio"},
      {"host.raw_evals_per_s", median_rate(plain, true), "1/s"},
      {"host.raw_setup_s", median(plain.setup_raw), "s"},
      {"trace.overhead", plain.timed_norm > 0 ? traced.timed_norm / plain.timed_norm - 1.0 : 0.0, "ratio"},
  };
  out.guard_tripped = !norm.guard_ok();
  return out;
}

}  // namespace

Outcome run_workload(const Options& o) {
  util::Log::set_level(util::LogLevel::kError);
  register_wrappers();
  hooks().perturb_metric = o.perturb_metric;
  if (!o.perturb_metric.empty()) (void)report_row(o.perturb_metric);

  std::atomic<bool> stop{false};
  std::thread busy;
  if (o.busy_thread) {
    busy = std::thread([&stop] {
      std::uint64_t x = 1;
      while (!stop.load(std::memory_order_relaxed)) x = map_kernel(100) + x;
    });
  }
  Outcome out;
  try {
    if (o.workload == "explore_fresh") {
      out = run_explore(o, explore_fresh_spec(o));
    } else if (o.workload == "explore_nwm") {
      out = run_explore(o, explore_nwm_spec(o));
    } else if (o.workload == "serve_durable") {
      out = run_serve(o);
    } else {
      throw std::runtime_error("unknown workload '" + o.workload + "'");
    }
  } catch (...) {
    stop = true;
    if (busy.joinable()) busy.join();
    throw;
  }
  stop = true;
  if (busy.joinable()) busy.join();
  return out;
}

void prebuild_store(const std::string& rtl_dir, const std::string& out_path) {
  util::Log::set_level(util::LogLevel::kError);
  Options o;
  o.rtl_dir = rtl_dir;
  store::StoreOptions so;
  so.fsync_interval = 4096;
  auto opened = store::EvalStore::open_writer(out_path, so);
  if (!opened.store) throw std::runtime_error("cannot create the store: " + opened.error);
  std::shared_ptr<store::EvalStore> store = std::move(opened.store);
  core::BrokerConfig bc;
  bc.store = store;
  bc.campaign_id = "perfbench-prebuild";
  core::EvaluationBroker broker(serve_project(o), bc);
  for (std::int64_t i = 0; i < kDepths * kWidths; ++i) {
    (void)broker.tool_evaluate(domain_point(kStoreDepthLo, i));
  }
  std::string error;
  if (!store->flush(&error)) throw std::runtime_error("cannot flush the store: " + error);
  if (store->stats().records != static_cast<std::size_t>(kDepths * kWidths)) {
    throw std::runtime_error("pre-built store has the wrong record count");
  }
}

}  // namespace perfbench
