#include "src/core/evaluator.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/boxing/box.hpp"
#include "src/core/supervisor.hpp"
#include "src/edatool/power.hpp"
#include "src/edatool/report.hpp"
#include "src/hdl/frontend.hpp"
#include "src/util/logging.hpp"
#include "src/util/strings.hpp"

namespace dovado::core {

const char* failure_class_name(FailureClass cls) {
  switch (cls) {
    case FailureClass::kNone: return "none";
    case FailureClass::kTransient: return "transient";
    case FailureClass::kDeterministic: return "deterministic";
    case FailureClass::kTimeout: return "timeout";
  }
  return "unknown";
}

std::optional<EvalResult> EvaluationCache::lookup(const DesignPoint& point) const {
  util::MutexLock lock(mutex_);
  auto it = entries_.find(point);
  if (it == entries_.end()) return std::nullopt;
  EvalResult hit = it->second;
  hit.cache_hit = true;
  hit.tool_seconds = 0.0;  // cached answers are free
  return hit;
}

bool EvaluationCache::contains(const DesignPoint& point) const {
  util::MutexLock lock(mutex_);
  return entries_.find(point) != entries_.end();
}

EvaluationCache::Claim EvaluationCache::claim(const DesignPoint& point) {
  util::MutexLock lock(mutex_);
  for (;;) {
    if (auto it = entries_.find(point); it != entries_.end()) {
      Claim hit{ClaimKind::kHit, it->second};
      hit.result.cache_hit = true;
      hit.result.tool_seconds = 0.0;  // cached answers are free
      return hit;
    }
    auto fit = in_flight_.find(point);
    if (fit == in_flight_.end()) {
      in_flight_.emplace(point, std::make_shared<InFlight>());
      return Claim{ClaimKind::kLeader, {}};
    }
    std::shared_ptr<InFlight> flight = fit->second;
    while (!flight->published && !flight->abandoned) flight->done.wait(mutex_);
    if (flight->published) {
      Claim joined{ClaimKind::kJoined, flight->result};
      joined.result.joined = true;
      joined.result.tool_seconds = 0.0;  // the leader paid for the run
      return joined;
    }
    // The leader abandoned: retry, possibly becoming the new leader.
  }
}

void EvaluationCache::publish(const DesignPoint& point, const EvalResult& result) {
  util::MutexLock lock(mutex_);
  entries_[point] = result;
  auto it = in_flight_.find(point);
  if (it == in_flight_.end()) return;
  it->second->published = true;
  it->second->result = result;
  it->second->done.notify_all();
  in_flight_.erase(it);
}

void EvaluationCache::abandon(const DesignPoint& point) {
  util::MutexLock lock(mutex_);
  auto it = in_flight_.find(point);
  if (it == in_flight_.end()) return;
  it->second->abandoned = true;
  it->second->done.notify_all();
  in_flight_.erase(it);
}

void EvaluationCache::store(const DesignPoint& point, const EvalResult& result) {
  util::MutexLock lock(mutex_);
  entries_[point] = result;
}

std::size_t EvaluationCache::size() const {
  util::MutexLock lock(mutex_);
  return entries_.size();
}

PointEvaluator::PointEvaluator(ProjectConfig config, std::shared_ptr<EvaluationCache> cache)
    : config_(std::move(config)),
      cache_(cache ? std::move(cache) : std::make_shared<EvaluationCache>()) {
  // Parsing step: extract the module interface (name, parameters, ports).
  bool found = false;
  for (const auto& source : config_.sources) {
    const hdl::ParseResult parsed = hdl::parse_file(source.path);
    if (!parsed.ok) {
      std::string detail = parsed.diagnostics.empty() ? "no modules recovered"
                                                      : parsed.diagnostics.front().message;
      throw std::runtime_error("cannot parse '" + source.path + "': " + detail);
    }
    if (const hdl::Module* m = parsed.file.find_module(config_.top_module)) {
      module_ = *m;
      found = true;
    }
  }
  if (!found) {
    throw std::runtime_error("top module '" + config_.top_module +
                             "' not found in the given sources");
  }

  // Boxing step, the part fixed per project: box name, clock, period and
  // the text around the point's values.
  boxing::BoxConfig box_config;
  box_config.clock_port = config_.clock_port;
  box_config.target_period_ns = config_.target_period_ns;
  box_.emplace(module_, box_config);

  // Backend step: resolve the configured evaluation backend through the
  // registry (throws with a did-you-mean message on an unknown name).
  backend_ = edatool::BackendRegistry::create(config_.backend);

  // Script generation step: customize the TCL frame. Everything it holds is
  // fixed per project (the box's path, language and top follow the module,
  // not the point), so the frame and its script are built once here.
  tcl::FrameConfig& frame = flow_.frame;
  frame.sources = config_.sources;
  frame.box_path = module_.language == hdl::HdlLanguage::kVhdl ? "dovado_box.vhd"
                                                               : "dovado_box.v";
  frame.box_language = module_.language;
  frame.xdc_path = "dovado_box.xdc";
  frame.top = box_config.box_name;
  frame.part = config_.part;
  frame.synth_directive = config_.synth_directive;
  frame.place_directive = config_.place_directive;
  frame.route_directive = config_.route_directive;
  frame.run_implementation = config_.run_implementation;
  frame.incremental_synth = config_.incremental_synth;
  frame.incremental_impl = config_.incremental_impl;
  if (const auto problems = tcl::validate_frame(frame); !problems.empty()) {
    flow_error_ = "invalid flow configuration: " + problems.front();
  } else {
    flow_.script = tcl::generate_flow_script(frame);
  }
  flow_.period_ns = config_.target_period_ns;
}

EvalResult PointEvaluator::evaluate(const DesignPoint& point,
                                    double deadline_tool_seconds) {
  const EvaluationCache::Claim claim = cache_->claim(point);
  if (claim.kind != EvaluationCache::ClaimKind::kLeader) return claim.result;

  // This evaluator leads the point. The *final* outcome is deterministic
  // for a given point — the supervisor retries transient faults internally,
  // so what is left after supervision (success, deterministic failure, or a
  // retry-exhausted quarantine failure) is published: memoized and handed
  // to single-flight joiners alike. Re-claiming a quarantined point is a
  // cache hit on its failure, never another tool run.
  //
  // The exception is a deadline-truncated run: that outcome belongs to the
  // *requester's* budget, not the point, so the claim is abandoned instead
  // (joiners wake and re-claim; the next leader gets a fresh run).
  try {
    EvalResult result =
        supervisor_ ? supervisor_->supervise(
                          point, [&](int attempt) { return run_pipeline(point, attempt); },
                          deadline_tool_seconds)
                    : run_pipeline(point, 0);
    if (result.ok && derived_metrics_) {
      for (const DerivedMetric& derived : *derived_metrics_) {
        result.metrics.values[derived.name] = derived.compute(point, result.metrics);
      }
    }
    if (result.deadline_truncated) {
      cache_->abandon(point);
    } else {
      cache_->publish(point, result);
    }
    return result;
  } catch (...) {
    cache_->abandon(point);
    throw;
  }
}

EvalResult PointEvaluator::run_pipeline(const DesignPoint& point, int attempt) {
  EvalResult result;

  // Boxing step: sandbox the module, apply the parametrization and the
  // clock constraint at the box entry point. The template holds all that is
  // fixed per project; the point only binds its values.
  std::string box_source;
  const std::string box_error = box_->render(point, box_source);
  if (!box_error.empty()) {
    result.error = "boxing failed: " + box_error;
    return result;
  }

  if (!flow_error_.empty()) {
    result.error = flow_error_;
    return result;
  }
  backend_->add_virtual_file(flow_.frame.box_path, std::move(box_source));
  backend_->add_virtual_file(flow_.frame.xdc_path, box_->xdc());

  // Tool step: hand the script (and, for model-driven backends, the frame
  // itself) to the configured backend.
  backend_->set_fault_context(edatool::fault_point_key(point), attempt);
  edatool::FlowOutcome outcome = backend_->run_flow(flow_);
  result.tool_seconds = outcome.tool_seconds;
  if (!outcome.ok) {
    result.error = std::move(outcome.error);
    return result;
  }

  // Results step: extract the metrics from the tool's textual reports.
  // Checked parsers: a truncated or garbled report must surface as a
  // diagnostic failure here, not as silently-zero metrics downstream. Every
  // chunk is offered to every parser still waiting for its report; a chunk
  // a parser does not claim costs no diagnostic string.
  std::optional<edatool::UtilizationReport> util_report;
  std::optional<edatool::TimingReport> timing_report;
  std::optional<edatool::PowerEstimate> power;
  std::string report_diag;
  for (const auto& chunk : outcome.reports) {
    if (!util_report) {
      auto checked = edatool::UtilizationReport::parse_if_present(chunk);
      if (checked.report) {
        util_report = std::move(checked.report);
      } else if (checked.attempted && report_diag.empty()) {
        report_diag = checked.error;
      }
    }
    if (!timing_report) {
      auto checked = edatool::TimingReport::parse_if_present(chunk);
      if (checked.report) {
        timing_report = std::move(checked.report);
      } else if (checked.attempted && report_diag.empty()) {
        report_diag = checked.error;
      }
    }
    if (!power) {
      edatool::PowerEstimate parsed;
      if (edatool::parse_power_report(chunk, parsed)) power = parsed;
    }
  }
  if (!util_report || !timing_report) {
    result.error = "tool produced no parsable reports";
    if (!report_diag.empty()) result.error += " (" + report_diag + ")";
    return result;
  }

  auto& m = result.metrics.values;
  m.reserve(16);  // room for every metric below: one allocation
  m["lut"] = static_cast<double>(util_report->used("Slice LUTs"));
  m["lut_logic"] = static_cast<double>(util_report->used("LUT as Logic"));
  m["lut_mem"] = static_cast<double>(util_report->used("LUT as Memory"));
  m["ff"] = static_cast<double>(util_report->used("Slice Registers"));
  m["bram"] = static_cast<double>(util_report->used("Block RAM Tile"));
  m["dsp"] = static_cast<double>(util_report->used("DSPs"));
  if (util_report->find("URAM") != nullptr) {
    m["uram"] = static_cast<double>(util_report->used("URAM"));
  }
  if (power) {
    m["power_w"] = power->total_w();
    m["power_static_w"] = power->static_w;
    m["power_dynamic_w"] = power->dynamic_w;
  }
  m["wns_ns"] = timing_report->slack_ns;
  m["delay_ns"] = timing_report->data_path_ns;
  m["fmax_mhz"] = edatool::fmax_mhz(timing_report->requirement_ns, timing_report->slack_ns);
  result.ok = true;
  return result;
}

EvaluatorPool::Lease::~Lease() {
  if (pool_ != nullptr) pool_->release(evaluator_);
}

void EvaluatorPool::add(std::unique_ptr<PointEvaluator> evaluator) {
  util::MutexLock lock(mutex_);
  if (owned_.empty()) {
    module_snapshot_ = std::make_unique<hdl::Module>(evaluator->module());
    free_parameters_snapshot_ = evaluator->free_parameters();
  }
  idle_.push_back(evaluator.get());
  owned_.push_back(std::move(evaluator));
  available_.notify_one();
}

EvaluatorPool::Lease EvaluatorPool::acquire() {
  util::MutexLock lock(mutex_);
  if (owned_.empty()) throw std::logic_error("EvaluatorPool::acquire on an empty pool");
  if (idle_.empty()) {
    ++lease_waits_;
    while (idle_.empty()) available_.wait(mutex_);
  }
  PointEvaluator* evaluator = idle_.back();
  idle_.pop_back();
  return Lease(this, evaluator);
}

void EvaluatorPool::release(PointEvaluator* evaluator) {
  {
    util::MutexLock lock(mutex_);
    idle_.push_back(evaluator);
  }
  available_.notify_one();
}

std::size_t EvaluatorPool::size() const {
  util::MutexLock lock(mutex_);
  return owned_.size();
}

std::size_t EvaluatorPool::lease_waits() const {
  util::MutexLock lock(mutex_);
  return lease_waits_;
}

const hdl::Module& EvaluatorPool::module() const {
  if (module_snapshot_ == nullptr) {
    throw std::logic_error("EvaluatorPool::module on an empty pool");
  }
  return *module_snapshot_;
}

const std::vector<hdl::Parameter>& EvaluatorPool::free_parameters() const {
  if (module_snapshot_ == nullptr) {
    throw std::logic_error("EvaluatorPool::free_parameters on an empty pool");
  }
  return free_parameters_snapshot_;
}

std::string space_parameter_error(const DesignSpace& space, const hdl::Module& module) {
  const std::vector<hdl::Parameter> free = module.free_parameters();
  for (const auto& spec : space.params) {
    const bool found = std::any_of(free.begin(), free.end(), [&](const hdl::Parameter& p) {
      return module.language == hdl::HdlLanguage::kVhdl ? util::iequals(p.name, spec.name)
                                                        : p.name == spec.name;
    });
    if (!found) {
      return "design-space parameter '" + spec.name + "' is not a free parameter of module '" +
             module.name + "'";
    }
  }
  return {};
}

}  // namespace dovado::core
