#include "src/edatool/analytic_backend.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "src/edatool/power.hpp"
#include "src/edatool/report.hpp"
#include "src/edatool/techmap.hpp"
#include "src/edatool/timing.hpp"
#include "src/fpga/board.hpp"
#include "src/hdl/expr.hpp"
#include "src/hdl/frontend.hpp"
#include "src/netlist/ir.hpp"
#include "src/edatool/vivado_sim.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"

namespace dovado::edatool {

namespace {

/// Deterministic multiplicative noise in [1-amp, 1+amp], keyed by the
/// design hash and a per-metric salt. Pure — the same point always gets
/// the same perturbation, so the estimator is deterministic while staying
/// visibly different from the high-fidelity answer.
double noise_factor(std::uint64_t design_hash, std::uint64_t salt, double amp) {
  const double u =
      static_cast<double>(util::mix64(design_hash ^ (salt * 0x9e3779b97f4a7c15ULL)) >> 11) *
      0x1.0p-53;
  return 1.0 + amp * (2.0 * u - 1.0);
}

std::int64_t perturb_count(std::int64_t value, std::uint64_t design_hash,
                           std::uint64_t salt, double amp) {
  if (value <= 0) return value;
  const double scaled =
      static_cast<double>(value) * noise_factor(design_hash, salt, amp);
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(scaled)));
}

}  // namespace

AnalyticBackend::AnalyticBackend() {
  info_.name = "analytic";
  info_.fidelity = BackendFidelity::kLow;
  info_.supports_implementation = false;  // estimates stop at synthesis stage
  info_.supports_incremental = false;
  info_.supports_fault_injection = true;
}

std::optional<std::string> AnalyticBackend::read_file(const std::string& path) const {
  auto it = vfs_.find(path);
  if (it != vfs_.end()) return it->second;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool AnalyticBackend::ingest_source(const std::string& path, hdl::HdlLanguage lang,
                                    std::string& error) {
  // Disk sources never change within a session; virtual files (the box) do,
  // so only non-vfs paths are memoized.
  const bool is_virtual = vfs_.count(path) != 0;
  if (!is_virtual) {
    auto memo = parsed_paths_.find(path);
    if (memo != parsed_paths_.end()) {
      if (!memo->second) error = "ERROR: [Common 17-55] file not found: " + path;
      return memo->second;
    }
  }
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    if (!is_virtual) parsed_paths_[path] = false;
    error = "ERROR: [Common 17-55] file not found: " + path;
    return false;
  }
  hdl::LexedSource lexed = hdl::lex_source(*text, lang);
  const hdl::ParseResult parsed = hdl::parse_source(lexed, lang, path);
  if (!parsed.ok) {
    std::string detail = parsed.diagnostics.empty() ? "no modules found"
                                                    : parsed.diagnostics.front().message;
    if (!is_virtual) parsed_paths_[path] = false;
    error = "ERROR: [Synth 8-???] cannot parse '" + path + "': " + detail;
    return false;
  }
  const auto tokens = std::make_shared<const std::vector<hdl::Token>>(std::move(lexed.tokens));
  for (const auto& m : parsed.file.modules) {
    modules_[util::to_lower(m.name)] = SourceEntry{m, tokens};
  }
  if (!is_virtual) parsed_paths_[path] = true;
  return true;
}

const AnalyticBackend::SourceEntry* AnalyticBackend::find_module(
    const std::string& name) const {
  auto it = modules_.find(util::to_lower(name));
  return it == modules_.end() ? nullptr : &it->second;
}

FlowOutcome AnalyticBackend::run_flow(const FlowRequest& request) {
  ++flows_run_;
  FlowOutcome outcome;

  auto charge = [&](double seconds) {
    outcome.tool_seconds += seconds;
    total_seconds_ += seconds;
  };
  auto fail = [&](std::string error) {
    outcome.error = std::move(error);
    return outcome;
  };

  // Fault-injection semantics mirror the simulated Vivado session: crashes
  // and persistent aborts use the same error text (so the supervisor
  // classifies them identically), hangs inflate the run cost, and corrupt
  // reports garble the emitted tables.
  double charge_factor = 1.0;
  bool corrupt_reports = false;
  if (faults_) {
    const FaultInjector::Decision fault = faults_->decide(fault_point_key_, fault_attempt_);
    switch (fault.kind) {
      case FaultKind::kCrash:
        charge(0.01);
        return fail(
            "ERROR: [Common 17-179] Vivado process terminated abnormally (simulated "
            "transient crash)");
      case FaultKind::kPersistentAbort:
        charge(0.005);
        return fail(
            "ERROR: [Common 17-179] Vivado process terminated abnormally (simulated "
            "persistent abort)");
      case FaultKind::kHang:
        charge_factor = fault.hang_factor;
        break;
      case FaultKind::kCorruptReport:
        corrupt_reports = true;
        break;
      case FaultKind::kNone:
        break;
    }
  }

  const tcl::FrameConfig& frame = request.frame;
  const std::optional<fpga::Device> device = fpga::resolve_device(frame.part);
  if (!device) return fail("ERROR: [Common 17-69] invalid part '" + frame.part + "'");

  // Elaboration: parse the project sources (memoized) plus the in-memory
  // box, then resolve the flow's top the same way the simulated Vivado
  // does — a module with a registered netlist generator elaborates
  // directly, anything else is a wrapper whose single instantiation names
  // the target and its parameter overrides.
  std::string error;
  for (const auto& source : frame.sources) {
    if (!ingest_source(source.path, source.language, error)) return fail(std::move(error));
  }
  if (!ingest_source(frame.box_path, frame.box_language, error)) {
    return fail(std::move(error));
  }

  const SourceEntry* top_entry = find_module(frame.top);
  if (top_entry == nullptr) {
    return fail("ERROR: [Synth 8-3348] cannot find top module '" + frame.top + "'");
  }
  std::string target_name = top_entry->module.name;
  util::FlatMap<std::int64_t> overrides;
  if (!netlist::GeneratorRegistry::find(target_name).has_value()) {
    const Instantiation inst =
        extract_instantiation(*top_entry->tokens, top_entry->module.language);
    if (!inst.ok) {
      return fail("ERROR: [Synth 8-439] module '" + target_name +
                  "' has no architecture model and no resolvable instantiation (" +
                  inst.error + ")");
    }
    target_name = inst.module;
    overrides = inst.params;
  }
  const SourceEntry* target = find_module(target_name);
  if (target == nullptr) {
    return fail("ERROR: [Synth 8-439] module '" + target_name +
                "' referenced but its source was not read");
  }
  const auto generator = netlist::GeneratorRegistry::find(target_name);
  if (!generator.has_value()) {
    return fail("ERROR: [Synth 8-439] no architecture model registered for '" +
                target_name + "'");
  }

  const hdl::ExprEnv env = hdl::build_param_env(target->module, overrides);
  netlist::Netlist nl = (*generator)(env);
  const DirectiveEffect synth_effect = directive_effects(frame.synth_directive);
  nl.luts = static_cast<std::int64_t>(
      std::llround(static_cast<double>(nl.luts) * synth_effect.area_factor));

  MappedDesign mapped = technology_map(nl, *device);
  mapped.top = top_entry->module.name;

  // Same design-point hash as the simulated Vivado (part + target +
  // reachable parameter values): it keys the estimation noise, so the
  // perturbation is a stable property of the point.
  std::uint64_t design_hash = std::hash<std::string>{}(device->part);
  design_hash = util::hash_combine(design_hash, std::hash<std::string>{}(target_name));
  for (const auto& p : target->module.parameters) {
    if (auto v = env.get(p.name)) {
      design_hash = util::hash_combine(design_hash, static_cast<std::uint64_t>(*v));
    }
  }

  // The estimate is cheap by construction: one elaboration + mapping +
  // post-synthesis timing pass, charged at a flat fraction of a second
  // instead of the minutes a full flow simulates.
  charge((0.02 + 1e-7 * static_cast<double>(mapped.util.lut_total())) * charge_factor);

  // A design that cannot place at high fidelity should screen out as a
  // failure here too; synthesis-only flows tolerate over-utilization the
  // same way the script-driven flow does (place_design never runs).
  if (frame.run_implementation && mapped.over_utilized(*device)) {
    return fail("ERROR: [Place 30-640] place failed: " +
                mapped.over_utilization_reason(*device));
  }

  const TimingResult timing =
      analyze_timing(mapped, *device, request.period_ns, TimingStage::kPostSynthesis,
                     synth_effect.delay_factor, design_hash);

  // Deliberate low-fidelity noise: every reported quantity is perturbed by
  // a deterministic, point-keyed factor so downstream consumers cannot
  // mistake the estimate for a tool answer, while ranks stay correlated.
  const double amp = noise_amplitude_;
  MappedUtilization noisy = mapped.util;
  noisy.lut_logic = perturb_count(noisy.lut_logic, design_hash, 1, amp);
  noisy.lut_mem = perturb_count(noisy.lut_mem, design_hash, 2, amp);
  noisy.ff = perturb_count(noisy.ff, design_hash, 3, amp);
  noisy.bram36 = perturb_count(noisy.bram36, design_hash, 4, amp);
  noisy.dsp = perturb_count(noisy.dsp, design_hash, 5, amp);
  noisy.uram = perturb_count(noisy.uram, design_hash, 6, amp);
  const double noisy_delay =
      timing.data_path_ns * noise_factor(design_hash, 7, 0.75 * amp);

  UtilizationReport util_report;
  const auto& r = device->resources;
  auto pct = [](std::int64_t used, std::int64_t avail) {
    return avail > 0 ? 100.0 * static_cast<double>(used) / static_cast<double>(avail)
                     : 0.0;
  };
  util_report.rows.push_back(
      {"Slice LUTs", noisy.lut_total(), r.lut, pct(noisy.lut_total(), r.lut)});
  util_report.rows.push_back(
      {"LUT as Logic", noisy.lut_logic, r.lut, pct(noisy.lut_logic, r.lut)});
  util_report.rows.push_back(
      {"LUT as Memory", noisy.lut_mem, r.lut, pct(noisy.lut_mem, r.lut)});
  util_report.rows.push_back({"Slice Registers", noisy.ff, r.ff, pct(noisy.ff, r.ff)});
  util_report.rows.push_back(
      {"Block RAM Tile", noisy.bram36, r.bram36, pct(noisy.bram36, r.bram36)});
  util_report.rows.push_back({"DSPs", noisy.dsp, r.dsp, pct(noisy.dsp, r.dsp)});
  if (device->has_uram()) {
    util_report.rows.push_back({"URAM", noisy.uram, r.uram, pct(noisy.uram, r.uram)});
  }

  TimingReport timing_report;
  timing_report.requirement_ns = request.period_ns;
  timing_report.data_path_ns = noisy_delay;
  timing_report.slack_ns = request.period_ns - noisy_delay;
  timing_report.logic_levels = timing.logic_levels;
  timing_report.path_group = timing.path_group;

  const double clock_mhz = noisy_delay > 0.0 ? 1000.0 / noisy_delay : 0.0;
  const PowerEstimate power = estimate_power(mapped, *device, clock_mhz);

  auto emit = [&](std::string text) {
    outcome.reports.push_back(corrupt_reports ? corrupt_report_text(std::move(text))
                                              : std::move(text));
  };
  emit(util_report.to_text());
  emit(timing_report.to_text());
  emit(power_report_text(power, clock_mhz));
  outcome.ok = true;
  return outcome;
}

}  // namespace dovado::edatool
