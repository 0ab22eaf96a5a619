#include "src/analysis/analyzer.hpp"

#include <fstream>
#include <sstream>

#include "src/analysis/hdl_lint.hpp"
#include "src/analysis/tcl_lint.hpp"
#include "src/boxing/box.hpp"
#include "src/hdl/frontend.hpp"
#include "src/tcl/frames.hpp"
#include "src/util/strings.hpp"

namespace dovado::analysis {

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Directive names the timing model distinguishes (matches the TCL linter's
/// table; see edatool::directive_effects).
const std::vector<std::string>& known_directives() {
  static const std::vector<std::string> kDirectives = {
      "default",
      "runtimeoptimized",
      "quick",
      "areaoptimized_high",
      "areaoptimized_medium",
      "performanceoptimized",
      "perfoptimized_high",
      "explore",
  };
  return kDirectives;
}

void check_directive(const std::string& stage, const std::string& value,
                     LintReport& report) {
  for (const auto& known : known_directives()) {
    if (util::iequals(value, known)) return;
  }
  const std::string suggestion = util::closest_match(value, known_directives());
  report.add(Severity::kWarning, "flow-unknown-directive", "<project>", {},
             "unknown " + stage + " directive '" + value +
                 "' silently behaves as Default",
             suggestion.empty() ? std::string() : "did you mean '" + suggestion + "'?");
}

/// Lex and parse every source once, lint it, and return the top module
/// when found.
std::optional<hdl::Module> lint_sources(const core::ProjectConfig& project,
                                        LintReport& report) {
  std::optional<hdl::Module> top;
  std::vector<std::string> module_names;
  for (const auto& source : project.sources) {
    const auto text = read_file(source.path);
    if (!text) {
      report.add(Severity::kError, "hdl-parse", source.path, {},
                 "cannot read source file");
      continue;
    }
    hdl::HdlLanguage lang = source.language;
    if (const auto detected = hdl::language_from_path(source.path)) lang = *detected;
    const hdl::LexedSource lexed = hdl::lex_source(*text, lang);
    const hdl::ParseResult parsed = hdl::parse_source(lexed, lang, source.path);
    lint_hdl_file(parsed, source.path, lexed.tokens, project.top_module, report);
    for (const auto& module : parsed.file.modules) module_names.push_back(module.name);
    if (const hdl::Module* m = parsed.file.find_module(project.top_module)) top = *m;
  }
  if (!top && !project.top_module.empty()) {
    const std::string suggestion = util::closest_match(project.top_module, module_names);
    report.add(Severity::kError, "hdl-top-not-found", "<project>", {},
               "top module '" + project.top_module + "' not found in the given sources",
               suggestion.empty() ? std::string() : "did you mean '" + suggestion + "'?");
  }
  return top;
}

/// Dry-run the evaluation pipeline's frame generation (box -> frame ->
/// script) without touching any backend, and lint the generated artifacts.
void lint_flow(const core::ProjectConfig& project, const hdl::Module& top,
               LintReport& report) {
  boxing::BoxConfig box_config;
  box_config.clock_port = project.clock_port;
  box_config.target_period_ns = project.target_period_ns;
  // No design point yet: the box is generated at default parameter values,
  // exactly what the first evaluation of an empty point would do.
  const boxing::BoxResult box = boxing::generate_box(top, box_config);
  if (!box.ok) {
    report.add(Severity::kError, "flow-box-failed", "<project>", {},
               "boxing the top module failed: " + box.error);
    return;
  }

  tcl::FrameConfig frame;
  frame.sources = project.sources;
  frame.box_path =
      box.language == hdl::HdlLanguage::kVhdl ? "dovado_box.vhd" : "dovado_box.v";
  frame.box_language = box.language;
  frame.xdc_path = "dovado_box.xdc";
  frame.top = box.top_name;
  frame.part = project.part;
  frame.synth_directive = project.synth_directive;
  frame.place_directive = project.place_directive;
  frame.route_directive = project.route_directive;
  frame.run_implementation = project.run_implementation;
  frame.incremental_synth = project.incremental_synth;
  frame.incremental_impl = project.incremental_impl;

  for (const auto& problem : tcl::validate_frame(frame)) {
    report.add(Severity::kError, "flow-frame-invalid", "<project>", {}, problem);
  }

  TclLintOptions script_options;
  lint_tcl_script(tcl::generate_flow_script(frame), "<flow-script>", script_options,
                  report);

  TclLintOptions xdc_options;
  xdc_options.check_flow_order = false;  // XDC runs inside read_xdc mid-flow
  lint_tcl_script(box.xdc, "<box-xdc>", xdc_options, report);
}

}  // namespace

std::optional<hdl::Module> lint_project(const core::ProjectConfig& project,
                                        LintReport& report) {
  std::optional<hdl::Module> top = lint_sources(project, report);

  check_directive("synthesis", project.synth_directive, report);
  if (project.run_implementation) {
    check_directive("placement", project.place_directive, report);
    check_directive("routing", project.route_directive, report);
  }

  // Flow lint needs a top module and a target part; without either there is
  // no flow to generate (and the missing top was already reported).
  if (top && !project.part.empty()) lint_flow(project, *top, report);
  return top;
}

void lint_dse_config(const core::ProjectConfig& project, const hdl::Module* top,
                     const core::DseConfig& config,
                     const std::vector<std::string>& raw_param_specs,
                     LintReport& report) {
  SpaceLintOptions options;
  options.raw_param_specs = raw_param_specs;

  const std::string backend = config.backend.empty() ? project.backend : config.backend;
  options.backends.push_back(backend);
  if (config.screen_keep_ratio < 1.0) options.backends.push_back(core::kAnalyticBackend);

  if (top != nullptr) {
    for (const auto& param : top->parameters) {
      if (!param.is_local) options.module_params.push_back(param.name);
    }
  }

  lint_design_space(config.space, config.objectives, config.derived_metrics, options,
                    "<design-space>", report);
}

LintReport preflight(const core::ProjectConfig& project, const core::DseConfig& config,
                     const RuleSet& rules) {
  LintReport report;
  const std::optional<hdl::Module> top = lint_project(project, report);
  lint_dse_config(project, top ? &*top : nullptr, config, {}, report);
  rules.filter(report);
  return report;
}

}  // namespace dovado::analysis
