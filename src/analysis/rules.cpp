#include "src/analysis/rules.hpp"

#include <algorithm>

#include "src/util/strings.hpp"

namespace dovado::analysis {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

std::size_t LintReport::count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const Diagnostic& d) { return d.severity == severity; }));
}

bool LintReport::has(const std::string& rule_id) const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule_id == rule_id; });
}

int LintReport::exit_code() const {
  if (errors() > 0) return 2;
  if (warnings() > 0) return 1;
  return 0;
}

void LintReport::add(Severity severity, std::string rule_id, std::string file,
                     hdl::SourceLoc loc, std::string message, std::string note) {
  Diagnostic d;
  d.severity = severity;
  d.rule_id = std::move(rule_id);
  d.file = std::move(file);
  d.loc = loc;
  d.message = std::move(message);
  d.note = std::move(note);
  diagnostics.push_back(std::move(d));
}

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> kRules = {
      // HDL interface rules (both languages; from the declaration parser).
      {"hdl-parse", Severity::kError, "hdl", "source file cannot be parsed"},
      {"hdl-top-not-found", Severity::kError, "hdl", "top module absent from the sources"},
      {"hdl-duplicate-port", Severity::kError, "hdl", "two ports share a name"},
      {"hdl-duplicate-param", Severity::kError, "hdl", "two parameters share a name"},
      {"hdl-no-clock-port", Severity::kWarning, "hdl",
       "no clock-like input port (the box/XDC need one)"},
      {"hdl-port-range-reversed", Severity::kWarning, "hdl",
       "VHDL vector bounds contradict their downto/to direction"},
      {"hdl-param-width-overflow", Severity::kWarning, "hdl",
       "parameter default does not fit its declared packed width"},

      // Netlist rules (Verilog/SV module bodies; net graph + Tarjan SCC).
      {"net-undriven", Severity::kWarning, "net", "net is read but has no driver"},
      {"net-multiply-driven", Severity::kError, "net",
       "whole net has two or more conflicting drivers"},
      {"net-dangling-output", Severity::kWarning, "net",
       "module output is never driven"},
      {"net-comb-loop", Severity::kError, "net",
       "combinational cycle through continuous assigns"},
      {"net-width-mismatch", Severity::kWarning, "net",
       "continuous assign connects nets of different widths"},

      // TCL script rules (a straight-line walk of the parsed script).
      {"tcl-parse-error", Severity::kError, "tcl", "script has unbalanced syntax"},
      {"tcl-unknown-command", Severity::kError, "tcl", "command is not registered"},
      {"tcl-unset-var", Severity::kError, "tcl", "variable is read before any set"},
      {"tcl-wrong-arity", Severity::kError, "tcl", "set called with a bad word count"},
      {"tcl-missing-arg", Severity::kError, "tcl",
       "synth_design lacks a required -top/-part argument"},
      {"tcl-unknown-flag", Severity::kError, "tcl",
       "tool command given a flag it does not accept"},
      {"tcl-unknown-directive", Severity::kWarning, "tcl",
       "-directive value is not a known directive (the tool silently runs Default)"},
      {"tcl-flow-order", Severity::kError, "tcl",
       "implementation/report command before synth_design"},

      // Design-space rules (ParamDomain + objectives vs backends).
      {"space-duplicate-param", Severity::kError, "space",
       "design-space parameter listed twice"},
      {"space-shadowed-param", Severity::kWarning, "space",
       "two parameters differ only in case (VHDL resolves them to one)"},
      {"space-unknown-param", Severity::kError, "space",
       "parameter is not a free parameter of the top module"},
      {"space-singleton-domain", Severity::kWarning, "space",
       "domain holds a single value (nothing to explore)"},
      {"space-step-unreachable", Severity::kWarning, "space",
       "range step never lands on the upper bound"},
      {"space-descending-range", Severity::kError, "space",
       "range bounds are contradictory (lo > hi)"},
      {"space-metric-unknown", Severity::kError, "space",
       "objective metric is reported by no registered backend"},
      {"space-objective-duplicate", Severity::kWarning, "space",
       "the same metric is an objective twice"},
      {"space-derived-shadows-metric", Severity::kError, "space",
       "derived metric shadows a tool metric"},

      // Flow-level rules (the generated box + frame).
      {"flow-box-failed", Severity::kError, "flow",
       "the module cannot be boxed (clock/port constraints)"},
      {"flow-frame-invalid", Severity::kError, "flow",
       "the TCL frame configuration violates the paper's naming constraints"},
      {"flow-unknown-directive", Severity::kWarning, "flow",
       "a configured synth/place/route directive is unknown to the tool"},
  };
  return kRules;
}

const RuleInfo* find_rule(const std::string& id) {
  for (const auto& rule : all_rules()) {
    if (rule.id == id) return &rule;
  }
  return nullptr;
}

std::string RuleSet::apply_spec(const std::string& spec) {
  for (const auto& raw : util::split(spec, ',')) {
    const std::string item(util::trim(raw));
    if (item.empty()) continue;
    const char sign = item[0];
    if (sign != '+' && sign != '-') {
      return "lint rule spec items must start with '+' or '-': '" + item + "'";
    }
    const std::string id = item.substr(1);
    if (id == "all") {
      if (sign == '-') {
        for (const auto& rule : all_rules()) disable(rule.id);
      } else {
        disabled_.clear();
      }
      continue;
    }
    if (find_rule(id) == nullptr) {
      // Reuse the CLI's did-you-mean helper so a typo'd rule gets the same
      // quality of suggestion as a typo'd flag.
      std::vector<std::string> known;
      known.reserve(all_rules().size());
      for (const auto& rule : all_rules()) known.push_back(rule.id);
      std::string message = "unknown lint rule '" + id + "'";
      const std::string suggestion = util::closest_match(id, known);
      if (!suggestion.empty()) message += " (did you mean '" + suggestion + "'?)";
      return message;
    }
    if (sign == '-') disable(id);
    else enable(id);
  }
  return "";
}

void RuleSet::filter(LintReport& report) const {
  auto& diags = report.diagnostics;
  diags.erase(std::remove_if(diags.begin(), diags.end(),
                             [&](const Diagnostic& d) { return !enabled(d.rule_id); }),
              diags.end());
}

}  // namespace dovado::analysis
