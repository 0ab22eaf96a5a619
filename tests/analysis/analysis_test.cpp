// Seeded-defect corpus for the static verification layer: every fixture
// under tests/analysis/fixtures/ carries exactly one deliberate defect, and
// the lint must flag it with exactly the expected rule id — no more, no
// less. The complementary clean-corpus test pins the zero-false-positive
// bar: every shipped rtl/ design lints with zero diagnostics, full
// generated-flow lint included.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/analyzer.hpp"
#include "src/analysis/hdl_lint.hpp"
#include "src/analysis/render.hpp"
#include "src/analysis/rules.hpp"
#include "src/analysis/space_lint.hpp"
#include "src/analysis/tcl_lint.hpp"
#include "src/edatool/vivado_sim.hpp"
#include "src/hdl/frontend.hpp"
#include "src/tcl/interp.hpp"

namespace dovado::analysis {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(DOVADO_ANALYSIS_FIXTURE_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

LintReport lint_hdl_fixture(const std::string& name, const std::string& top) {
  const std::string path = fixture_path(name);
  const std::string text = read_file(path);
  const hdl::ParseResult parsed = hdl::parse_file(path);
  LintReport report;
  lint_hdl_file(parsed, path, hdl::lex_source(text, parsed.file.language).tokens, top, report);
  return report;
}

LintReport lint_tcl_fixture(const std::string& name) {
  const std::string path = fixture_path(name);
  LintReport report;
  lint_tcl_script(read_file(path), path, {}, report);
  return report;
}

/// Every diagnostic in `report` must carry `rule` — the defect corpus is
/// seeded so each file trips exactly one rule.
void expect_only_rule(const LintReport& report, const std::string& rule) {
  ASSERT_FALSE(report.diagnostics.empty()) << "expected " << rule;
  for (const auto& diag : report.diagnostics) {
    EXPECT_EQ(diag.rule_id, rule) << diag.message;
  }
}

// --- HDL defect corpus -----------------------------------------------------

struct HdlCase {
  const char* file;
  const char* top;
  const char* rule;
  int exit_code;
};

TEST(HdlDefectCorpus, EachFixtureTripsExactlyItsRule) {
  const std::vector<HdlCase> cases = {
      {"undriven.v", "undriven", "net-undriven", 1},
      {"multidriven.v", "multidriven", "net-multiply-driven", 2},
      {"dangling_output.v", "dangling_output", "net-dangling-output", 1},
      {"comb_loop.v", "comb_loop", "net-comb-loop", 2},
      {"width_mismatch.v", "width_mismatch", "net-width-mismatch", 1},
      {"duplicate_port.v", "duplicate_port", "hdl-duplicate-port", 2},
      {"duplicate_param.v", "duplicate_param", "hdl-duplicate-param", 2},
      {"param_overflow.v", "param_overflow", "hdl-param-width-overflow", 1},
      {"no_clock.v", "no_clock", "hdl-no-clock-port", 1},
      {"parse_error.v", "parse_error", "hdl-parse", 2},
      {"null_range.vhd", "null_range", "hdl-port-range-reversed", 1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.file);
    const LintReport report = lint_hdl_fixture(c.file, c.top);
    expect_only_rule(report, c.rule);
    EXPECT_EQ(report.exit_code(), c.exit_code);
  }
}

TEST(HdlDefectCorpus, DiagnosticsCarryLocations) {
  const LintReport report = lint_hdl_fixture("multidriven.v", "multidriven");
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_GT(report.diagnostics.front().loc.line, 0u);
  EXPECT_NE(report.diagnostics.front().file.find("multidriven.v"), std::string::npos);
}

// --- TCL defect corpus -----------------------------------------------------

struct TclCase {
  const char* file;
  const char* rule;
  int exit_code;
};

TEST(TclDefectCorpus, EachFixtureTripsExactlyItsRule) {
  const std::vector<TclCase> cases = {
      {"unset_var.tcl", "tcl-unset-var", 2},
      {"unknown_cmd.tcl", "tcl-unknown-command", 2},
      {"flow_order.tcl", "tcl-flow-order", 2},
      {"unknown_flag.tcl", "tcl-unknown-flag", 2},
      {"missing_arg.tcl", "tcl-missing-arg", 2},
      {"bad_directive.tcl", "tcl-unknown-directive", 1},
      {"wrong_arity.tcl", "tcl-wrong-arity", 2},
      {"parse_error.tcl", "tcl-parse-error", 2},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.file);
    const LintReport report = lint_tcl_fixture(c.file);
    expect_only_rule(report, c.rule);
    EXPECT_EQ(report.exit_code(), c.exit_code);
  }
}

TEST(TclDefectCorpus, TyposGetDidYouMeanNotes) {
  const LintReport unknown_cmd = lint_tcl_fixture("unknown_cmd.tcl");
  ASSERT_TRUE(unknown_cmd.has("tcl-unknown-command"));
  EXPECT_NE(unknown_cmd.diagnostics.front().note.find("synth_design"),
            std::string::npos);
  const LintReport unknown_flag = lint_tcl_fixture("unknown_flag.tcl");
  ASSERT_TRUE(unknown_flag.has("tcl-unknown-flag"));
  EXPECT_NE(unknown_flag.diagnostics.front().note.find("-directive"),
            std::string::npos);
}

// --- the linter and the interpreter share one parser ----------------------

TEST(TclLintAgreesWithInterp, SubstitutionInsideWordsIsClean) {
  const std::string text = read_file(fixture_path("clean_subst.tcl"));
  LintReport report;
  lint_tcl_script(text, "clean_subst.tcl", {}, report);
  for (const auto& diag : report.diagnostics) {
    ADD_FAILURE() << diag.rule_id << " at line " << diag.loc.line << ": " << diag.message;
  }
  tcl::Interp in;
  const tcl::EvalResult result = in.eval(text);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(in.get_var("x"), "a3");
  EXPECT_EQ(in.get_var("y"), "v=3");
  EXPECT_EQ(in.get_var("z"), "33xc7k70t");
  EXPECT_EQ(in.get_var("w"), "a b c");
}

TEST(TclLintAgreesWithInterp, UnsetVarIsStraightLine) {
  // Words are substituted before the command runs, so `set x $x` reads x
  // before it is set; a later set does not excuse an earlier read.
  LintReport report;
  lint_tcl_script("set x $x\nset y $z\nset z 1\nset z\n", "order.tcl", {}, report);
  ASSERT_EQ(report.diagnostics.size(), 2u) << render_text(report);
  EXPECT_EQ(report.diagnostics[0].rule_id, "tcl-unset-var");
  EXPECT_EQ(report.diagnostics[0].loc.line, 1u);
  EXPECT_EQ(report.diagnostics[1].rule_id, "tcl-unset-var");
  EXPECT_EQ(report.diagnostics[1].loc.line, 2u);
}

TEST(TclLintAgreesWithInterp, CommandSetMatchesTheSimulatedTool) {
  // The linter's command list and the simulated session's registrations are
  // written in two modules: for every command the session registers, every
  // builtin of the deleted dialect and a typo, the linter reports
  // tcl-unknown-command exactly when the session fails with
  // `invalid command name`.
  std::vector<std::string> names = edatool::VivadoSim().interp().command_names();
  for (const char* name : {"set", "read_xdc", "get_ports", "get_nets", "set_property",
                           "synth_design", "report_utilization"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end()) << name;
  }
  for (const char* name :
       {"unset", "puts", "expr", "incr", "if", "while", "return", "error", "catch", "list",
        "append", "foreach", "for", "proc", "llength", "lindex", "lappend", "string", "format",
        "synth_designs"}) {
    names.emplace_back(name);
  }
  int unknown = 0;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    LintReport report;
    lint_tcl_script(name + "\n", "one.tcl", {}, report);
    const tcl::EvalResult run = edatool::VivadoSim().run_script(name + "\n");
    const bool interp_unknown =
        !run.ok && run.error == "invalid command name \"" + name + "\"";
    EXPECT_EQ(report.has("tcl-unknown-command"), interp_unknown) << run.error;
    unknown += interp_unknown ? 1 : 0;
  }
  EXPECT_EQ(unknown, 20);  // the 19 deleted builtins and the typo
}

TEST(TclLintAgreesWithInterp, DeepNestingIsAParseErrorNotACrash) {
  // `set x [set y [set y ... 1]]`, 100,000 levels deep.
  constexpr int kLevels = 100000;
  std::string text = "set x ";
  for (int i = 0; i < kLevels; ++i) text += "[set y ";
  text += "1";
  text.append(kLevels, ']');
  LintReport report;
  lint_tcl_script(text, "deep.tcl", {}, report);
  expect_only_rule(report, "tcl-parse-error");
  EXPECT_EQ(report.diagnostics.front().message, "too many nested evaluations");

  // Nested braces are one literal word: no recursion, no diagnostic.
  std::string braces = "set x ";
  braces.append(kLevels, '{');
  braces.append(kLevels, '}');
  LintReport brace_report;
  lint_tcl_script(braces, "deep_braces.tcl", {}, brace_report);
  EXPECT_TRUE(brace_report.diagnostics.empty()) << render_text(brace_report);
  EXPECT_TRUE(tcl::Interp().eval(braces).ok);
}

// --- clean corpus: zero false positives on shipped designs -----------------

TEST(CleanCorpus, ShippedDesignsLintClean) {
  struct Design {
    const char* file;
    const char* top;
    hdl::HdlLanguage language;
  };
  const std::vector<Design> designs = {
      {"axis_switch.v", "axis_switch", hdl::HdlLanguage::kVerilog},
      {"cv32e40p_fifo.sv", "cv32e40p_fifo", hdl::HdlLanguage::kSystemVerilog},
      {"systolic_mm.sv", "systolic_mm", hdl::HdlLanguage::kSystemVerilog},
      {"corundum_cq_manager.v", "cpl_queue_manager", hdl::HdlLanguage::kVerilog},
      {"neorv32_top.vhd", "neorv32_top", hdl::HdlLanguage::kVhdl},
      {"tirex_top.vhd", "tirex_top", hdl::HdlLanguage::kVhdl},
  };
  for (const auto& design : designs) {
    SCOPED_TRACE(design.file);
    core::ProjectConfig project;
    project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/" + design.file,
                               design.language, "work", false});
    project.top_module = design.top;
    project.part = "xc7k70t";  // part set => the generated flow is linted too
    LintReport report;
    lint_project(project, report);
    EXPECT_TRUE(report.diagnostics.empty()) << render_text(report);
  }
}

// --- design-space lint -----------------------------------------------------

LintReport lint_space(const core::DesignSpace& space,
                      const std::vector<core::Objective>& objectives,
                      const std::vector<core::DerivedMetric>& derived,
                      const SpaceLintOptions& options) {
  LintReport report;
  lint_design_space(space, objectives, derived, options, "<design-space>", report);
  return report;
}

TEST(SpaceLint, DuplicateAndShadowedParams) {
  core::DesignSpace space;
  space.params.push_back({"DEPTH", core::ParamDomain::range(8, 64)});
  space.params.push_back({"DEPTH", core::ParamDomain::range(2, 4)});
  space.params.push_back({"depth", core::ParamDomain::range(2, 4)});
  const LintReport report = lint_space(space, {{"lut", false}}, {}, {});
  EXPECT_TRUE(report.has("space-duplicate-param"));
  EXPECT_TRUE(report.has("space-shadowed-param"));
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(SpaceLint, UnknownParamSuggestsModuleParam) {
  core::DesignSpace space;
  space.params.push_back({"WIDHT", core::ParamDomain::range(2, 8)});
  SpaceLintOptions options;
  options.module_params = {"WIDTH", "DEPTH"};
  const LintReport report = lint_space(space, {{"lut", false}}, {}, options);
  ASSERT_TRUE(report.has("space-unknown-param"));
  EXPECT_NE(report.diagnostics.front().note.find("WIDTH"), std::string::npos);
}

TEST(SpaceLint, DegenerateDomains) {
  core::DesignSpace space;
  space.params.push_back({"A", core::ParamDomain::range(4, 4)});
  space.params.push_back({"B", core::ParamDomain::range(0, 10, 4)});
  const LintReport report = lint_space(space, {{"lut", false}}, {}, {});
  EXPECT_TRUE(report.has("space-singleton-domain"));
  EXPECT_TRUE(report.has("space-step-unreachable"));
  EXPECT_EQ(report.exit_code(), 1);  // both are warnings
}

TEST(SpaceLint, DescendingRangeVisibleOnlyInRawSpec) {
  core::DesignSpace space;
  // The domain constructor has already swapped the bounds; only the raw
  // CLI text still shows the contradiction.
  space.params.push_back({"N", core::ParamDomain::range(8, 256)});
  SpaceLintOptions options;
  options.raw_param_specs = {"N=256:8"};
  const LintReport report = lint_space(space, {{"lut", false}}, {}, options);
  EXPECT_TRUE(report.has("space-descending-range"));
}

TEST(SpaceLint, ObjectiveRules) {
  core::DesignSpace space;
  space.params.push_back({"N", core::ParamDomain::range(2, 8)});
  const LintReport unknown =
      lint_space(space, {{"lutz", false}}, {}, {});
  ASSERT_TRUE(unknown.has("space-metric-unknown"));
  EXPECT_NE(unknown.diagnostics.front().note.find("lut"), std::string::npos);

  const LintReport duplicate =
      lint_space(space, {{"lut", false}, {"lut", true}}, {}, {});
  EXPECT_TRUE(duplicate.has("space-objective-duplicate"));
}

TEST(SpaceLint, DerivedMetricShadowingBackendMetric) {
  core::DesignSpace space;
  space.params.push_back({"N", core::ParamDomain::range(2, 8)});
  std::vector<core::DerivedMetric> derived;
  derived.push_back({"lut", [](const core::DesignPoint&, const core::EvalMetrics&) {
                       return 0.0;
                     }});
  const LintReport report = lint_space(space, {{"ff", false}}, derived, {});
  EXPECT_TRUE(report.has("space-derived-shadows-metric"));

  // A distinct name is fine and usable as an objective.
  derived[0].name = "lut_per_mhz";
  const LintReport clean = lint_space(space, {{"lut_per_mhz", false}}, derived, {});
  EXPECT_TRUE(clean.diagnostics.empty()) << render_text(clean);
}

// --- rule registry & RuleSet -----------------------------------------------

TEST(Rules, RegistryIsConsistent) {
  ASSERT_FALSE(all_rules().empty());
  for (const auto& rule : all_rules()) {
    EXPECT_EQ(find_rule(rule.id), &rule);
    EXPECT_FALSE(rule.family.empty());
    EXPECT_FALSE(rule.summary.empty());
  }
  EXPECT_EQ(find_rule("no-such-rule"), nullptr);
}

TEST(Rules, ApplySpecEnablesAndDisables) {
  RuleSet rules;
  EXPECT_TRUE(rules.enabled("net-undriven"));
  EXPECT_EQ(rules.apply_spec("-net-undriven"), "");
  EXPECT_FALSE(rules.enabled("net-undriven"));
  EXPECT_EQ(rules.apply_spec("+net-undriven"), "");
  EXPECT_TRUE(rules.enabled("net-undriven"));

  EXPECT_EQ(rules.apply_spec("-all,+tcl-unset-var"), "");
  EXPECT_FALSE(rules.enabled("net-comb-loop"));
  EXPECT_TRUE(rules.enabled("tcl-unset-var"));
  EXPECT_EQ(rules.apply_spec("+all"), "");
  EXPECT_TRUE(rules.enabled("net-comb-loop"));
}

TEST(Rules, UnknownRuleGetsDidYouMean) {
  RuleSet rules;
  const std::string error = rules.apply_spec("-net-undrivn");
  ASSERT_FALSE(error.empty());
  EXPECT_NE(error.find("net-undriven"), std::string::npos);
}

TEST(Rules, FilterDropsDisabledDiagnostics) {
  LintReport report;
  report.add(Severity::kError, "net-multiply-driven", "a.v", {1, 1}, "conflict");
  report.add(Severity::kWarning, "net-undriven", "a.v", {2, 1}, "floating");
  RuleSet rules;
  ASSERT_EQ(rules.apply_spec("-net-multiply-driven"), "");
  rules.filter(report);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics.front().rule_id, "net-undriven");
  EXPECT_EQ(report.exit_code(), 1);
}

// --- renderers -------------------------------------------------------------

LintReport sample_report() {
  LintReport report;
  report.add(Severity::kError, "net-multiply-driven", "top.v", {12, 3},
             "net 'y' has 2 conflicting whole-net drivers");
  report.add(Severity::kWarning, "hdl-no-clock-port", "top.v", {},
             "module 'top' has no detectable clock input", "name one port clk");
  return report;
}

TEST(Render, TextFormIsCompilerStyle) {
  const std::string text = render_text(sample_report());
  EXPECT_NE(text.find("top.v:12:3: error[net-multiply-driven]:"), std::string::npos);
  EXPECT_NE(text.find("warning[hdl-no-clock-port]"), std::string::npos);
  EXPECT_NE(text.find("  note: name one port clk"), std::string::npos);
  EXPECT_NE(text.find("1 error(s), 1 warning(s), 0 note(s)"), std::string::npos);
}

TEST(Render, JsonFormIsMachineReadable) {
  const std::string json = render_json(sample_report());
  EXPECT_NE(json.find("\"rule\""), std::string::npos);
  EXPECT_NE(json.find("net-multiply-driven"), std::string::npos);
  EXPECT_NE(json.find("\"exit_code\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\""), std::string::npos);
}

TEST(Render, ExitCodePolicy) {
  LintReport clean;
  EXPECT_EQ(clean.exit_code(), 0);
  LintReport warn;
  warn.add(Severity::kWarning, "net-undriven", "a.v", {}, "w");
  EXPECT_EQ(warn.exit_code(), 1);
  LintReport error;
  error.add(Severity::kError, "net-comb-loop", "a.v", {}, "e");
  EXPECT_EQ(error.exit_code(), 2);
}

}  // namespace
}  // namespace dovado::analysis
