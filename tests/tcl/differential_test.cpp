// Differential test of the compiled interpreter (tcl::Interp, which runs
// the tree tcl::parse_script builds) against the reference copy of the
// on-the-fly interpreter it replaced (reference_interp.hpp).
//
// A seeded corpus — every generate_flow_script frame variant, the TCL lint
// fixtures, and scripts from the interpreter tests — is mutated with byte
// flips and inserted or deleted `{}[]"$\;` and newlines, the characters the
// parser decides on. Every input runs through both interpreters, which must
// agree on ok, value, error, output() and every variable. Neither side knows
// the old dialect's control, list and string commands; one corpus script
// calls `expr` to check that both fail it at the same command.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/tcl/frames.hpp"
#include "src/tcl/interp.hpp"
#include "src/util/rng.hpp"
#include "tests/tcl/reference_interp.hpp"

namespace dovado::tcl {
namespace {

constexpr std::string_view kXdc =
    "create_clock -period 4.000 -name clk [get_ports clk]\n"
    "set_property IOSTANDARD LVCMOS33 [get_ports {data[0]}]\n";

/// Tool commands as a flow script uses them: each logs its words and
/// returns its last one; read_xdc evaluates a constraint file.
template <class In>
void register_tool_stubs(In& in) {
  for (const char* name :
       {"read_vhdl", "read_verilog", "create_clock", "get_ports", "get_nets", "set_property",
        "synth_design", "opt_design", "place_design", "route_design", "write_checkpoint",
        "read_checkpoint", "report_utilization", "report_timing", "report_power"}) {
    in.register_command(name, [](In& i, const std::vector<std::string>& a) -> std::string {
      std::string line;
      for (const auto& word : a) line += word + "|";
      i.emit(line);
      return a.back();
    });
  }
  in.register_command("read_xdc", [](In& i, const std::vector<std::string>&) -> std::string {
    return i.eval_or_throw(kXdc);
  });
}

struct Outcome {
  bool ok = false;
  std::string value;
  std::string error;
  std::vector<std::string> output;
  std::map<std::string, std::string> vars;
};

template <class In>
Outcome run(std::string_view script) {
  In in;
  register_tool_stubs(in);
  const auto result = in.eval(script);
  return {result.ok, result.value, result.error, in.output(), in.variables()};
}

/// Compare one input; returns false (after reporting) on a difference.
bool same_outcome(std::string_view script, const std::string& label) {
  const Outcome got = run<Interp>(script);
  const Outcome want = run<reference::Interp>(script);
  EXPECT_EQ(got.ok, want.ok) << label;
  EXPECT_EQ(got.value, want.value) << label;
  EXPECT_EQ(got.error, want.error) << label;
  EXPECT_EQ(got.output, want.output) << label;
  EXPECT_EQ(got.vars, want.vars) << label;
  return got.ok == want.ok && got.value == want.value && got.error == want.error &&
         got.output == want.output && got.vars == want.vars;
}

std::vector<std::string> flow_script_variants() {
  std::vector<std::string> scripts;
  for (const auto box : {hdl::HdlLanguage::kVhdl, hdl::HdlLanguage::kVerilog,
                         hdl::HdlLanguage::kSystemVerilog}) {
    for (const bool impl : {false, true}) {
      for (const bool inc_synth : {false, true}) {
        for (const bool inc_impl : {false, true}) {
          FrameConfig config;
          config.sources = {{"rtl/pkg.sv", hdl::HdlLanguage::kSystemVerilog, "work", true},
                            {"mylib/core.vhd", hdl::HdlLanguage::kVhdl, "mylib", false},
                            {"rtl/fifo.v", hdl::HdlLanguage::kVerilog, "work", false}};
          config.box_language = box;
          config.part = "xc7k70tfbv676-1";
          config.synth_directive = "AreaOptimized_high";
          config.run_implementation = impl;
          config.incremental_synth = inc_synth;
          config.incremental_impl = inc_impl;
          scripts.push_back(generate_flow_script(config));
        }
      }
    }
  }
  return scripts;
}

std::vector<std::string> fixture_scripts() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(DOVADO_TCL_FIXTURE_DIR)) {
    if (entry.path().extension() == ".tcl") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> scripts;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    scripts.push_back(text.str());
  }
  return scripts;
}

/// Scripts from the interpreter tests, covering every word form and
/// substitution in the emitted subset, then one script of the old dialect:
/// a deleted builtin fails as an unknown command.
std::vector<std::string> unit_test_scripts() {
  return {
      "set b [set a 3]7\nset c \"v=[set d [set a]]\"",
      "report_timing hello\nreport_timing \"two words\"",
      "set x 5 \r\nset y $x\r\n",
      "report_timing a; set x \"b[report_timing c]$undefined\nreport_timing d",
      "set n 2\nset out [set n]-$n\nset out",
      "set\nset a b c",
      "set x 42\nset x",
      "set name world\nset msg hello_$name\nset msg2 ${name}ly",
      "set y $undefined_var",
      "set x {$not_substituted}\nset y {nested {braces} ok}",
      "set a 5\nset b \"a is $a\"",
      "set a 3\nset b [report_timing {$a * 7}]\nset c \"v=[report_timing {1 + 1}]\"",
      "set x a[report_timing 1 + 2]\nset y \"v=[report_timing length \"ab\"]\"\n"
      "set z [report_timing 1 + 2][report_timing 3 + 4]\n"
      "set w [report_timing a b]tail[report_timing c d]",
      "set p \"p [set q \"r\"] s\"",
      "set l [report_timing a {b c} \"\"]\nreport_timing $l\nset m {a {b {c d}} \"\"}",
      "set x \"a\\tb\\n\\\"q\\\"\"\nset y a\\ b\\$c",
      "report_timing hello; report_timing -quiet world\n# a comment \\\n continued\n"
      "report_timing after",
      "set a [set b 2]; set c \\\n  $b",
      "set q \"a\\\n    b\"\nset r {c\\\n  d}",
      "set msg {[report_timing a\\]b]}\nset n [report_timing {a\\]b}]",
      "set x {unclosed",
      "set x \"unclosed [report_timing inner]",
      "report_timing before; set x [unclosed",
      "set v ${unclosed",
      "set x 5\r\nreport_timing $x\r\n",
      "report_timing first\nexpr {$undefined + [report_timing side]}\nreport_timing never",
      "synth_design -top box -part xc7k70t\nreport_utilization\nreport_timing",
      "read_xdc dovado_box.xdc\nset p [get_ports clk]",
  };
}

/// Byte-level mutations, in the idiom of the report shredder
/// (tests/edatool/report_robustness_test.cpp).
enum class Mutation { kBitFlip, kInsert, kDelete, kReplace };

std::string mutate(std::string text, util::Rng& rng) {
  static constexpr std::string_view kSyntax = "{}[]\"$\\;\n";
  const int edits = 1 + static_cast<int>(rng.index(3));
  for (int e = 0; e < edits; ++e) {
    const auto op = static_cast<Mutation>(rng.index(4));
    const std::size_t at = rng.index(text.size() + 1);
    const char c = kSyntax[rng.index(kSyntax.size())];
    switch (op) {
      case Mutation::kBitFlip:
        if (at < text.size()) text[at] = static_cast<char>(text[at] ^ (1 << rng.index(8)));
        break;
      case Mutation::kInsert: text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c); break;
      case Mutation::kDelete:
        if (at < text.size()) text.erase(at, 1);
        break;
      case Mutation::kReplace:
        if (at < text.size()) text[at] = c;
        break;
    }
  }
  return text;
}

std::vector<std::string> corpus() {
  std::vector<std::string> all = flow_script_variants();
  for (auto group : {fixture_scripts(), unit_test_scripts()}) {
    all.insert(all.end(), group.begin(), group.end());
  }
  return all;
}

TEST(TclDifferential, CorpusRunsIdentically) {
  ASSERT_EQ(flow_script_variants().size(), 24u);
  ASSERT_EQ(fixture_scripts().size(), 9u);
  const auto scripts = corpus();
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    same_outcome(scripts[i], "corpus script " + std::to_string(i) + ":\n" + scripts[i]);
  }
}

TEST(TclDifferential, DeepNestingFailsIdentically) {
  for (const int levels : {62, 63, 64, 65, 1000}) {
    std::string nested;
    for (int i = 0; i < levels; ++i) nested += "[report_timing $i; set y ";
    nested += "1";
    nested.append(static_cast<std::size_t>(levels), ']');
    same_outcome("set i 0\nreport_timing first; set x " + nested,
                 "levels " + std::to_string(levels));
    same_outcome("set i 0\nreport_timing first; set x \"q" + nested + "\"",
                 "quoted, levels " + std::to_string(levels));
  }
}

TEST(TclDifferential, MutatedScriptsRunIdentically) {
  const auto scripts = corpus();
  util::Rng rng(20261017u);
  int failed = 0;
  int errors = 0;
  for (int trial = 0; trial < 10000 && failed < 5; ++trial) {
    const std::string mutated = mutate(scripts[rng.index(scripts.size())], rng);
    if (!same_outcome(mutated, "trial " + std::to_string(trial) + ":\n" + mutated)) ++failed;
    if (!run<Interp>(mutated).ok) ++errors;
  }
  EXPECT_EQ(failed, 0);
  // The mutations must reach the error paths, not only benign edits.
  EXPECT_GT(errors, 1000);
}

TEST(TclDifferential, ReusedInterpreterMatchesAcrossRuns) {
  // The compiled interpreter memoises each text; running the same scripts
  // again (and more texts than the memo holds) must not change anything.
  Interp in;
  reference::Interp ref;
  register_tool_stubs(in);
  register_tool_stubs(ref);
  const auto scripts = corpus();
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < scripts.size(); ++i) {
      const std::string script =
          scripts[i] + "\nset round_" + std::to_string(round * 1000 + static_cast<int>(i)) + " 1";
      const auto got = in.eval(script);
      const auto want = ref.eval(script);
      ASSERT_EQ(got.ok, want.ok) << script;
      ASSERT_EQ(got.value, want.value) << script;
      ASSERT_EQ(got.error, want.error) << script;
      ASSERT_EQ(in.output(), ref.output()) << script;
      ASSERT_EQ(in.variables(), ref.variables()) << script;
    }
  }
}

}  // namespace
}  // namespace dovado::tcl
