#include "src/analysis/tcl_lint.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "src/tcl/ast.hpp"
#include "src/util/strings.hpp"

namespace dovado::analysis {

namespace {

using tcl::CommandNode;
using tcl::ScriptNode;
using tcl::WordNode;
using tcl::WordPart;

/// Per-tool-command flag table. Only commands listed here have their flags
/// validated; everything else passes through (an unknown flag on a command
/// we do not model is not evidence of a bug).
struct FlagTable {
  std::vector<std::string> value_flags;  ///< flags that consume the next word
  std::vector<std::string> bool_flags;   ///< flags with no value
  std::vector<std::string> required_flags;
  bool requires_positional = false;      ///< e.g. a file path
};

const std::map<std::string, FlagTable>& flag_tables() {
  static const std::map<std::string, FlagTable> kTables = {
      {"synth_design",
       {{"-top", "-part", "-directive", "-incremental"}, {}, {"-top", "-part"}, false}},
      {"opt_design", {{}, {}, {}, false}},
      {"place_design", {{"-directive"}, {}, {}, false}},
      {"route_design", {{"-directive"}, {}, {}, false}},
      {"read_verilog", {{}, {"-sv"}, {}, true}},
      {"read_vhdl", {{"-library"}, {}, {}, true}},
      {"read_xdc", {{}, {}, {}, true}},
      {"create_clock", {{"-period", "-name"}, {"-add"}, {"-period"}, false}},
      {"write_checkpoint", {{}, {"-force"}, {}, true}},
      {"read_checkpoint", {{"-incremental"}, {}, {}, false}},
      {"report_utilization", {{}, {}, {}, false}},
      {"report_timing", {{}, {}, {}, false}},
      {"report_power", {{}, {}, {}, false}},
  };
  return kTables;
}

/// Commands that only make sense after synth_design has produced a netlist
/// (mirrors the backend's "[...] before synth_design" failures).
const std::set<std::string>& post_synth_commands() {
  static const std::set<std::string> kCommands = {
      "opt_design",       "place_design",  "route_design",
      "write_checkpoint", "report_utilization", "report_timing",
      "report_power",
  };
  return kCommands;
}

/// Directive names the backend's timing model distinguishes
/// (edatool::directive_effects); anything else silently behaves as Default.
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

/// Every command the simulated session accepts: the interpreter's one
/// builtin (`set`), the flow commands of the flag tables and the constraint
/// plumbing of XDC files.
const std::vector<std::string>& known_commands() {
  static const std::vector<std::string> kCommands = [] {
    std::set<std::string> names = {"set", "get_ports", "get_nets", "set_property"};
    for (const auto& [name, _] : flag_tables()) names.insert(name);
    return std::vector<std::string>(names.begin(), names.end());
  }();
  return kCommands;
}

/// The value of a literal word, or nullptr when it is only known at run time.
const std::string* literal(const WordNode& word) {
  return word.is_literal() ? &word.literal() : nullptr;
}

class TclLinter {
 public:
  TclLinter(std::string path, const TclLintOptions& options, LintReport& report)
      : path_(std::move(path)), options_(options), report_(report) {}

  void lint(const std::string& text) { lint_script(tcl::parse_script(text)); }

 private:
  void add(Severity severity, const std::string& rule, int line, std::string message,
           std::string note = "") {
    report_.add(severity, rule, path_, {static_cast<std::uint32_t>(line), 0},
                std::move(message), std::move(note));
  }

  /// Lint a script that runs nested in the current one (a `[...]`) or the
  /// whole file: its syntax error, or else its commands in order. The
  /// parser already bounds nesting at tcl::kMaxDepth.
  void lint_script(const ScriptNode& script) {
    if (!script.ok) {
      add(Severity::kError, "tcl-parse-error", script.error_line, script.error);
      return;
    }
    for (const auto& command : script.commands) lint_command(command);
  }

  /// The substitution of one word, left to right: every `$ref` against the
  /// variables set so far, every `[...]` as a nested script sharing this
  /// scope.
  void check_parts(const WordNode& word) {
    for (const WordPart& part : word.parts) {
      if (part.kind == WordPart::Kind::kVar) check_ref(part.text, word.line);
      if (part.kind == WordPart::Kind::kScript) lint_script(*part.script);
    }
  }

  void check_ref(const std::string& name, int line) {
    if (defined_.count(name) > 0) return;
    add(Severity::kError, "tcl-unset-var", line,
        "variable '" + name + "' is read before any set");
    defined_.insert(name);  // report each variable once
  }

  void wrong_arity(const CommandNode& command, const std::string& usage) {
    add(Severity::kError, "tcl-wrong-arity", command.line,
        "wrong # args to '" + command.words[0].literal() + "'", "usage: " + usage);
  }

  void lint_command(const CommandNode& command) {
    if (command.words.empty()) return;
    // Every word is substituted, left to right, before the command runs.
    for (const auto& word : command.words) check_parts(word);

    const WordNode& head = command.words[0];
    if (!head.is_literal()) return;  // dynamically-named command
    const std::string& name = head.literal();

    const auto& known = known_commands();
    if (!std::binary_search(known.begin(), known.end(), name)) {
      const std::string suggestion = util::closest_match(name, known);
      add(Severity::kError, "tcl-unknown-command", command.line,
          "unknown command '" + name + "'",
          suggestion.empty() ? std::string() : "did you mean '" + suggestion + "'?");
      return;
    }

    if (name == "set") {
      const std::size_t args = command.words.size() - 1;
      const std::string* target = args >= 1 ? literal(command.words[1]) : nullptr;
      if (args < 1 || args > 2) {
        wrong_arity(command, "set varName ?newValue?");
      } else if (target != nullptr && args == 2) {
        defined_.insert(*target);
      } else if (target != nullptr) {
        check_ref(*target, command.line);
      }
      return;
    }

    const auto table = flag_tables().find(name);
    if (table != flag_tables().end()) {
      lint_tool_command(command, table->second);
    }
  }

  void lint_tool_command(const CommandNode& command, const FlagTable& table) {
    const std::string& name = command.words[0].literal();
    std::vector<std::string> seen_flags;
    std::size_t positionals = 0;

    std::vector<std::string> all_flags = table.value_flags;
    all_flags.insert(all_flags.end(), table.bool_flags.begin(), table.bool_flags.end());

    for (std::size_t i = 1; i < command.words.size(); ++i) {
      const WordNode& word = command.words[i];
      const std::string* flag = literal(word);
      if (flag == nullptr || flag->empty() || (*flag)[0] != '-' ||
          word.kind == WordNode::Kind::kBraced) {
        ++positionals;
        continue;
      }
      const bool is_value =
          std::find(table.value_flags.begin(), table.value_flags.end(), *flag) !=
          table.value_flags.end();
      const bool is_bool =
          std::find(table.bool_flags.begin(), table.bool_flags.end(), *flag) !=
          table.bool_flags.end();
      if (!is_value && !is_bool) {
        const std::string suggestion = util::closest_match(*flag, all_flags);
        add(Severity::kError, "tcl-unknown-flag", word.line,
            "unknown flag '" + *flag + "' for '" + name + "'",
            suggestion.empty() ? std::string() : "did you mean '" + suggestion + "'?");
        continue;
      }
      seen_flags.push_back(*flag);
      if (is_value) {
        if (i + 1 >= command.words.size()) {
          add(Severity::kError, "tcl-missing-arg", word.line,
              "flag '" + *flag + "' of '" + name + "' expects a value");
        } else {
          ++i;  // consume the value (refs were already checked above)
          if (*flag == "-directive") check_directive(name, command.words[i]);
        }
      }
    }

    for (const auto& required : table.required_flags) {
      if (std::find(seen_flags.begin(), seen_flags.end(), required) ==
          seen_flags.end()) {
        add(Severity::kError, "tcl-missing-arg", command.line,
            "'" + name + "' is missing required flag '" + required + "'");
      }
    }
    if (table.requires_positional && positionals == 0) {
      add(Severity::kError, "tcl-missing-arg", command.line,
          "'" + name + "' is missing its file argument");
    }

    if (options_.check_flow_order) {
      if (name == "synth_design") synth_done_ = true;
      if (!synth_done_ && post_synth_commands().count(name) > 0) {
        add(Severity::kError, "tcl-flow-order", command.line,
            "'" + name + "' before synth_design: there is no netlist yet");
      }
    }
  }

  void check_directive(const std::string& command, const WordNode& value) {
    const std::string* directive = literal(value);
    if (directive == nullptr) return;  // dynamic directive: cannot judge
    for (const auto& known : known_directives()) {
      if (util::iequals(*directive, known)) return;
    }
    const std::string suggestion = util::closest_match(*directive, known_directives());
    add(Severity::kWarning, "tcl-unknown-directive", value.line,
        "unknown directive '" + *directive + "' for '" + command +
            "' silently behaves as Default",
        suggestion.empty() ? std::string() : "did you mean '" + suggestion + "'?");
  }

  std::string path_;
  const TclLintOptions& options_;
  LintReport& report_;
  std::set<std::string> defined_;
  bool synth_done_ = false;
};

}  // namespace

void lint_tcl_script(const std::string& text, const std::string& path,
                     const TclLintOptions& options, LintReport& report) {
  TclLinter linter(path, options, report);
  linter.lint(text);
}

}  // namespace dovado::analysis
