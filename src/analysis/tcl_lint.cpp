#include "src/analysis/tcl_lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "src/tcl/ast.hpp"
#include "src/tcl/interp.hpp"
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

std::vector<std::string> builtin_commands() {
  return {"set",    "unset",  "puts",    "expr",   "incr",  "if",     "while",
          "return", "error",  "catch",   "list",   "append", "foreach", "for",
          "proc",   "llength", "lindex", "lappend", "string", "format"};
}

/// The value of a literal word, or nullptr when it is only known at run time.
const std::string* literal(const WordNode& word) {
  return word.is_literal() ? &word.literal() : nullptr;
}

/// True when the word is literally `text` (e.g. the `else` of an if).
bool is_keyword(const WordNode& word, std::string_view text) {
  return word.is_literal() && word.literal() == text;
}

/// Static numeric evaluation of a condition; nullopt when it depends on
/// variables, command substitution, or is not a constant expression.
std::optional<double> static_number(const WordNode& word) {
  if (!word.is_literal()) return std::nullopt;
  const ScriptNode text = tcl::parse_substitution(word.literal());
  const WordNode& substituted = text.commands.front().words.front();
  if (!text.ok || !substituted.is_literal()) return std::nullopt;
  try {
    return tcl::Interp::eval_number(substituted.literal());
  } catch (const tcl::TclError&) {
    return std::nullopt;
  }
}

class TclLinter {
 public:
  TclLinter(std::string path, const TclLintOptions& options, LintReport& report)
      : path_(std::move(path)), options_(options), report_(report) {
    for (const auto& name : builtin_commands()) known_commands_.insert(name);
    for (const auto& [name, _] : flag_tables()) known_commands_.insert(name);
    known_commands_.insert("get_ports");
    known_commands_.insert("get_nets");
    known_commands_.insert("set_property");
    for (const auto& var : options.predefined_vars) defined_.insert(var);
  }

  void lint(const std::string& text) { lint_script(tcl::parse_script(text), 1); }

 private:
  void add(Severity severity, const std::string& rule, int line, std::string message,
           std::string note = "") {
    report_.add(severity, rule, path_, {static_cast<std::uint32_t>(line), 0},
                std::move(message), std::move(note));
  }

  /// Lint a script that runs nested in the current one (a `[...]`, a body)
  /// or the whole file: its syntax error, or else its commands.
  void lint_script(const ScriptNode& script, int line) {
    if (!script.ok) {
      add(Severity::kError, "tcl-parse-error", script.error_line, script.error);
      return;
    }
    if (depth_ >= tcl::kMaxDepth) {
      add(Severity::kError, "tcl-parse-error", line, "too many nested evaluations");
      return;
    }
    ++depth_;
    lint_commands(script.commands);
    --depth_;
  }

  /// The substitution of one word, left to right: every `$ref` against the
  /// may-defined set, every `[...]` as a nested script sharing this scope.
  void check_parts(const WordNode& word) {
    for (const WordPart& part : word.parts) {
      if (part.kind == WordPart::Kind::kVar) check_ref(part.text, word.line);
      if (part.kind == WordPart::Kind::kScript) lint_script(*part.script, word.line);
    }
  }

  void check_ref(const std::string& name, int line) {
    if (defined_.count(name) > 0) return;
    add(Severity::kError, "tcl-unset-var", line,
        "variable '" + name + "' is read but never set on any path");
    defined_.insert(name);  // report each variable once
  }

  /// The second substitution round `expr`/`if`/`while`/`for` apply to a
  /// literal condition (a dynamic one is only known at run time).
  void check_substitution(const WordNode& word) {
    if (!word.is_literal()) return;
    const ScriptNode text = tcl::parse_substitution(word.literal(), word.line);
    if (!text.ok) {
      add(Severity::kError, "tcl-parse-error", text.error_line, text.error);
      return;
    }
    check_parts(text.commands.front().words.front());
  }

  /// Parse a literal word the command runs as a script (if/while bodies,
  /// proc bodies, catch scripts). A braced word is parsed from its source
  /// text so line numbers stay right across backslash-newlines.
  static std::optional<ScriptNode> parse_body(const WordNode& word) {
    if (!word.is_literal()) return std::nullopt;
    const std::string& text =
        word.kind == WordNode::Kind::kBraced ? word.text : word.literal();
    return tcl::parse_script(text, word.line);
  }

  void lint_script_word(const WordNode& word) {
    if (auto body = parse_body(word)) lint_script(*body, word.line);
  }

  /// Collect variables a script word could define, without reporting
  /// anything — the pre-pass for loop bodies, where a read in iteration N
  /// may see a definition from iteration N-1.
  void collect_defs(const WordNode& word) {
    const auto body = parse_body(word);
    if (!body || !body->ok || depth_ >= tcl::kMaxDepth) return;
    ++depth_;
    collect_defs_in(body->commands);
    --depth_;
  }

  void collect_defs_in(const std::vector<CommandNode>& commands) {
    for (const auto& command : commands) {
      if (command.words.empty() || !command.words[0].is_literal()) continue;
      const std::string& name = command.words[0].literal();
      const auto def_target = [&](std::size_t i) {
        if (command.words.size() > i && command.words[i].is_literal()) {
          defined_.insert(command.words[i].literal());
        }
      };
      if (name == "set" && command.words.size() >= 3) def_target(1);
      if (name == "append" || name == "lappend" || name == "incr") def_target(1);
      if (name == "foreach") def_target(1);
      if (name == "catch") def_target(2);
      if (name == "proc" && command.words.size() == 4) {
        if (const std::string* proc = literal(command.words[1])) known_commands_.insert(*proc);
      }
      // Recurse into nested control-flow bodies.
      if (name == "if" || name == "while" || name == "for" || name == "foreach" ||
          name == "catch") {
        for (std::size_t i = 1; i < command.words.size(); ++i) {
          if (command.words[i].kind == WordNode::Kind::kBraced) {
            collect_defs(command.words[i]);
          }
        }
      }
    }
  }

  void wrong_arity(const CommandNode& command, const std::string& usage) {
    add(Severity::kError, "tcl-wrong-arity", command.line,
        "wrong # args to '" + command.words[0].literal() + "'", "usage: " + usage);
  }

  void lint_commands(const std::vector<CommandNode>& commands) {
    for (const auto& command : commands) lint_command(command);
  }

  void lint_command(const CommandNode& command) {
    if (command.words.empty()) return;
    // Every word is substituted, left to right, before the command runs.
    for (const auto& word : command.words) check_parts(word);

    const WordNode& head = command.words[0];
    if (!head.is_literal()) return;  // dynamically-named command
    const std::string& name = head.literal();

    if (known_commands_.count(name) == 0) {
      const std::vector<std::string> candidates(known_commands_.begin(),
                                                known_commands_.end());
      const std::string suggestion = util::closest_match(name, candidates);
      add(Severity::kError, "tcl-unknown-command", command.line,
          "unknown command '" + name + "'",
          suggestion.empty() ? std::string() : "did you mean '" + suggestion + "'?");
      return;
    }

    if (name == "if") {
      lint_if(command);
      return;
    }
    if (name == "while") {
      lint_while(command);
      return;
    }
    if (name == "for") {
      lint_for(command);
      return;
    }
    if (name == "foreach") {
      lint_foreach(command);
      return;
    }
    if (name == "proc") {
      lint_proc(command);
      return;
    }
    if (name == "catch") {
      lint_catch(command);
      return;
    }

    // `expr` substitutes its arguments once more.
    if (name == "expr") {
      for (std::size_t i = 1; i < command.words.size(); ++i) {
        check_substitution(command.words[i]);
      }
    }

    const std::size_t args = command.words.size() - 1;
    const std::string* target = args >= 1 ? literal(command.words[1]) : nullptr;
    if (name == "set") {
      if (args < 1 || args > 2) {
        wrong_arity(command, "set varName ?newValue?");
      } else if (target != nullptr && args == 2) {
        defined_.insert(*target);
      } else if (target != nullptr) {
        check_ref(*target, command.line);
      }
      return;
    }
    if (name == "unset") {
      if (args < 1) wrong_arity(command, "unset varName ?varName ...?");
      for (std::size_t i = 1; i < command.words.size(); ++i) {
        if (const std::string* var = literal(command.words[i])) defined_.erase(*var);
      }
      return;
    }
    if (name == "puts" && (args < 1 || args > 2)) {
      wrong_arity(command, "puts ?-nonewline? string");
      return;
    }
    if (name == "expr" && args < 1) {
      wrong_arity(command, "expr arg ?arg ...?");
      return;
    }
    if (name == "incr") {
      if (args < 1 || args > 2) {
        wrong_arity(command, "incr varName ?increment?");
      } else if (target != nullptr) {
        defined_.insert(*target);
      }
      return;
    }
    if ((name == "append" || name == "lappend") && target != nullptr) {
      defined_.insert(*target);
      return;
    }

    const auto table = flag_tables().find(name);
    if (table != flag_tables().end()) {
      lint_tool_command(command, table->second);
    }
  }

  void lint_if(const CommandNode& command) {
    // if cond body ?elseif cond body ...? ?else body?
    const auto& words = command.words;
    const std::set<std::string> before = defined_;
    std::set<std::string> joined = defined_;  // union over branches
    bool saw_else = false;
    bool prior_taken = false;  // a statically-true condition shadows the rest

    std::size_t i = 1;
    while (true) {
      if (i + 1 >= words.size()) {
        wrong_arity(command, "if cond body ?elseif cond body ...? ?else body?");
        return;
      }
      const WordNode& cond = words[i];
      check_substitution(cond);  // conditions are always substituted
      std::size_t body = i + 1;
      if (is_keyword(words[body], "then")) ++body;
      if (body >= words.size()) {
        wrong_arity(command, "if cond body ?elseif cond body ...? ?else body?");
        return;
      }

      const std::optional<double> value = static_number(cond);
      const bool dead = (value && *value == 0.0) || prior_taken;
      if (dead) {
        add(Severity::kWarning, "tcl-dead-branch", cond.line,
            prior_taken ? "branch is unreachable: an earlier condition is always true"
                        : "condition '" + cond.text + "' is always false");
      }
      if (value && *value != 0.0 && !prior_taken) prior_taken = true;

      defined_ = before;
      lint_script_word(words[body]);
      if (!dead) {
        joined.insert(defined_.begin(), defined_.end());
      }

      std::size_t next = body + 1;
      if (next >= words.size()) break;
      if (is_keyword(words[next], "elseif")) {
        i = next + 1;
        continue;
      }
      if (is_keyword(words[next], "else")) {
        if (next + 1 >= words.size()) {
          wrong_arity(command, "if cond body ?elseif cond body ...? ?else body?");
          return;
        }
        if (prior_taken) {
          add(Severity::kWarning, "tcl-dead-branch", words[next].line,
              "else branch is unreachable: an earlier condition is always true");
        }
        saw_else = true;
        defined_ = before;
        lint_script_word(words[next + 1]);
        if (!prior_taken) joined.insert(defined_.begin(), defined_.end());
        break;
      }
      wrong_arity(command, "if cond body ?elseif cond body ...? ?else body?");
      return;
    }

    // May-analysis: defined after the if = defined on any branch. Without
    // an else, falling through keeps only `before`, already in `joined`.
    (void)saw_else;
    defined_ = std::move(joined);
  }

  void lint_while(const CommandNode& command) {
    if (command.words.size() != 3) {
      wrong_arity(command, "while test body");
      return;
    }
    const WordNode& cond = command.words[1];
    const WordNode& body = command.words[2];
    check_substitution(cond);
    const std::optional<double> value = static_number(cond);
    if (value && *value == 0.0) {
      add(Severity::kWarning, "tcl-dead-branch", cond.line,
          "loop body is unreachable: condition '" + cond.text + "' is always false");
    }
    collect_defs(body);  // iteration N may read iteration N-1's definitions
    lint_script_word(body);
  }

  void lint_for(const CommandNode& command) {
    if (command.words.size() != 5) {
      wrong_arity(command, "for start test next body");
      return;
    }
    lint_script_word(command.words[1]);  // init runs unconditionally
    check_substitution(command.words[2]);
    collect_defs(command.words[3]);
    collect_defs(command.words[4]);
    lint_script_word(command.words[4]);
    lint_script_word(command.words[3]);
  }

  void lint_foreach(const CommandNode& command) {
    if (command.words.size() != 4) {
      wrong_arity(command, "foreach varName list body");
      return;
    }
    if (const std::string* var = literal(command.words[1])) defined_.insert(*var);
    collect_defs(command.words[3]);
    lint_script_word(command.words[3]);
  }

  void lint_proc(const CommandNode& command) {
    if (command.words.size() != 4) {
      wrong_arity(command, "proc name args body");
      return;
    }
    if (const std::string* proc = literal(command.words[1])) known_commands_.insert(*proc);
    // Flat scoping (see interp.cpp): the body sees globals, and formals are
    // bound as ordinary variables.
    if (const std::string* formals = literal(command.words[2])) {
      for (const auto& formal : util::split(*formals, ' ')) {
        const std::string trimmed{util::trim(formal)};
        if (!trimmed.empty()) defined_.insert(trimmed);
      }
    }
    lint_script_word(command.words[3]);
  }

  void lint_catch(const CommandNode& command) {
    if (command.words.size() < 2 || command.words.size() > 3) {
      wrong_arity(command, "catch script ?resultVar?");
      return;
    }
    lint_script_word(command.words[1]);
    if (command.words.size() == 3) {
      if (const std::string* var = literal(command.words[2])) defined_.insert(*var);
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
  std::set<std::string> known_commands_;
  bool synth_done_ = false;
  int depth_ = 0;  ///< nesting of the script being linted
};

}  // namespace

void lint_tcl_script(const std::string& text, const std::string& path,
                     const TclLintOptions& options, LintReport& report) {
  TclLinter linter(path, options, report);
  linter.lint(text);
}

}  // namespace dovado::analysis
