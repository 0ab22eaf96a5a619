// The TCL interpreter behind the simulated tool session.
//
// Dovado "spawns Vivado as a subprocess and communicates with the physical
// tool through the TCL interface" (paper Sec. III-A.3). The interface is fed
// exactly two texts: the flow script tcl::generate_flow_script emits and the
// constraint file boxing::generate_xdc emits (run by the host's read_xdc).
// Both are straight-line: comments, `set`, `$var` / `${var}` references,
// braced and quoted words with backslash escapes, `[...]` command
// substitution and the tool commands. This interpreter runs that subset and
// nothing more: `set` is its one builtin, and the tool commands
// (synth_design, report_utilization, ...) are registered by the host (see
// edatool/vivado_sim). Any other command name fails with
// `invalid command name "..."`, as in TCL.
//
// The interpreter does not scan text itself: it executes the tree
// tcl::parse_script builds (ast.hpp), the same tree the TCL linter checks.
// Each distinct text (a top-level script, or a constraint file handed to
// eval_or_throw) is compiled on first use and memoised inside the Interp, so
// a flow script that is the same for every design point is parsed once per
// interpreter. The memo holds at most kMemoCapacity texts and starts over
// when full. An Interp is not thread-safe; each simulated tool session owns
// one.
//
// A script with a syntax error runs every command before the error, then
// substitutes the words of the broken command parsed so far, then raises the
// syntax error (see ast.hpp).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/tcl/ast.hpp"

namespace dovado::tcl {

class Interp;

/// A registered command: receives the full word list (args[0] is the command
/// name) and returns its string result. Errors are raised with Interp::fail.
using Command = std::function<std::string(Interp&, const std::vector<std::string>&)>;

/// Result of evaluating a script.
struct EvalResult {
  bool ok = false;
  std::string value;  ///< result of the last command when ok
  std::string error;  ///< message when !ok
};

/// TCL error carrier used internally; commands raise it via Interp::fail.
struct TclError {
  std::string message;
};

class Interp {
 public:
  Interp();

  /// Register (or replace) a command.
  void register_command(const std::string& name, Command fn);

  /// Names of the registered commands, sorted.
  [[nodiscard]] std::vector<std::string> command_names() const;

  /// Variable access. get_var raises a TCL error for unset variables.
  void set_var(const std::string& name, const std::string& value);
  [[nodiscard]] std::string get_var(const std::string& name) const;
  [[nodiscard]] bool has_var(const std::string& name) const;

  /// Evaluate a script; returns the last command's result.
  [[nodiscard]] EvalResult eval(std::string_view script);

  /// Evaluate a script from inside a command (raises TclError on failure).
  std::string eval_or_throw(std::string_view script);

  /// Run the command words[0] on already-substituted words.
  std::string invoke(const std::vector<std::string>& words);

  /// Raise a TCL error from inside a command implementation.
  [[noreturn]] static void fail(std::string message) { throw TclError{std::move(message)}; }

  /// Everything the tool commands printed, in order. Cleared by
  /// clear_output().
  [[nodiscard]] const std::vector<std::string>& output() const { return output_; }
  void clear_output() { output_.clear(); }

  /// Move the captured output out, leaving output() empty but with room
  /// for as many lines as were taken.
  [[nodiscard]] std::vector<std::string> take_output();

  /// Every variable and its value.
  [[nodiscard]] const std::map<std::string, std::string>& variables() const { return vars_; }

  /// Append a line to the captured output (used by tool commands that print
  /// reports).
  void emit(std::string line) { output_.push_back(std::move(line)); }

 private:
  /// Compiled texts by text; heterogeneous lookup avoids a key copy per hit.
  struct TextHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };
  using Compiled = std::shared_ptr<const ScriptNode>;
  static constexpr std::size_t kMemoCapacity = 256;

  Compiled compile(std::string_view text);
  std::string run(const ScriptNode& script);
  std::string expand(const WordNode& word);
  std::vector<std::string> expand(const CommandNode& command);

  std::map<std::string, Command> commands_;
  std::map<std::string, std::string> vars_;
  std::vector<std::string> output_;
  /// parse_script results
  std::unordered_map<std::string, Compiled, TextHash, std::equal_to<>> scripts_;
  int depth_ = 0;  ///< nesting of running scripts (bounded by kMaxDepth)
};

}  // namespace dovado::tcl
