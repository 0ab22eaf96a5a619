// Reference copy of the mini-TCL interpreter as it was before scripts were
// compiled by tcl::parse_script: it parses on the fly with its own cursor.
// The differential tests (tcl/differential_test.cpp,
// edatool/vivado_sim_differential_test.cpp) run every input through both
// interpreters and require identical results.
//
// The copy is verbatim apart from the namespace, a read-only view of the
// variables for comparison, and two intended behaviour differences of the
// compiled interpreter (listed in DESIGN.md "Static verification layer"):
//   - a carriage return separates words like a space or tab, so scripts with
//     CRLF line endings run (is_word_end);
//   - `set` is the only builtin: the others of the old dialect (expr, if,
//     proc, puts, the list and string commands, ...) are deleted, so they
//     fail with `invalid command name "..."` like any unknown word, as in
//     the compiled interpreter.
// The compiled interpreter's parse-time nesting bound needs no change here:
// it raises "too many nested evaluations" at the same point this copy's
// runtime guard does.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dovado::tcl::reference {

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

  /// Variable access. get_var raises a TCL error for unset variables.
  void set_var(const std::string& name, const std::string& value);
  [[nodiscard]] std::string get_var(const std::string& name) const;
  [[nodiscard]] bool has_var(const std::string& name) const;

  /// Evaluate a script; returns the last command's result.
  [[nodiscard]] EvalResult eval(std::string_view script);

  /// Evaluate a script from inside a command (raises TclError on failure).
  std::string eval_or_throw(std::string_view script);

  /// Raise a TCL error from inside a command implementation.
  [[noreturn]] static void fail(std::string message) { throw TclError{std::move(message)}; }

  /// Everything the commands emitted, in order. Cleared by clear_output().
  [[nodiscard]] const std::vector<std::string>& output() const { return output_; }
  void clear_output() { output_.clear(); }

  /// Every variable and its value (for comparing interpreters).
  [[nodiscard]] const std::map<std::string, std::string>& variables() const { return vars_; }

  /// Append a line to the captured output (used by tool commands that print
  /// reports).
  void emit(std::string line) { output_.push_back(std::move(line)); }

 private:
  std::string run_command(const std::vector<std::string>& words);
  void register_builtins();

  std::map<std::string, Command> commands_;
  std::map<std::string, std::string> vars_;
  std::vector<std::string> output_;
  int depth_ = 0;  ///< recursion guard for [..] substitution
};

}  // namespace dovado::tcl::reference
