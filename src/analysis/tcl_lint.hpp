// TCL script lint: a check of the straight-line TCL subset Dovado emits
// (see tcl/interp.hpp), without executing side effects.
//
// The linter parses a script into the structural AST (src/tcl/ast) and walks
// its commands in order, each word's `$refs` and `[...]` left to right, as
// the interpreter runs them: a variable read before any `set` of it is
// reported. A command the session does not register (`set`, the tool
// commands, get_ports / get_nets / set_property) is unknown. Tool commands
// (synth_design, place_design, ...) are validated against flag tables
// mirroring the simulated Vivado backend, and a flow-order state machine
// catches implementation steps issued before synth_design.
#pragma once

#include <string>

#include "src/analysis/diagnostic.hpp"

namespace dovado::analysis {

struct TclLintOptions {
  /// Validate synthesis/implementation ordering. Disable for constraint
  /// files (XDC), which run inside read_xdc mid-flow.
  bool check_flow_order = true;
};

/// Lint one TCL script. Appends diagnostics to `report`.
void lint_tcl_script(const std::string& text, const std::string& path,
                     const TclLintOptions& options, LintReport& report);

}  // namespace dovado::analysis
