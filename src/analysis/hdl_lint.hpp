// Netlist lint: interface- and net-level rules over parsed HDL.
//
// Interface rules (both languages) come from the declaration parser;
// net-level rules (undriven/multiply-driven nets, dangling outputs,
// combinational loops via Tarjan SCC, width mismatches) come from the
// conservative body scanner in src/hdl/structure — Verilog/SV only.
#pragma once

#include <span>
#include <string>

#include "src/analysis/diagnostic.hpp"
#include "src/hdl/ast.hpp"

namespace dovado::analysis {

/// Lint one parsed source file. `top_module` enables top-specific rules
/// (clock detection) for the matching module; pass "" to lint every module
/// uniformly. `tokens` (the file's tokens, as parsed) feed the body scanner.
void lint_hdl_file(const hdl::ParseResult& parsed, const std::string& path,
                   std::span<const hdl::Token> tokens, const std::string& top_module,
                   LintReport& report);

/// Net-level rules over one module body (exposed for targeted tests).
void lint_module_structure(const hdl::Module& module, const std::string& path,
                           std::span<const hdl::Token> tokens, LintReport& report);

}  // namespace dovado::analysis
