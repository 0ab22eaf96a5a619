// Net-level structure extraction from Verilog/SystemVerilog module bodies.
//
// The declaration parsers (paper Sec. III-A.1) model only the module
// interface; the netlist lint rules (src/analysis/hdl_lint) additionally
// need to know which nets exist inside the body, who drives them and who
// reads them. This module token-scans one module body — reusing the shared
// Lexer — and extracts exactly that: net declarations with their packed
// ranges, continuous assigns (whole-net vs slice), procedural drive targets
// of always/initial regions, and instance connections.
//
// The scan is deliberately conservative: anything it cannot classify with
// certainty (instance connections, slices, concatenations) is recorded as
// "might drive and might read", so downstream rules stay free of false
// positives on real RTL. VHDL architectures are not scanned (found=false);
// VHDL designs get interface-level lint only.
#pragma once

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/hdl/ast.hpp"

namespace dovado::hdl {

/// One net (wire/reg/logic declaration or port) seen in a module body.
struct NetInfo {
  std::string name;
  bool declared = false;      ///< body declaration seen (ports may lack one)
  bool is_vector = false;
  bool is_array = false;      ///< has unpacked dimensions; width rules skip it
  std::string left_expr;      ///< packed range bounds as source text
  std::string right_expr;
  SourceLoc loc;

  int whole_cont_drivers = 0;  ///< `assign name = ...`
  int slice_cont_drivers = 0;  ///< `assign name[i] = ...` / concat members
  int whole_proc_drivers = 0;  ///< `name <= ...` / `name = ...` in a process
  int slice_proc_drivers = 0;
  bool instance_connected = false;  ///< appears in an instantiation port list
  bool read = false;                ///< appears on some right-hand side

  [[nodiscard]] int drivers() const {
    return whole_cont_drivers + slice_cont_drivers + whole_proc_drivers +
           slice_proc_drivers + (instance_connected ? 1 : 0);
  }
};

/// One continuous assignment (the edges of the combinational net graph).
struct ContAssign {
  std::string lhs;
  bool whole = true;              ///< no select on the left-hand side
  std::vector<std::string> rhs;   ///< identifiers read by the right-hand side
  bool rhs_single_ident = false;  ///< RHS is exactly one bare identifier
  SourceLoc loc;
};

/// Everything the scanner recovered from one module body.
struct ModuleStructure {
  bool found = false;  ///< false: module body absent or language unsupported
  std::map<std::string, NetInfo> nets;
  std::vector<ContAssign> assigns;
};

/// Scan `tokens` (a full source file, lexed) for the body of
/// `module_name`. Only Verilog/SystemVerilog is supported; VHDL returns
/// found=false.
[[nodiscard]] ModuleStructure scan_structure(std::span<const Token> tokens,
                                             HdlLanguage language,
                                             const std::string& module_name);

}  // namespace dovado::hdl
