// Dovado's TCL script frames (paper Sec. III-A.3).
//
// Dovado ships "general frames for TCL scripts" that it customises at run
// time with the module specifics and the user-selected directives. This
// module generates the batch flow script the (simulated) Vivado executes:
// source reading in the required order, the XDC constraint, synthesis,
// optionally implementation (opt/place/route), the utilization and timing
// reports, and checkpoint writes for the incremental flow (always to
// kSynthCheckpoint and kImplCheckpoint).
#pragma once

#include <string>
#include <vector>

#include "src/hdl/ast.hpp"

namespace dovado::tcl {

/// Checkpoints the flow writes, and reads back in the incremental flow.
inline constexpr const char* kSynthCheckpoint = "post_synth.dcp";
inline constexpr const char* kImplCheckpoint = "post_route.dcp";

/// One source file of the design (the box source is passed separately since
/// it lives in memory, not on disk).
struct SourceFile {
  std::string path;
  hdl::HdlLanguage language = hdl::HdlLanguage::kVhdl;
  std::string library = "work";  ///< VHDL library (paper: one subfolder per library)
  bool is_package = false;       ///< SV packages must be read first
};

/// Everything the frame needs to produce a concrete flow script.
struct FrameConfig {
  std::vector<SourceFile> sources;
  std::string box_path = "dovado_box";  ///< virtual path of the generated box source
  hdl::HdlLanguage box_language = hdl::HdlLanguage::kVhdl;
  std::string xdc_path = "dovado_box.xdc";
  std::string top = "box";
  std::string part;
  std::string synth_directive = "Default";   ///< Vivado synth_design directive
  std::string place_directive = "Default";   ///< place_design directive
  std::string route_directive = "Default";   ///< route_design directive
  bool run_implementation = true;            ///< false => synthesis-only flow
  bool incremental_synth = false;
  bool incremental_impl = false;
};

/// Check the paper's naming constraints: a VHDL source assigned to a
/// non-work library must live in a subfolder named after that library, and
/// parts must be non-empty. Returns problems (empty == valid).
[[nodiscard]] std::vector<std::string> validate_frame(const FrameConfig& config);

/// Order sources for reading: SV packages first (paper: "SV packages are
/// read at the very beginning of the step"), then everything else in the
/// given order, then the box source last.
[[nodiscard]] std::vector<SourceFile> reading_order(const FrameConfig& config);

/// Generate the full flow script.
[[nodiscard]] std::string generate_flow_script(const FrameConfig& config);

/// The read command for one source file (read_vhdl / read_verilog /
/// read_verilog -sv with library flags).
[[nodiscard]] std::string read_command(const SourceFile& source);

}  // namespace dovado::tcl
