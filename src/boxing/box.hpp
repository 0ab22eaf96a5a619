// The Boxing step (paper Sec. III-A.2, Listing 1).
//
// Wraps the module under evaluation in a generated top-level "box" so that
// (a) the EDA tool cannot simplify away the module's I/O interface,
// (b) the FPGA implementation phase never hits pin overflow (the box exposes
//     only the clock), and
// (c) parametrization and the clock constraint apply at a single, known
//     entry point with no naming restrictions.
//
// The box instantiates the module with a DONT_TOUCH attribute, applies the
// design point's parameter values in the generic/parameter map, wires the
// detected clock to the box's `clk` pin and ties every other port to an
// internal signal.
#pragma once

#include <cstdint>
#include <string>

#include "src/hdl/ast.hpp"
#include "src/util/flat_map.hpp"

namespace dovado::boxing {

/// Inputs of box generation for one design point.
struct BoxConfig {
  /// Name of the generated wrapper entity/module.
  std::string box_name = "box";
  /// Clock port of the boxed module; empty => auto-detect (and if none is
  /// found the box still exposes a clk pin, simply unconnected).
  std::string clock_port;
  /// Concrete parameter values for this design point (free parameters only;
  /// attempts to override localparams are rejected).
  util::FlatMap<std::int64_t> parameters;
  /// Target clock period for the generated XDC constraint, in ns. The paper
  /// drives all case studies at 1 GHz (T = 1 ns) to expose the maximum
  /// theoretical frequency through WNS.
  double target_period_ns = 1.0;
};

/// Output of box generation.
struct BoxResult {
  bool ok = false;
  std::string error;        ///< human-readable reason when !ok
  std::string box_source;   ///< generated HDL text of the wrapper
  hdl::HdlLanguage language = hdl::HdlLanguage::kVhdl;  ///< language of the wrapper
  std::string xdc;          ///< clock-constraint file content
  std::string top_name;     ///< name of the wrapper (== config.box_name)
};

/// Generate the box wrapper + XDC for `module` at the given design point.
/// The wrapper language matches the module's language (a VHDL box for VHDL
/// entities, a Verilog box for V/SV modules), mirroring Dovado's frames.
[[nodiscard]] BoxResult generate_box(const hdl::Module& module, const BoxConfig& config);

/// Generate just the XDC clock constraint for a given clock pin and period.
[[nodiscard]] std::string generate_xdc(const std::string& clock_pin, double period_ns);

}  // namespace dovado::boxing
