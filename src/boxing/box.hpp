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
#include <vector>

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

/// The part of box generation that is fixed per module and configuration
/// (box name, clock port, target period): checked, resolved and laid out
/// once, so that each design point only checks its parameter names, builds
/// the parameter environment, evaluates the vector bounds and appends into
/// one reserved string. An evaluator builds one per project; generate_box
/// builds one per call.
///
/// The template points at `module`, which must outlive it.
class BoxTemplate {
 public:
  /// Build the template of `module`'s box under `config`; its `parameters`
  /// are not read. Problems of the module or the configuration do not
  /// throw: they fail every point, in the order generate_box checks them
  /// (module and box names before a point's parameters, the period and the
  /// clock port after them).
  BoxTemplate(const hdl::Module& module, const BoxConfig& config);

  /// Render the box source of one design point into `source`, replacing
  /// its content. Returns the error generate_box would report, empty on
  /// success; on error `source` holds no usable text.
  [[nodiscard]] std::string render(const util::FlatMap<std::int64_t>& parameters,
                                   std::string& source) const;

  /// Everything generate_box returns for one design point.
  [[nodiscard]] BoxResult generate(const util::FlatMap<std::int64_t>& parameters) const;

  /// The XDC clock constraint every point's box shares.
  [[nodiscard]] const std::string& xdc() const { return xdc_; }

 private:
  /// A vector port's internal signal: the fixed text before its evaluated
  /// bounds, and how the bounds are written.
  struct Slot {
    std::string before;
    const hdl::Port* port = nullptr;
    const char* direction = nullptr;  ///< VHDL " downto " / " to "; nullptr for Verilog
  };

  /// The error of a point whose parameters are `parameters`, up to (not
  /// including) evaluating its bounds.
  [[nodiscard]] std::string check(const util::FlatMap<std::int64_t>& parameters) const;
  /// render() for a point that passed check().
  [[nodiscard]] std::string render_checked(const util::FlatMap<std::int64_t>& parameters,
                                           std::string& source) const;

  const hdl::Module* module_;
  std::string box_name_;
  std::string error_;       ///< fails every point before its parameters are checked
  std::string late_error_;  ///< fails every point whose parameters pass
  std::vector<Slot> slots_;  ///< one per non-clock vector port, in port order
  std::string middle_;       ///< fixed text from the last slot to the parameter map
  std::string tail_;         ///< fixed text after the parameter map
  std::size_t fixed_size_ = 0;  ///< bytes of fixed text, for the reserve
  std::string xdc_;
};

/// Generate the box wrapper + XDC for `module` at the given design point:
/// BoxTemplate(module, config).generate(config.parameters). The wrapper
/// language matches the module's language (a VHDL box for VHDL entities, a
/// Verilog box for V/SV modules), mirroring Dovado's frames.
[[nodiscard]] BoxResult generate_box(const hdl::Module& module, const BoxConfig& config);

/// Generate just the XDC clock constraint for a given clock pin and period.
[[nodiscard]] std::string generate_xdc(const std::string& clock_pin, double period_ns);

}  // namespace dovado::boxing
