// On-chip power estimation for mapped designs.
//
// Extends the metric set beyond the paper's area/frequency pair toward the
// power-delay-area space its related work targets (Karakaya [14]). The
// model follows the standard XPE decomposition: device-dependent static
// leakage plus dynamic power proportional to clock frequency, switched
// capacitance (resource usage) and activity.
#pragma once

#include "src/edatool/techmap.hpp"
#include "src/fpga/device.hpp"

namespace dovado::edatool {

struct PowerEstimate {
  double static_w = 0.0;   ///< leakage, scales with device size/process
  double dynamic_w = 0.0;  ///< switching power at the analyzed clock
  [[nodiscard]] double total_w() const { return static_w + dynamic_w; }
};

/// Estimate power of a mapped design clocked at `clock_mhz` with the given
/// average toggle `activity` (fraction of nodes switching per cycle;
/// Vivado's vectorless default is 12.5%).
[[nodiscard]] PowerEstimate estimate_power(const MappedDesign& design,
                                           const fpga::Device& device, double clock_mhz,
                                           double activity = 0.125);

/// Render a Vivado-like power report ("Total On-Chip Power").
[[nodiscard]] std::string power_report_text(const PowerEstimate& estimate,
                                            double clock_mhz);

/// Parse a report produced by power_report_text in one pass, allocating
/// nothing. Returns true and fills the outputs on success.
[[nodiscard]] bool parse_power_report(std::string_view text, PowerEstimate& estimate);

}  // namespace dovado::edatool
