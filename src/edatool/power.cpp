#include "src/edatool/power.hpp"

#include "src/util/strings.hpp"

namespace dovado::edatool {

PowerEstimate estimate_power(const MappedDesign& design, const fpga::Device& device,
                             double clock_mhz, double activity) {
  PowerEstimate estimate;

  // Static leakage: per-resource leakage scaled by process node (16 nm
  // FinFET leaks less per cell than 28 nm planar at these operating points).
  const double node_factor = device.process_nm <= 16 ? 0.6 : 1.0;
  estimate.static_w =
      node_factor * (0.05 +  // fixed: config logic, clock network idle
                     static_cast<double>(device.resources.lut) * 1.5e-6 +
                     static_cast<double>(device.resources.bram36) * 1.2e-4 +
                     static_cast<double>(device.resources.dsp) * 0.5e-4);

  // Dynamic: C*V^2*f per used resource class, folded into per-resource
  // energy-per-toggle constants (J/MHz equivalents).
  const double f = clock_mhz;
  const double a = activity;
  // Energy constants in W per MHz per resource, calibrated against XPE-like
  // magnitudes (a DSP48 toggling at 300 MHz burns a few mW; a 10k-LUT
  // design's logic power lands in the hundreds of mW).
  const double lut_e = 1.3e-6;
  const double ff_e = 6.0e-7;
  const double bram_e = 2.0e-4;  // per BRAM36 access
  const double dsp_e = 1.1e-4;
  const double uram_e = 3.0e-4;
  const double volt_factor = device.process_nm <= 16 ? 0.72 : 1.0;  // V^2 ratio
  estimate.dynamic_w =
      volt_factor * f * a *
      (static_cast<double>(design.util.lut_total()) * lut_e +
       static_cast<double>(design.util.ff) * ff_e +
       static_cast<double>(design.util.bram36) * bram_e +
       static_cast<double>(design.util.dsp) * dsp_e +
       static_cast<double>(design.util.uram) * uram_e);
  // Clock-tree dynamic power: proportional to the sequential load, always
  // toggling regardless of data activity.
  estimate.dynamic_w +=
      volt_factor * f * static_cast<double>(design.util.ff) * 2.5e-7;
  return estimate;
}

std::string power_report_text(const PowerEstimate& estimate, double clock_mhz) {
  std::string out;
  out.reserve(192);
  out += "1. Power Summary\n----------------\n\n";
  out += "Total On-Chip Power (W):  ";
  util::append_fixed(out, estimate.total_w(), 4);
  out += "\n  Device Static (W):      ";
  util::append_fixed(out, estimate.static_w, 4);
  out += "\n  Dynamic (W):            ";
  util::append_fixed(out, estimate.dynamic_w, 4);
  out += "\n  Analyzed Clock (MHz):   ";
  util::append_fixed(out, clock_mhz, 3);
  out += '\n';
  return out;
}

bool parse_power_report(std::string_view text, PowerEstimate& estimate) {
  bool saw_static = false;
  bool saw_dynamic = false;
  util::FieldCursor lines(text, '\n');
  for (std::string_view line; lines.next(line);) {
    const std::string_view trimmed = util::trim(line);
    auto value_after = [&](std::string_view prefix, double& out) {
      if (!util::starts_with(trimmed, prefix)) return false;
      return util::parse_double(trimmed.substr(prefix.size()), out);
    };
    if (value_after("Device Static (W):", estimate.static_w)) saw_static = true;
    if (value_after("Dynamic (W):", estimate.dynamic_w)) saw_dynamic = true;
  }
  return saw_static && saw_dynamic;
}

}  // namespace dovado::edatool
