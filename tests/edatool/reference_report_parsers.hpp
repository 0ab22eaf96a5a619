// Reference copies of the report parsers and writers as they were before
// the allocation-lean rewrite: the parsers split each line and cell into
// heap strings with util::split, and the writers built every line as a
// temporary string. The differential test (report_differential_test.cpp)
// checks that the live code returns the same results, diagnostics and
// report bytes included. The copies are verbatim except for their names,
// namespace and (for the writers) taking the report as an argument.
#pragma once

#include <string>
#include <string_view>

#include "src/edatool/power.hpp"
#include "src/edatool/report.hpp"

namespace dovado::reference {

[[nodiscard]] edatool::UtilizationReport::Checked parse_utilization(std::string_view text);
[[nodiscard]] edatool::TimingReport::Checked parse_timing(std::string_view text);
[[nodiscard]] bool parse_power_report(std::string_view text, edatool::PowerEstimate& estimate);

[[nodiscard]] std::string utilization_text(const edatool::UtilizationReport& report);
[[nodiscard]] std::string timing_text(const edatool::TimingReport& report);
[[nodiscard]] std::string power_report_text(const edatool::PowerEstimate& estimate,
                                            double clock_mhz);

}  // namespace dovado::reference
