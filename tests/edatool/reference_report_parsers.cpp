#include "tests/edatool/reference_report_parsers.hpp"

#include <algorithm>
#include <string>

#include "src/util/strings.hpp"

namespace dovado::reference {

using edatool::PowerEstimate;
using edatool::TimingReport;
using edatool::UtilizationReport;
using edatool::UtilizationRow;

UtilizationReport::Checked parse_utilization(std::string_view text) {
  using Checked = UtilizationReport::Checked;
  Checked out;
  enum class State { kBeforeTable, kAfterHeader, kInRows, kDone };
  State state = State::kBeforeTable;
  UtilizationReport report;
  for (const auto& line : util::split(text, '\n')) {
    const std::string_view trimmed = util::trim(line);
    if (state == State::kDone) break;
    const bool is_border = trimmed.size() >= 2 && trimmed.front() == '+';
    const bool is_row = trimmed.size() >= 2 && trimmed.front() == '|';

    if (state == State::kBeforeTable) {
      if (!is_row) continue;
      auto cells = util::split(trimmed.substr(1, trimmed.size() - 2), '|');
      if (cells.size() == 4 && util::trim(cells[0]) == "Site Type") {
        out.attempted = true;
        state = State::kAfterHeader;
      }
      continue;
    }

    // Inside the table: only border lines, well-formed rows and blank lines
    // may appear until the closing border.
    if (trimmed.empty()) continue;
    if (is_border) {
      if (state == State::kInRows) state = State::kDone;  // closing border
      continue;  // the separator right under the header
    }
    if (!is_row) {
      out.error = "unexpected text inside utilization table: '" +
                  std::string(trimmed.substr(0, 40)) + "'";
      return out;
    }
    auto cells = util::split(trimmed.substr(1, trimmed.size() - 2), '|');
    UtilizationRow row;
    long long used = 0;
    long long avail = 0;
    double pct = 0.0;
    if (cells.size() != 4 || !util::parse_int(cells[1], used) ||
        !util::parse_int(cells[2], avail) || !util::parse_double(cells[3], pct)) {
      out.error =
          "malformed utilization row: '" + std::string(trimmed.substr(0, 60)) + "'";
      return out;
    }
    row.site_type = std::string(util::trim(cells[0]));
    row.used = used;
    row.available = avail;
    row.util_percent = pct;
    report.rows.push_back(std::move(row));
    state = State::kInRows;
  }
  if (!out.attempted) {
    out.error = "no utilization table found";
    return out;
  }
  if (state != State::kDone) {
    out.error = report.rows.empty() ? "utilization table truncated before any row"
                                    : "utilization table truncated (no closing border)";
    return out;
  }
  out.report = std::move(report);
  return out;
}

TimingReport::Checked parse_timing(std::string_view text) {
  using Checked = TimingReport::Checked;
  Checked out;
  TimingReport report;
  bool saw_slack = false;
  bool saw_req = false;
  bool saw_delay = false;
  for (const auto& line : util::split(text, '\n')) {
    const std::string_view trimmed = util::trim(line);
    if (util::starts_with(trimmed, "Slack")) {
      out.attempted = true;
      const auto colon = trimmed.find(':');
      if (colon == std::string_view::npos) {
        out.error = "timing report: malformed Slack line";
        return out;
      }
      std::string_view value = util::trim(trimmed.substr(colon + 1));
      // The unit is part of the format: a value with its "ns" sheared off
      // is a truncated line, and accepting "2.2" from a torn "2.25ns"
      // would silently misreport timing.
      const auto ns = value.find("ns");
      if (ns == std::string_view::npos) {
        out.error = "timing report: Slack value missing its ns unit (truncated line?)";
        return out;
      }
      value = value.substr(0, ns);
      if (!util::parse_double(value, report.slack_ns)) {
        out.error = "timing report: unparsable Slack value";
        return out;
      }
      saw_slack = true;
    } else if (util::starts_with(trimmed, "Requirement:")) {
      out.attempted = true;
      std::string_view value = util::trim(trimmed.substr(12));
      const auto ns = value.find("ns");
      if (ns == std::string_view::npos) {
        out.error = "timing report: Requirement value missing its ns unit (truncated line?)";
        return out;
      }
      if (!util::parse_double(value.substr(0, ns), report.requirement_ns)) {
        out.error = "timing report: unparsable Requirement value";
        return out;
      }
      saw_req = true;
    } else if (util::starts_with(trimmed, "Data Path Delay:")) {
      std::string_view value = util::trim(trimmed.substr(16));
      const auto ns = value.find("ns");
      if (ns == std::string_view::npos) {
        out.error = "timing report: Data Path Delay value missing its ns unit (truncated line?)";
        return out;
      }
      if (!util::parse_double(value.substr(0, ns), report.data_path_ns)) {
        out.error = "timing report: unparsable Data Path Delay value";
        return out;
      }
      saw_delay = true;
    } else if (util::starts_with(trimmed, "Logic Levels:")) {
      long long levels = 0;
      if (util::parse_int(trimmed.substr(13), levels)) {
        report.logic_levels = static_cast<int>(levels);
      }
    } else if (util::starts_with(trimmed, "Path Group:")) {
      report.path_group = std::string(util::trim(trimmed.substr(11)));
    }
  }
  if (!out.attempted) {
    out.error = "no timing report found";
    return out;
  }
  if (!saw_slack || !saw_req || !saw_delay) {
    out.error = std::string("timing report truncated: missing ") +
                (!saw_slack ? "Slack" : !saw_req ? "Requirement" : "Data Path Delay");
    return out;
  }
  out.report = report;
  return out;
}

bool parse_power_report(std::string_view text, PowerEstimate& estimate) {
  bool saw_static = false;
  bool saw_dynamic = false;
  for (const auto& line : util::split(text, '\n')) {
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

std::string utilization_text(const UtilizationReport& report) {
  const auto& rows = report.rows;
  // Column widths follow the longest entry, like Vivado's report writer.
  std::size_t name_w = std::string_view("Site Type").size();
  for (const auto& r : rows) name_w = std::max(name_w, r.site_type.size());

  auto separator = [&] {
    return "+" + std::string(name_w + 2, '-') + "+------------+------------+--------+\n";
  };

  std::string out;
  out += "1. Summary\n----------\n\n";
  out += separator();
  out += util::format("| %-*s | %10s | %10s | %6s |\n", static_cast<int>(name_w),
                      "Site Type", "Used", "Available", "Util%");
  out += separator();
  for (const auto& r : rows) {
    out += util::format("| %-*s | %10lld | %10lld | %6.2f |\n", static_cast<int>(name_w),
                        r.site_type.c_str(), static_cast<long long>(r.used),
                        static_cast<long long>(r.available), r.util_percent);
  }
  out += separator();
  return out;
}

std::string timing_text(const TimingReport& report) {
  const double slack_ns = report.slack_ns;
  const double requirement_ns = report.requirement_ns;
  const double data_path_ns = report.data_path_ns;
  const int logic_levels = report.logic_levels;
  const std::string& path_group = report.path_group;
  std::string out;
  out += util::format("Slack (%s) :  %.3fns  (required time - arrival time)\n",
                      report.met() ? "MET" : "VIOLATED", slack_ns);
  out += util::format("  Requirement:      %.3fns\n", requirement_ns);
  out += util::format("  Data Path Delay:  %.3fns\n", data_path_ns);
  out += util::format("  Logic Levels:     %d\n", logic_levels);
  out += util::format("  Path Group:       %s\n", path_group.c_str());
  return out;
}

std::string power_report_text(const PowerEstimate& estimate, double clock_mhz) {
  std::string out;
  out += "1. Power Summary\n----------------\n\n";
  out += util::format("Total On-Chip Power (W):  %.4f\n", estimate.total_w());
  out += util::format("  Device Static (W):      %.4f\n", estimate.static_w);
  out += util::format("  Dynamic (W):            %.4f\n", estimate.dynamic_w);
  out += util::format("  Analyzed Clock (MHz):   %.3f\n", clock_mhz);
  return out;
}

}  // namespace dovado::reference
