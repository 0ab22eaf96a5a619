#include "src/edatool/report.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/util/strings.hpp"

namespace dovado::edatool {

const UtilizationRow* UtilizationReport::find(std::string_view site_type) const {
  for (const auto& r : rows) {
    if (r.site_type == site_type) return &r;
  }
  return nullptr;
}

std::int64_t UtilizationReport::used(std::string_view site_type) const {
  const UtilizationRow* row = find(site_type);
  return row != nullptr ? row->used : 0;
}

namespace {

/// The four cells of a table line "| a | b | c | d |": the text between its
/// first and last character, split on '|'. False unless there are exactly
/// four.
bool row_cells(std::string_view line, std::array<std::string_view, 4>& cells) {
  util::FieldCursor cursor(line.substr(1, line.size() - 2), '|');
  std::size_t count = 0;
  for (std::string_view cell; cursor.next(cell); ++count) {
    if (count == cells.size()) return false;
    cells[count] = cell;
  }
  return count == cells.size();
}

}  // namespace

std::string UtilizationReport::to_text() const {
  // Column widths follow the longest entry, like Vivado's report writer.
  std::size_t name_w = std::string_view("Site Type").size();
  for (const auto& r : rows) name_w = std::max(name_w, r.site_type.size());
  const int width = static_cast<int>(name_w);

  std::string out;
  // Every line is name_w + 40 bytes while the numbers fit their columns.
  out.reserve(32 + (rows.size() + 4) * (name_w + 40));
  auto border = [&] {
    out += '+';
    out.append(name_w + 2, '-');
    out += "+------------+------------+--------+\n";
  };
  out += "1. Summary\n----------\n\n";
  border();
  util::append_format(out, "| %-*s | %10s | %10s | %6s |\n", width, "Site Type", "Used",
                      "Available", "Util%");
  border();
  for (const auto& r : rows) {
    util::append_format(out, "| %-*s | %10lld | %10lld | %6.2f |\n", width,
                        r.site_type.c_str(), static_cast<long long>(r.used),
                        static_cast<long long>(r.available), r.util_percent);
  }
  border();
  return out;
}

UtilizationReport::Checked UtilizationReport::parse_checked(std::string_view text) {
  Checked out = parse_if_present(text);
  if (!out.attempted) out.error = "no utilization table found";
  return out;
}

UtilizationReport::Checked UtilizationReport::parse_if_present(std::string_view text) {
  Checked out;
  enum class State { kBeforeTable, kAfterHeader, kInRows, kDone };
  State state = State::kBeforeTable;
  UtilizationReport report;
  std::array<std::string_view, 4> cells;
  util::FieldCursor lines(text, '\n');
  for (std::string_view line; state != State::kDone && lines.next(line);) {
    const std::string_view trimmed = util::trim(line);
    const bool is_border = trimmed.size() >= 2 && trimmed.front() == '+';
    const bool is_row = trimmed.size() >= 2 && trimmed.front() == '|';

    if (state == State::kBeforeTable) {
      if (is_row && row_cells(trimmed, cells) && util::trim(cells[0]) == "Site Type") {
        out.attempted = true;
        // The simulated tool writes six or seven rows.
        report.rows.reserve(8);
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
    long long used = 0;
    long long avail = 0;
    double pct = 0.0;
    if (!row_cells(trimmed, cells) || !util::parse_int(cells[1], used) ||
        !util::parse_int(cells[2], avail) || !util::parse_double(cells[3], pct)) {
      out.error =
          "malformed utilization row: '" + std::string(trimmed.substr(0, 60)) + "'";
      return out;
    }
    report.rows.push_back({std::string(util::trim(cells[0])), used, avail, pct});
    state = State::kInRows;
  }
  if (!out.attempted) return out;
  if (state != State::kDone) {
    out.error = report.rows.empty() ? "utilization table truncated before any row"
                                    : "utilization table truncated (no closing border)";
    return out;
  }
  out.report = std::move(report);
  return out;
}

std::string TimingReport::to_text() const {
  std::string out;
  out.reserve(192 + path_group.size());
  util::append_format(out, "Slack (%s) :  %.3fns  (required time - arrival time)\n",
                      met() ? "MET" : "VIOLATED", slack_ns);
  util::append_format(out, "  Requirement:      %.3fns\n", requirement_ns);
  util::append_format(out, "  Data Path Delay:  %.3fns\n", data_path_ns);
  util::append_format(out, "  Logic Levels:     %d\n", logic_levels);
  util::append_format(out, "  Path Group:       %s\n", path_group.c_str());
  return out;
}

TimingReport::Checked TimingReport::parse_checked(std::string_view text) {
  Checked out = parse_if_present(text);
  if (!out.attempted) out.error = "no timing report found";
  return out;
}

TimingReport::Checked TimingReport::parse_if_present(std::string_view text) {
  Checked out;
  TimingReport report;
  bool saw_slack = false;
  bool saw_req = false;
  bool saw_delay = false;
  // Reads the number before a value's "ns" unit into `into`, or names the
  // field in out.error. The unit is part of the format: a value with its
  // "ns" sheared off is a truncated line, and accepting "2.2" from a torn
  // "2.25ns" would silently misreport timing.
  auto read_ns = [&out](std::string_view value, const char* field, double& into) {
    const auto ns = value.find("ns");
    if (ns == std::string_view::npos) {
      out.error = std::string("timing report: ") + field +
                  " value missing its ns unit (truncated line?)";
      return false;
    }
    if (!util::parse_double(value.substr(0, ns), into)) {
      out.error = std::string("timing report: unparsable ") + field + " value";
      return false;
    }
    return true;
  };
  util::FieldCursor lines(text, '\n');
  for (std::string_view line; lines.next(line);) {
    const std::string_view trimmed = util::trim(line);
    if (util::starts_with(trimmed, "Slack")) {
      out.attempted = true;
      const auto colon = trimmed.find(':');
      if (colon == std::string_view::npos) {
        out.error = "timing report: malformed Slack line";
        return out;
      }
      if (!read_ns(util::trim(trimmed.substr(colon + 1)), "Slack", report.slack_ns)) return out;
      saw_slack = true;
    } else if (util::starts_with(trimmed, "Requirement:")) {
      out.attempted = true;
      if (!read_ns(util::trim(trimmed.substr(12)), "Requirement", report.requirement_ns)) {
        return out;
      }
      saw_req = true;
    } else if (util::starts_with(trimmed, "Data Path Delay:")) {
      if (!read_ns(util::trim(trimmed.substr(16)), "Data Path Delay", report.data_path_ns)) {
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
  if (!out.attempted) return out;
  if (!saw_slack || !saw_req || !saw_delay) {
    out.error = std::string("timing report truncated: missing ") +
                (!saw_slack ? "Slack" : !saw_req ? "Requirement" : "Data Path Delay");
    return out;
  }
  out.report = std::move(report);
  return out;
}

double fmax_mhz(double target_period_ns, double wns_ns) {
  const double effective_period = target_period_ns - wns_ns;
  if (effective_period <= 0.0) return 0.0;
  return 1000.0 / effective_period;
}

}  // namespace dovado::edatool
