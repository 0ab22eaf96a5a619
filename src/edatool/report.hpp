// Vivado-style text reports and their parsers.
//
// Dovado extracts metrics from the tool's textual reports (Sec. III-A.4).
// The simulated tool therefore emits reports in Vivado's table format and
// the core parses them back — the extraction code path is identical to what
// runs against the real tool.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dovado::edatool {

/// One row of a utilization table.
struct UtilizationRow {
  std::string site_type;
  std::int64_t used = 0;
  std::int64_t available = 0;
  double util_percent = 0.0;
};

/// A utilization report (subset of `report_utilization`).
struct UtilizationReport {
  std::vector<UtilizationRow> rows;

  /// Find a row by site type (exact match). nullptr when absent — e.g. the
  /// URAM row on devices without URAM.
  [[nodiscard]] const UtilizationRow* find(std::string_view site_type) const;

  /// Used count for a site type; 0 when the row is absent.
  [[nodiscard]] std::int64_t used(std::string_view site_type) const;

  /// Render in Vivado's +----+ table style.
  [[nodiscard]] std::string to_text() const;

  /// Outcome of a parse: `attempted` is true when the text contains a
  /// utilization table at all; `error` carries the diagnostic when an
  /// attempted parse fails (truncated table, garbled rows, interleaved
  /// output). A truncated or corrupt report must fail loudly: a dropped row
  /// would make downstream metric lookups read as zero. (Defined after the
  /// class: it holds an optional of the then-complete report type.)
  struct Checked;

  /// Parse a report produced by to_text (or a real Vivado report limited to
  /// the summary table): requires an intact table (header, >= 1 well-formed
  /// row, closing border) and rejects malformed or interleaved lines inside
  /// it. One pass over the text; nothing is allocated per line or cell.
  [[nodiscard]] static Checked parse_checked(std::string_view text);

  /// parse_checked, except that a text holding no utilization table comes
  /// back unattempted with an empty `error`: for callers that offer every
  /// tool output chunk to every parser and drop that message.
  [[nodiscard]] static Checked parse_if_present(std::string_view text);
};

struct UtilizationReport::Checked {
  std::optional<UtilizationReport> report;
  bool attempted = false;
  std::string error;
};

/// A timing summary (subset of `report_timing`).
struct TimingReport {
  double requirement_ns = 0.0;  ///< target clock period
  double slack_ns = 0.0;        ///< WNS; negative when violated
  double data_path_ns = 0.0;    ///< critical path delay
  int logic_levels = 0;
  std::string path_group;       ///< name of the worst path

  [[nodiscard]] bool met() const { return slack_ns >= 0.0; }

  /// Render in a Vivado-like "Slack (MET/VIOLATED)" layout.
  [[nodiscard]] std::string to_text() const;

  /// Parse a report produced by to_text (see UtilizationReport::Checked):
  /// requires Slack,
  /// Requirement and Data Path Delay to all be present and numeric, and
  /// names the offending field in `error` otherwise — a timing report
  /// missing its delay line must not come back as delay_ns == 0. One pass
  /// over the text; nothing is allocated per line.
  struct Checked;
  [[nodiscard]] static Checked parse_checked(std::string_view text);

  /// parse_checked, except that a text holding no timing report comes back
  /// unattempted with an empty `error` (see UtilizationReport).
  [[nodiscard]] static Checked parse_if_present(std::string_view text);
};

struct TimingReport::Checked {
  std::optional<TimingReport> report;
  bool attempted = false;
  std::string error;
};

/// Max achievable frequency from a timing report, in MHz.
///
/// The paper prints Eq. (1) as 1000/((1/1000)*T - WNS), which is
/// dimensionally inconsistent for T and WNS both in ns; the released Dovado
/// implementation computes 1000 / (T - WNS) MHz, which we follow (for
/// negative WNS this equals 1000 / critical_path_delay).
[[nodiscard]] double fmax_mhz(double target_period_ns, double wns_ns);

}  // namespace dovado::edatool
