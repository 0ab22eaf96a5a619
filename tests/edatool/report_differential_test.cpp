// The one-pass report parsers against the split-based copies they replaced
// (reference_report_parsers.cpp). On every input both must return the same
// result: the parsed fields, `attempted` and the diagnostic, byte for byte.
// The inputs are what the evaluator can meet: each writer's intact output,
// every byte-prefix truncation of it, its corrupt_report_text garbling, and
// the report shredder's mutation corpus. Every text goes to all three
// parsers, as the evaluator offers every output chunk to each of them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "src/edatool/backend.hpp"
#include "src/edatool/power.hpp"
#include "src/edatool/report.hpp"
#include "src/util/rng.hpp"
#include "tests/edatool/reference_report_parsers.hpp"
#include "tests/edatool/report_shredder.hpp"

namespace dovado::edatool {
namespace {

using namespace shredder;

/// Bitwise equality, so that -0.0 and 0.0 (or two NaNs) are told apart.
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_utilization(const std::string& text) {
  const UtilizationReport::Checked live = UtilizationReport::parse_checked(text);
  const UtilizationReport::Checked ref = reference::parse_utilization(text);
  ASSERT_EQ(live.attempted, ref.attempted) << text;
  ASSERT_EQ(live.error, ref.error) << text;
  ASSERT_EQ(live.report.has_value(), ref.report.has_value()) << text;
  if (live.report) {
    ASSERT_EQ(live.report->rows.size(), ref.report->rows.size()) << text;
    for (std::size_t i = 0; i < live.report->rows.size(); ++i) {
      const UtilizationRow& a = live.report->rows[i];
      const UtilizationRow& b = ref.report->rows[i];
      EXPECT_EQ(a.site_type, b.site_type) << text;
      EXPECT_EQ(a.used, b.used) << text;
      EXPECT_EQ(a.available, b.available) << text;
      EXPECT_TRUE(same_bits(a.util_percent, b.util_percent)) << text;
    }
  }
  // The evaluator's entry point differs only in dropping the message for
  // a text that holds no table.
  const UtilizationReport::Checked present = UtilizationReport::parse_if_present(text);
  EXPECT_EQ(present.attempted, live.attempted) << text;
  EXPECT_EQ(present.report.has_value(), live.report.has_value()) << text;
  EXPECT_EQ(present.error, live.attempted ? live.error : std::string()) << text;
}

void expect_same_timing(const std::string& text) {
  const TimingReport::Checked live = TimingReport::parse_checked(text);
  const TimingReport::Checked ref = reference::parse_timing(text);
  ASSERT_EQ(live.attempted, ref.attempted) << text;
  ASSERT_EQ(live.error, ref.error) << text;
  ASSERT_EQ(live.report.has_value(), ref.report.has_value()) << text;
  if (live.report) {
    EXPECT_TRUE(same_bits(live.report->requirement_ns, ref.report->requirement_ns)) << text;
    EXPECT_TRUE(same_bits(live.report->slack_ns, ref.report->slack_ns)) << text;
    EXPECT_TRUE(same_bits(live.report->data_path_ns, ref.report->data_path_ns)) << text;
    EXPECT_EQ(live.report->logic_levels, ref.report->logic_levels) << text;
    EXPECT_EQ(live.report->path_group, ref.report->path_group) << text;
  }
  const TimingReport::Checked present = TimingReport::parse_if_present(text);
  EXPECT_EQ(present.attempted, live.attempted) << text;
  EXPECT_EQ(present.report.has_value(), live.report.has_value()) << text;
  EXPECT_EQ(present.error, live.attempted ? live.error : std::string()) << text;
}

void expect_same_power(const std::string& text) {
  // Seed both outputs alike: a parser that fails may have written part of
  // its output, and that partial write must agree too.
  PowerEstimate live{-1.0, -2.0};
  PowerEstimate ref{-1.0, -2.0};
  EXPECT_EQ(parse_power_report(text, live), reference::parse_power_report(text, ref)) << text;
  EXPECT_TRUE(same_bits(live.static_w, ref.static_w)) << text;
  EXPECT_TRUE(same_bits(live.dynamic_w, ref.dynamic_w)) << text;
}

void expect_same_everywhere(const std::string& text) {
  expect_same_utilization(text);
  expect_same_timing(text);
  expect_same_power(text);
}

/// The outputs of every report writer: utilization tables with and without
/// a URAM row and with a site name wider than the header, timing reports
/// that meet and miss their target, and a power summary.
std::vector<std::string> writer_outputs() {
  std::vector<std::string> texts;
  texts.push_back(sample_utilization().to_text());
  UtilizationReport wide = sample_utilization();
  wide.rows.push_back({"DSPs", 12, 240, 5.0});
  wide.rows.push_back({"URAM", 0, 960, 0.0});
  wide.rows.push_back({"Block RAM Tile (36 Kb)", 7, 135, 5.19});
  texts.push_back(wide.to_text());
  texts.push_back(sample_timing().to_text());
  TimingReport met = sample_timing();
  met.slack_ns = 0.125;
  met.data_path_ns = 1.875;
  met.path_group = "clk_i";
  texts.push_back(met.to_text());
  texts.push_back(power_report_text(PowerEstimate{0.1234, 0.5678}, 425.5));
  return texts;
}

TEST(ReportDifferential, WritersMatchTheReferenceByteForByte) {
  // Ordinary reports, numbers wider than their columns, a site name and
  // values whose lines outgrow util::format's stack buffer.
  std::vector<UtilizationReport> tables = {sample_utilization(), UtilizationReport{}};
  UtilizationReport odd = sample_utilization();
  odd.rows.push_back({"URAM", -3, 123456789012345, -0.0});
  odd.rows.push_back({std::string(300, 'S'), 0, 0, 1e300});
  odd.rows.push_back({"NaN row", 1, 2, std::nan("")});
  tables.push_back(odd);
  for (const UtilizationReport& table : tables) {
    EXPECT_EQ(table.to_text(), reference::utilization_text(table));
  }

  std::vector<TimingReport> timings = {sample_timing(), TimingReport{}};
  TimingReport odd_timing = sample_timing();
  odd_timing.slack_ns = -1e300;
  odd_timing.data_path_ns = 1e300;
  odd_timing.logic_levels = -7;
  odd_timing.path_group = std::string(400, 'p');
  timings.push_back(odd_timing);
  for (const TimingReport& timing : timings) {
    EXPECT_EQ(timing.to_text(), reference::timing_text(timing));
  }

  for (const PowerEstimate& power :
       {PowerEstimate{0.1234, 0.5678}, PowerEstimate{}, PowerEstimate{1e300, -2.5}}) {
    for (double clock : {0.0, 425.5, 1e300}) {
      EXPECT_EQ(power_report_text(power, clock), reference::power_report_text(power, clock));
    }
  }
}

TEST(ReportDifferential, WriterOutputsParseAlike) {
  for (const std::string& text : writer_outputs()) expect_same_everywhere(text);
  // All three together in one chunk, and no report at all.
  std::string all;
  for (const std::string& text : writer_outputs()) all += text;
  expect_same_everywhere(all);
  expect_same_everywhere("");
  expect_same_everywhere("INFO: [Route 35-16] router completed successfully");
}

TEST(ReportDifferential, EveryTruncationParsesAlike) {
  for (const std::string& text : writer_outputs()) {
    for (std::size_t length = 0; length <= text.size(); ++length) {
      expect_same_everywhere(text.substr(0, length));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ReportDifferential, CorruptReportsParseAlike) {
  for (const std::string& text : writer_outputs()) {
    expect_same_everywhere(corrupt_report_text(text));
  }
}

TEST(ReportDifferential, ShredderCorpusParsesAlike) {
  for (const Shredded& entry : corpus()) {
    expect_same_everywhere(entry.text);
    if (HasFatalFailure()) return;
  }
  // The same mutations over every writer's output, power included.
  const std::vector<std::string> originals = writer_outputs();
  util::Rng rng(20261019u);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string& original = originals[rng.index(originals.size())];
    const auto op = static_cast<Shred>(rng.index(4));
    expect_same_everywhere(shred(original, op, rng));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace dovado::edatool
