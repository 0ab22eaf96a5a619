#include "src/edatool/report.hpp"

#include <gtest/gtest.h>

#include "src/util/strings.hpp"

namespace dovado::edatool {
namespace {

UtilizationReport sample_util() {
  UtilizationReport r;
  r.rows.push_back({"Slice LUTs", 1234, 41000, 3.01});
  r.rows.push_back({"Slice Registers", 2200, 82000, 2.68});
  r.rows.push_back({"Block RAM Tile", 4, 135, 2.96});
  r.rows.push_back({"DSPs", 0, 240, 0.0});
  return r;
}

TEST(UtilizationReport, ToTextLooksLikeVivado) {
  const std::string text = sample_util().to_text();
  EXPECT_TRUE(util::contains(text, "| Slice LUTs"));
  EXPECT_TRUE(util::contains(text, "| Site Type"));
  EXPECT_TRUE(util::contains(text, "+--"));
  EXPECT_TRUE(util::contains(text, "1234"));
  EXPECT_TRUE(util::contains(text, "41000"));
}

TEST(UtilizationReport, RoundTrip) {
  const auto original = sample_util();
  const auto parsed = UtilizationReport::parse_checked(original.to_text()).report;
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->rows.size(), original.rows.size());
  for (std::size_t i = 0; i < original.rows.size(); ++i) {
    EXPECT_EQ(parsed->rows[i].site_type, original.rows[i].site_type);
    EXPECT_EQ(parsed->rows[i].used, original.rows[i].used);
    EXPECT_EQ(parsed->rows[i].available, original.rows[i].available);
    EXPECT_NEAR(parsed->rows[i].util_percent, original.rows[i].util_percent, 0.01);
  }
}

TEST(UtilizationReport, FindAndUsed) {
  const auto r = sample_util();
  ASSERT_NE(r.find("Block RAM Tile"), nullptr);
  EXPECT_EQ(r.used("Block RAM Tile"), 4);
  EXPECT_EQ(r.find("URAM"), nullptr);
  EXPECT_EQ(r.used("URAM"), 0);
}

TEST(UtilizationReport, ParseRejectsGarbage) {
  EXPECT_FALSE(UtilizationReport::parse_checked("no table here").report.has_value());
  EXPECT_FALSE(UtilizationReport::parse_checked("").report.has_value());
}

TEST(UtilizationReport, ParseRejectsMalformedRows) {
  const std::string text =
      "| Site Type | Used | Available | Util% |\n"
      "| Slice LUTs | abc | 41000 | 3.01 |\n"
      "| Slice Registers | 10 | 82000 | 0.01 |\n";
  const auto checked = UtilizationReport::parse_checked(text);
  EXPECT_FALSE(checked.report.has_value());
  EXPECT_TRUE(util::contains(checked.error, "malformed utilization row")) << checked.error;
}

TEST(TimingReport, ToTextShowsViolation) {
  TimingReport t;
  t.requirement_ns = 1.0;
  t.slack_ns = -4.123;
  t.data_path_ns = 5.123;
  t.logic_levels = 8;
  t.path_group = "enqueue_datapath";
  const std::string text = t.to_text();
  EXPECT_TRUE(util::contains(text, "Slack (VIOLATED)"));
  EXPECT_TRUE(util::contains(text, "-4.123ns"));
  EXPECT_FALSE(t.met());
}

TEST(TimingReport, ToTextShowsMet) {
  TimingReport t;
  t.requirement_ns = 10.0;
  t.slack_ns = 4.2;
  t.data_path_ns = 5.8;
  EXPECT_TRUE(util::contains(t.to_text(), "Slack (MET)"));
  EXPECT_TRUE(t.met());
}

TEST(TimingReport, RoundTrip) {
  TimingReport t;
  t.requirement_ns = 1.0;
  t.slack_ns = -3.456;
  t.data_path_ns = 4.456;
  t.logic_levels = 7;
  t.path_group = "fetch_dispatch";
  const auto parsed = TimingReport::parse_checked(t.to_text()).report;
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NEAR(parsed->requirement_ns, 1.0, 1e-9);
  EXPECT_NEAR(parsed->slack_ns, -3.456, 1e-9);
  EXPECT_NEAR(parsed->data_path_ns, 4.456, 1e-9);
  EXPECT_EQ(parsed->logic_levels, 7);
  EXPECT_EQ(parsed->path_group, "fetch_dispatch");
}

TEST(TimingReport, ParseRejectsIncomplete) {
  EXPECT_FALSE(TimingReport::parse_checked("").report.has_value());
  EXPECT_FALSE(TimingReport::parse_checked("Requirement: 1.0ns").report.has_value());
}

TEST(FmaxFormula, MatchesEquationOne) {
  // Fmax = 1000 / (T - WNS) MHz. T=1ns, WNS=-4ns -> path = 5ns -> 200 MHz.
  EXPECT_NEAR(fmax_mhz(1.0, -4.0), 200.0, 1e-9);
  // Met timing: T=10ns, WNS=+5ns -> the path is 5ns -> 200 MHz.
  EXPECT_NEAR(fmax_mhz(10.0, 5.0), 200.0, 1e-9);
  // 1 GHz achieved exactly.
  EXPECT_NEAR(fmax_mhz(1.0, 0.0), 1000.0, 1e-9);
  // Degenerate: non-positive effective period.
  EXPECT_EQ(fmax_mhz(1.0, 1.0), 0.0);
  EXPECT_EQ(fmax_mhz(1.0, 2.0), 0.0);
}

}  // namespace
}  // namespace dovado::edatool
