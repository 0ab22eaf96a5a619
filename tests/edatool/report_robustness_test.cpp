// Robustness of the report-extraction path: corrupt, truncated or
// interleaved tool output must fail *loudly* through parse_checked with a
// diagnostic, never parse into silently-zero metrics. Also covers the fault
// plan / injector determinism contracts the supervisor relies on.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/edatool/faults.hpp"
#include "src/edatool/report.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"
#include "tests/edatool/report_shredder.hpp"

namespace dovado::edatool {
namespace {

using namespace shredder;

TEST(CheckedUtilization, IntactReportParses) {
  const auto checked = UtilizationReport::parse_checked(sample_utilization().to_text());
  EXPECT_TRUE(checked.attempted);
  EXPECT_TRUE(checked.error.empty()) << checked.error;
  ASSERT_TRUE(checked.report.has_value());
  EXPECT_EQ(checked.report->used("Slice LUTs"), 1200);
}

TEST(CheckedUtilization, TruncatedTableFails) {
  std::string text = sample_utilization().to_text();
  // Cut mid-table: keep the header and first row, lose the closing border.
  const auto row = text.find("Slice Registers");
  ASSERT_NE(row, std::string::npos);
  text.resize(text.rfind('\n', row) + 1);
  const auto checked = UtilizationReport::parse_checked(text);
  EXPECT_TRUE(checked.attempted);
  EXPECT_FALSE(checked.report.has_value());
  EXPECT_TRUE(util::contains(checked.error, "truncated")) << checked.error;
}

TEST(CheckedUtilization, GarbledDigitsFailWithRowDiagnostic) {
  std::string text = sample_utilization().to_text();
  // Same garbling an injected kCorruptReport applies: digits become '#'.
  for (char& c : text) {
    if (c >= '0' && c <= '9') c = '#';
  }
  const auto checked = UtilizationReport::parse_checked(text);
  EXPECT_TRUE(checked.attempted);
  EXPECT_FALSE(checked.report.has_value());
  EXPECT_FALSE(checked.error.empty());
}

TEST(CheckedUtilization, InterleavedOutputInsideTableFails) {
  std::string text = sample_utilization().to_text();
  // A concurrent writer splices a log line into the middle of the table.
  const auto pos = text.find("| Slice Registers");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "INFO: [Synth 8-7080] Parallel synthesis criteria met\n");
  const auto checked = UtilizationReport::parse_checked(text);
  EXPECT_TRUE(checked.attempted);
  EXPECT_FALSE(checked.report.has_value());
  EXPECT_TRUE(util::contains(checked.error, "unexpected text")) << checked.error;
}

TEST(CheckedUtilization, GarbageTextIsNotAttempted) {
  const auto checked = UtilizationReport::parse_checked("ERROR: tool died\nno table here\n");
  EXPECT_FALSE(checked.attempted);
  EXPECT_FALSE(checked.report.has_value());
  EXPECT_TRUE(util::contains(checked.error, "no utilization table")) << checked.error;
}

TEST(CheckedUtilization, GarbledCountFailsInsteadOfReadingZero) {
  // Skipping the garbled row would make the Slice LUTs lookup read zero.
  std::string text = sample_utilization().to_text();
  const auto pos = text.find("1200");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "12#0");
  const auto checked = UtilizationReport::parse_checked(text);
  EXPECT_FALSE(checked.report.has_value());  // checked parse refuses
  EXPECT_FALSE(checked.error.empty());
}

TEST(CheckedTiming, IntactReportParses) {
  const auto checked = TimingReport::parse_checked(sample_timing().to_text());
  EXPECT_TRUE(checked.attempted);
  EXPECT_TRUE(checked.error.empty()) << checked.error;
  ASSERT_TRUE(checked.report.has_value());
  EXPECT_DOUBLE_EQ(checked.report->slack_ns, -0.25);
  EXPECT_DOUBLE_EQ(checked.report->data_path_ns, 2.25);
}

TEST(CheckedTiming, MissingDelayLineFails) {
  std::string text = sample_timing().to_text();
  const auto pos = text.find("Data Path Delay");
  ASSERT_NE(pos, std::string::npos);
  const auto eol = text.find('\n', pos);
  text.erase(pos, eol == std::string::npos ? std::string::npos : eol - pos + 1);
  const auto checked = TimingReport::parse_checked(text);
  EXPECT_TRUE(checked.attempted);
  EXPECT_FALSE(checked.report.has_value());
  EXPECT_TRUE(util::contains(checked.error, "Data Path Delay")) << checked.error;
}

TEST(CheckedTiming, GarbledSlackFails) {
  std::string text = sample_timing().to_text();
  for (char& c : text) {
    if (c >= '0' && c <= '9') c = '#';
  }
  const auto checked = TimingReport::parse_checked(text);
  EXPECT_TRUE(checked.attempted);
  EXPECT_FALSE(checked.report.has_value());
  EXPECT_TRUE(util::contains(checked.error, "Slack")) << checked.error;
}

TEST(CheckedTiming, GarbageTextIsNotAttempted) {
  const auto checked = TimingReport::parse_checked("segfault (core dumped)\n");
  EXPECT_FALSE(checked.attempted);
  EXPECT_TRUE(util::contains(checked.error, "no timing report")) << checked.error;
}

// --- Report shredder ------------------------------------------------------
// Seeded structured fuzzing of the checked parsers: hundreds of mutated
// reports (truncations, duplicated lines, bit flips, line swaps) must never
// crash the parser, and whenever a mutated report still parses, the values
// it yields must match the pristine baseline — a mutation must never turn
// into silently different metrics. (Bit flips are the one exception: a
// flipped digit produces a syntactically valid report that is
// indistinguishable from a genuine one, so they only assert no-crash.)

TEST(ReportShredder, MutatedReportsNeverCrashOrMisparse) {
  const UtilizationReport util_baseline = sample_utilization();
  const TimingReport timing_baseline = sample_timing();

  int successes = 0;
  const std::vector<Shredded> mutations = corpus();
  for (std::size_t trial = 0; trial < mutations.size(); ++trial) {
    const Shredded& entry = mutations[trial];
    const Shred op = entry.op;
    const std::string& mutated = entry.text;

    if (entry.utilization) {
      const auto checked = UtilizationReport::parse_checked(mutated);
      if (!checked.report.has_value()) {
        EXPECT_FALSE(checked.error.empty()) << "rejection without a diagnostic";
        continue;
      }
      if (op == Shred::kBitFlip) continue;
      ++successes;
      // Structural mutations never alter bytes inside a line, so every row
      // a surviving parse yields must be a pristine baseline row. (A swap
      // can legitimately drop rows — moving the closing border up ends the
      // table early — so this is subset-match, not equality.)
      for (const auto& row : checked.report->rows) {
        const auto* base = util_baseline.find(row.site_type);
        ASSERT_NE(base, nullptr) << "trial " << trial << " invented row " << row.site_type;
        EXPECT_EQ(row.used, base->used) << "trial " << trial;
        EXPECT_EQ(row.available, base->available) << "trial " << trial;
        EXPECT_DOUBLE_EQ(row.util_percent, base->util_percent) << "trial " << trial;
      }
    } else {
      const auto checked = TimingReport::parse_checked(mutated);
      if (!checked.report.has_value()) {
        EXPECT_FALSE(checked.error.empty()) << "rejection without a diagnostic";
        continue;
      }
      if (op == Shred::kBitFlip) continue;
      ++successes;
      EXPECT_DOUBLE_EQ(checked.report->slack_ns, timing_baseline.slack_ns)
          << "trial " << trial;
      EXPECT_DOUBLE_EQ(checked.report->requirement_ns, timing_baseline.requirement_ns)
          << "trial " << trial;
      EXPECT_DOUBLE_EQ(checked.report->data_path_ns, timing_baseline.data_path_ns)
          << "trial " << trial;
    }
  }
  // The shredder must exercise the acceptance path too, not only rejections
  // (benign mutations — tail truncations, duplicated rows — still parse).
  EXPECT_GT(successes, 0);
}

TEST(FaultPlanParse, FullSpecRoundTrips) {
  std::string error;
  const auto plan = FaultPlan::parse(
      "seed=7,crash=0.2,hang=0.05,corrupt=0.1,abort=0.02,hang_factor=30", error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->crash_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan->hang_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan->corrupt_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan->abort_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan->hang_factor, 30.0);
  EXPECT_TRUE(plan->active());

  const auto again = FaultPlan::parse(plan->to_string(), error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_DOUBLE_EQ(again->crash_rate, plan->crash_rate);
  EXPECT_DOUBLE_EQ(again->abort_rate, plan->abort_rate);
  EXPECT_EQ(again->seed, plan->seed);
}

TEST(FaultPlanParse, EmptySpecIsInactive) {
  std::string error;
  const auto plan = FaultPlan::parse("  ", error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_FALSE(plan->active());
}

TEST(FaultPlanParse, RejectsBadSpecs) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("crash=1.5", error).has_value());
  EXPECT_TRUE(util::contains(error, "[0,1]")) << error;
  EXPECT_FALSE(FaultPlan::parse("crash=abc", error).has_value());
  EXPECT_FALSE(FaultPlan::parse("warp=0.1", error).has_value());
  EXPECT_TRUE(util::contains(error, "unknown")) << error;
  EXPECT_FALSE(FaultPlan::parse("crash", error).has_value());
  EXPECT_FALSE(FaultPlan::parse("hang_factor=0.5", error).has_value());
  // Transient rates competing for the same roll must fit in one unit range.
  EXPECT_FALSE(FaultPlan::parse("crash=0.6,hang=0.3,corrupt=0.2", error).has_value());
  EXPECT_TRUE(util::contains(error, "sum")) << error;
  // Seeds and attempt ordinals are non-negative integers below 2^53; a
  // cast of anything else to uint64_t would be undefined.
  for (const char* key : {"seed", "outage_start", "outage_len", "flap_up"}) {
    for (const char* bad : {"16.7", "1e30", "-1e30", "9007199254740993", "-1"}) {
      const std::string spec = std::string(key) + "=" + bad + ",flap_down=2,outage_start=1";
      EXPECT_FALSE(FaultPlan::parse(spec, error).has_value()) << spec;
      EXPECT_TRUE(util::contains(error, "integer")) << spec << ": " << error;
    }
  }
  const auto whole = FaultPlan::parse("seed=9007199254740991,flap_up=4.0,flap_down=2", error);
  ASSERT_TRUE(whole.has_value()) << error;
  EXPECT_EQ(whole->seed, 9007199254740991u);
  EXPECT_EQ(whole->flap_up, 4u);
}

TEST(FaultInjector, DecisionsAreDeterministic) {
  std::string error;
  const auto plan = FaultPlan::parse("seed=11,crash=0.3,hang=0.1,corrupt=0.1,abort=0.05", error);
  ASSERT_TRUE(plan.has_value()) << error;
  const FaultInjector a(*plan);
  const FaultInjector b(*plan);
  for (std::uint64_t key = 0; key < 200; ++key) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(a.decide(key, attempt).kind, b.decide(key, attempt).kind)
          << "key=" << key << " attempt=" << attempt;
    }
  }
}

TEST(FaultInjector, PersistentAbortRecursAcrossAttempts) {
  std::string error;
  const auto plan = FaultPlan::parse("seed=3,abort=0.2", error);
  ASSERT_TRUE(plan.has_value()) << error;
  const FaultInjector injector(*plan);
  int aborting_points = 0;
  for (std::uint64_t key = 0; key < 500; ++key) {
    if (injector.decide(key, 0).kind != FaultKind::kPersistentAbort) continue;
    ++aborting_points;
    for (int attempt = 1; attempt < 6; ++attempt) {
      EXPECT_EQ(injector.decide(key, attempt).kind, FaultKind::kPersistentAbort)
          << "abort did not recur on attempt " << attempt << " for key " << key;
    }
  }
  // ~20% of 500 keys should abort; determinism makes the exact count stable.
  EXPECT_GT(aborting_points, 50);
  EXPECT_LT(aborting_points, 150);
}

TEST(FaultInjector, TransientFaultsRerollPerAttempt) {
  std::string error;
  const auto plan = FaultPlan::parse("seed=5,crash=0.5", error);
  ASSERT_TRUE(plan.has_value()) << error;
  const FaultInjector injector(*plan);
  // At crash=0.5 a point that crashed on attempt 0 clears within a few
  // retries with overwhelming probability; find one that demonstrates it.
  bool saw_recovery = false;
  for (std::uint64_t key = 0; key < 200 && !saw_recovery; ++key) {
    if (injector.decide(key, 0).kind != FaultKind::kCrash) continue;
    for (int attempt = 1; attempt < 8; ++attempt) {
      if (injector.decide(key, attempt).kind == FaultKind::kNone) {
        saw_recovery = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_recovery);
}

TEST(FaultInjector, HangCarriesConfiguredFactor) {
  std::string error;
  const auto plan = FaultPlan::parse("seed=9,hang=1.0,hang_factor=40", error);
  ASSERT_TRUE(plan.has_value()) << error;
  const FaultInjector injector(*plan);
  const auto decision = injector.decide(42, 0);
  ASSERT_EQ(decision.kind, FaultKind::kHang);
  EXPECT_DOUBLE_EQ(decision.hang_factor, 40.0);
}

TEST(FaultInjector, CountersTrackFiredFaults) {
  std::string error;
  const auto plan = FaultPlan::parse("seed=2,crash=0.4,abort=0.1", error);
  ASSERT_TRUE(plan.has_value()) << error;
  const FaultInjector injector(*plan);
  for (std::uint64_t key = 0; key < 100; ++key) (void)injector.decide(key, 0);
  const auto counters = injector.counters();
  EXPECT_GT(counters.crashes, 0u);
  EXPECT_GT(counters.aborts, 0u);
  EXPECT_EQ(counters.hangs, 0u);
  EXPECT_EQ(counters.corrupted_reports, 0u);
}

TEST(FaultPlanParse, SequenceFaultsRoundTrip) {
  std::string error;
  const auto plan = FaultPlan::parse(
      "seed=2,outage_start=5,outage_len=10,flap_up=3,flap_down=2", error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->outage_start, 5u);
  EXPECT_EQ(plan->outage_len, 10u);
  EXPECT_EQ(plan->flap_up, 3u);
  EXPECT_EQ(plan->flap_down, 2u);
  EXPECT_TRUE(plan->sequence_faults());
  EXPECT_TRUE(plan->active());

  const auto again = FaultPlan::parse(plan->to_string(), error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->outage_start, plan->outage_start);
  EXPECT_EQ(again->outage_len, plan->outage_len);
  EXPECT_EQ(again->flap_up, plan->flap_up);
  EXPECT_EQ(again->flap_down, plan->flap_down);
}

TEST(FaultPlanParse, RejectsLonelySequenceFields) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("flap_up=3", error).has_value());
  EXPECT_TRUE(util::contains(error, "flap")) << error;
  EXPECT_FALSE(FaultPlan::parse("flap_down=3", error).has_value());
  EXPECT_FALSE(FaultPlan::parse("outage_len=5", error).has_value());
  EXPECT_TRUE(util::contains(error, "outage")) << error;
}

TEST(FaultInjector, OutageWindowCrashesByAttemptOrdinal) {
  std::string error;
  const auto plan = FaultPlan::parse("seed=1,outage_start=3,outage_len=4", error);
  ASSERT_TRUE(plan.has_value()) << error;
  const FaultInjector injector(*plan);
  // Attempt ordinals 1..8: the outage covers [3, 7) regardless of which
  // point each attempt evaluates.
  const FaultKind expected[] = {FaultKind::kNone,  FaultKind::kNone,
                                FaultKind::kCrash, FaultKind::kCrash,
                                FaultKind::kCrash, FaultKind::kCrash,
                                FaultKind::kNone,  FaultKind::kNone};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(injector.decide(static_cast<std::uint64_t>(100 + i), 0).kind, expected[i])
        << "attempt ordinal " << (i + 1);
  }
  EXPECT_EQ(injector.counters().crashes, 4u);
}

TEST(FaultInjector, PermanentOutageNeverEnds) {
  std::string error;
  const auto plan = FaultPlan::parse("seed=1,outage_start=2", error);  // len 0 = forever
  ASSERT_TRUE(plan.has_value()) << error;
  const FaultInjector injector(*plan);
  EXPECT_EQ(injector.decide(7, 0).kind, FaultKind::kNone);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(injector.decide(static_cast<std::uint64_t>(i), 0).kind, FaultKind::kCrash);
  }
}

TEST(FaultInjector, FlappingAlternatesHealthyAndCrashingRuns) {
  std::string error;
  const auto plan = FaultPlan::parse("seed=1,flap_up=2,flap_down=3", error);
  ASSERT_TRUE(plan.has_value()) << error;
  const FaultInjector injector(*plan);
  // Cycle of 5: ordinals 1-2 healthy, 3-5 down, repeating.
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 5; ++i) {
      const auto kind = injector.decide(static_cast<std::uint64_t>(cycle * 5 + i), 0).kind;
      EXPECT_EQ(kind, i < 2 ? FaultKind::kNone : FaultKind::kCrash)
          << "cycle " << cycle << " position " << i;
    }
  }
}

TEST(FaultPointKey, OrderIndependentAndValueSensitive) {
  const util::FlatMap<std::int64_t> a = {{"DEPTH", 16}, {"WIDTH", 32}};
  const util::FlatMap<std::int64_t> b = {{"WIDTH", 32}, {"DEPTH", 16}};
  EXPECT_EQ(fault_point_key(a), fault_point_key(b));  // FlatMap iterates sorted
  const util::FlatMap<std::int64_t> c = {{"DEPTH", 17}, {"WIDTH", 32}};
  EXPECT_NE(fault_point_key(a), fault_point_key(c));
}

}  // namespace
}  // namespace dovado::edatool
