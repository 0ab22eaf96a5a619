#include "src/model/control.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/model/nadaraya_watson.hpp"
#include "src/util/rng.hpp"

namespace dovado::model {
namespace {

/// Ground-truth function the "tool" computes in these tests.
Values truth(const Point& x) { return {x[0] * 2.0 + x[1], 1000.0 - x[0]}; }

ControlModel pretrained_model(int grid = 5) {
  ControlModel control;
  // Regular grid of tool samples (spacing 10 in both dims).
  for (int i = 0; i < grid; ++i) {
    for (int j = 0; j < grid; ++j) {
      const Point p = {10.0 * i, 10.0 * j};
      control.add_sample(p, truth(p));
    }
  }
  return control;
}

TEST(ControlModel, EmptyDatasetAlwaysCallsTool) {
  ControlModel control;
  EXPECT_EQ(control.decide({1.0, 2.0}), Decision::kToolAndAdd);
}

TEST(ControlModel, ExactHitUsesCachedTool) {
  ControlModel control = pretrained_model();
  EXPECT_EQ(control.decide({10.0, 20.0}), Decision::kCachedTool);
}

TEST(ControlModel, NearbyPointIsEstimated) {
  ControlModel control = pretrained_model();
  // Grid spacing 10 => adaptive threshold ~ sqrt(100/2) ~ 7.07. A point 1
  // away from a sample is well inside it.
  EXPECT_EQ(control.decide({10.0, 21.0}), Decision::kEstimate);
}

TEST(ControlModel, FarPointCallsToolAndGrows) {
  ControlModel control = pretrained_model();
  const Point far = {500.0, 500.0};
  EXPECT_EQ(control.decide(far), Decision::kToolAndAdd);
  const std::size_t before = control.dataset().size();
  control.add_sample(far, truth(far));
  EXPECT_EQ(control.dataset().size(), before + 1);
  // Now the same point is an exact hit.
  EXPECT_EQ(control.decide(far), Decision::kCachedTool);
}

TEST(ControlModel, EstimateCloseToTruthOnSmoothFunction) {
  ControlModel control = pretrained_model();
  const Point q = {15.0, 25.0};
  if (control.decide(q) == Decision::kEstimate) {
    const Values est = control.estimate(q);
    EXPECT_NEAR(est[0], truth(q)[0], 8.0);
    EXPECT_NEAR(est[1], truth(q)[1], 8.0);
  }
}

TEST(ControlModel, AdaptiveThresholdTracksDataset) {
  ControlModel control;
  control.add_sample({0.0}, {0.0});
  EXPECT_DOUBLE_EQ(control.threshold(), 0.0);  // single point
  control.add_sample({10.0}, {1.0});
  EXPECT_DOUBLE_EQ(control.threshold(), 10.0);
  control.add_sample({5.0}, {0.5});
  // nn distances now 5,5,5.
  EXPECT_DOUBLE_EQ(control.threshold(), 5.0);
}

TEST(ControlModel, FixedThresholdMode) {
  ControlModel::Config config;
  config.adaptive_threshold = false;
  config.fixed_threshold = 2.0;
  ControlModel control(config);
  control.add_sample({0.0}, {1.0});
  control.add_sample({100.0}, {2.0});
  EXPECT_DOUBLE_EQ(control.threshold(), 2.0);
  EXPECT_EQ(control.decide({1.0}), Decision::kEstimate);     // phi=1 <= 2
  EXPECT_EQ(control.decide({50.0}), Decision::kToolAndAdd);  // phi=50 > 2
}

TEST(ControlModel, StatsCountDecisions) {
  ControlModel control = pretrained_model(3);
  (void)control.decide_and_count({0.0, 0.0});    // cached
  (void)control.decide_and_count({0.0, 1.0});    // estimate
  (void)control.decide_and_count({900.0, 900.0});  // tool
  EXPECT_EQ(control.stats().cached_hits, 1u);
  EXPECT_EQ(control.stats().estimates, 1u);
  EXPECT_EQ(control.stats().tool_calls, 1u);
}

TEST(ControlModel, QueryDimensionMismatchThrows) {
  ControlModel control = pretrained_model(3);  // 2-D samples
  EXPECT_THROW((void)control.decide({10.0}), std::invalid_argument);
  EXPECT_THROW((void)control.decide_and_count({10.0, 0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)control.estimate({10.0}), std::invalid_argument);
  EXPECT_EQ(control.stats().tool_calls + control.stats().estimates, 0u);
  // Before the first sample there is no dimension: the tool is called.
  EXPECT_EQ(ControlModel().decide({1.0, 2.0, 3.0}), Decision::kToolAndAdd);
}

TEST(ControlModel, EstimateBeforeSamplesThrows) {
  ControlModel control;
  EXPECT_THROW(control.estimate({1.0}), std::logic_error);
}

TEST(ControlModel, FitsOnDemandOverEverySample) {
  ControlModel control;
  EXPECT_TRUE(control.bandwidths().empty());
  EXPECT_TRUE(control.grid().empty());
  control.add_sample({0.0}, {0.0});
  EXPECT_EQ(control.bandwidths(), select_bandwidths(control.dataset(), control.grid()));
  EXPECT_EQ(control.grid(), default_bandwidth_grid(control.dataset()));
  control.add_sample({1.0}, {2.0});
  control.add_sample({2.0}, {4.0});
  control.add_sample({3.0}, {6.0});
  // Three additions since the last fit: the next query refits on all four.
  EXPECT_EQ(control.dataset().size(), 4u);
  EXPECT_EQ(control.bandwidths(), select_bandwidths(control.dataset(), control.grid()));
  EXPECT_NEAR(control.estimate({3.0})[0], 6.0, 1.0);
}

TEST(ControlModel, CallReductionOnClusteredWorkload) {
  // The paper's core claim (Sec. III-C): with a pre-trained model, many
  // exploration queries near known points are answered without the tool.
  ControlModel control = pretrained_model();
  util::Rng rng(77);
  std::size_t tool = 0;
  std::size_t estimated = 0;
  for (int i = 0; i < 300; ++i) {
    // Queries jittered around the sampled grid.
    Point q = {10.0 * rng.uniform_int(0, 4) + rng.gaussian(0.0, 1.5),
               10.0 * rng.uniform_int(0, 4) + rng.gaussian(0.0, 1.5)};
    switch (control.decide_and_count(q)) {
      case Decision::kEstimate:
        ++estimated;
        break;
      case Decision::kToolAndAdd:
        ++tool;
        control.add_sample(q, truth(q));
        break;
      case Decision::kCachedTool:
        break;
    }
  }
  EXPECT_GT(estimated, 2 * tool);  // the model absorbs most queries
}

}  // namespace
}  // namespace dovado::model
