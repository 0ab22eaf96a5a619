#include "src/model/nadaraya_watson.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/util/rng.hpp"

namespace dovado::model {
namespace {

constexpr double kInvSqrt2Pi = 0.3989422804014327;

TEST(GaussianKernel, EquationThree) {
  // K_h(0) = 1/sqrt(2*pi).
  EXPECT_DOUBLE_EQ(gaussian_kernel(0.0, 1.0), kInvSqrt2Pi);
  // K falls with distance and rises with bandwidth.
  EXPECT_LT(gaussian_kernel(4.0, 1.0), gaussian_kernel(1.0, 1.0));
  EXPECT_GT(gaussian_kernel(4.0, 2.0), gaussian_kernel(4.0, 1.0));
  // Exact value: exp(-d2 / (2 h^2)) / sqrt(2 pi).
  EXPECT_DOUBLE_EQ(gaussian_kernel(2.0, 1.0), kInvSqrt2Pi * std::exp(-1.0));
  EXPECT_DOUBLE_EQ(gaussian_kernel(1.0, 0.0), 0.0);  // degenerate bandwidth
}

Dataset linear_dataset() {
  // y = 3x + 1 sampled on integers 0..10.
  Dataset d;
  for (int i = 0; i <= 10; ++i) {
    d.add({static_cast<double>(i)}, {3.0 * i + 1.0});
  }
  return d;
}

TEST(NadarayaWatson, InterpolatesSmoothFunction) {
  NadarayaWatson model;
  model.fit(linear_dataset(), {0.5});
  // Midpoint between samples: weighted average stays close to the line.
  const double y = model.predict({4.5})[0];
  EXPECT_NEAR(y, 3.0 * 4.5 + 1.0, 0.5);
}

TEST(NadarayaWatson, ExactPointDominatesWithSmallBandwidth) {
  NadarayaWatson model;
  model.fit(linear_dataset(), {0.1});
  EXPECT_NEAR(model.predict({7.0})[0], 22.0, 1e-6);
}

TEST(NadarayaWatson, WeightedAverageStaysInValueRange) {
  // Eq. 2 is a convex combination: predictions cannot leave [min, max].
  NadarayaWatson model;
  model.fit(linear_dataset(), {2.0});
  for (double x = -5.0; x <= 15.0; x += 0.7) {
    const double y = model.predict({x})[0];
    EXPECT_GE(y, 1.0 - 1e-9);
    EXPECT_LE(y, 31.0 + 1e-9);
  }
}

TEST(NadarayaWatson, FarQueryFallsBackToNearestNeighbour) {
  NadarayaWatson model;
  model.fit(linear_dataset(), {0.05});
  // 1000 sigma away: all kernels underflow; 1-NN fallback returns the edge
  // sample's value instead of NaN.
  const double y = model.predict({1000.0})[0];
  EXPECT_DOUBLE_EQ(y, 31.0);
  EXPECT_FALSE(std::isnan(y));
}

TEST(NadarayaWatson, MultiMetric) {
  Dataset d;
  for (int i = 0; i <= 8; ++i) {
    d.add({static_cast<double>(i)}, {2.0 * i, 100.0 - i});
  }
  NadarayaWatson model;
  model.fit(d, {0.5, 0.5});
  const Values y = model.predict({4.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_NEAR(y[0], 8.0, 0.3);
  EXPECT_NEAR(y[1], 96.0, 0.3);
}

TEST(NadarayaWatson, FitValidation) {
  NadarayaWatson model;
  EXPECT_THROW(model.fit(Dataset(), {1.0}), std::invalid_argument);
  EXPECT_THROW(model.predict({1.0}), std::logic_error);
  Dataset d = linear_dataset();
  EXPECT_THROW(model.fit(d, {1.0, 2.0}), std::invalid_argument);  // wrong count
}

TEST(NadarayaWatson, QueryDimensionMismatchThrows) {
  NadarayaWatson model;
  model.fit(linear_dataset(), {1.0});
  EXPECT_THROW((void)model.predict({1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW((void)nw_predict(linear_dataset(), {1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(LooCv, ErrorFiniteAndSmallForGoodBandwidth) {
  const Dataset d = linear_dataset();
  const double err = loo_cv_error(d, 0, 1.0);
  EXPECT_TRUE(std::isfinite(err));
  EXPECT_LT(err, 5.0);
}

TEST(LooCv, HugeBandwidthOversmooths) {
  const Dataset d = linear_dataset();
  // h -> inf: prediction tends to the global mean, so LOO error explodes
  // relative to a well-chosen h.
  EXPECT_GT(loo_cv_error(d, 0, 1000.0), loo_cv_error(d, 0, 1.0));
}

TEST(LooCv, UnderfullDatasetIsInfinite) {
  Dataset d;
  d.add({0.0}, {1.0});
  EXPECT_TRUE(std::isinf(loo_cv_error(d, 0, 1.0)));
}

TEST(SelectBandwidths, PicksLowErrorChoice) {
  const Dataset d = linear_dataset();
  const auto bw = select_bandwidths(d, {0.01, 1.0, 1000.0});
  ASSERT_EQ(bw.size(), 1u);
  // The oversmoothing candidate must not win on a linear function.
  EXPECT_NE(bw[0], 1000.0);
}

TEST(SelectBandwidths, PerMetricChoices) {
  // Metric 0 varies fast, metric 1 is constant: any bandwidth fits metric 1
  // but metric 0 prefers small ones.
  Dataset d;
  util::Rng rng(5);
  for (int i = 0; i <= 20; ++i) {
    const double x = static_cast<double>(i);
    d.add({x}, {std::sin(x) * 10.0, 7.0});
  }
  const auto bw = select_bandwidths(d, {0.3, 30.0});
  ASSERT_EQ(bw.size(), 2u);
  EXPECT_DOUBLE_EQ(bw[0], 0.3);
}

TEST(DefaultBandwidthGrid, ScalesWithData) {
  Dataset dense;
  Dataset sparse;
  for (int i = 0; i < 10; ++i) {
    dense.add({static_cast<double>(i)}, {0.0});
    sparse.add({static_cast<double>(100 * i)}, {0.0});
  }
  const auto g_dense = default_bandwidth_grid(dense);
  const auto g_sparse = default_bandwidth_grid(sparse);
  ASSERT_FALSE(g_dense.empty());
  EXPECT_NEAR(g_sparse[0] / g_dense[0], 100.0, 1e-6);
}

}  // namespace
}  // namespace dovado::model
