#include "src/model/dataset.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace dovado::model {
namespace {

Dataset line_dataset(int n) {
  // 1-D points 0..n-1 with two metrics: y0 = 2x, y1 = x^2.
  Dataset d;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    d.add({x}, {2.0 * x, x * x});
  }
  return d;
}

TEST(Dataset, AddAndQuery) {
  Dataset d = line_dataset(5);
  EXPECT_EQ(d.size(), 5u);
  EXPECT_EQ(d.dimension(), 1u);
  EXPECT_EQ(d.metric_count(), 2u);
  EXPECT_FALSE(d.empty());
  EXPECT_DOUBLE_EQ(d.values()[3][0], 6.0);
}

TEST(Dataset, ShapeMismatchThrows) {
  Dataset d;
  d.add({1.0, 2.0}, {3.0});
  EXPECT_THROW(d.add({1.0}, {3.0}), std::invalid_argument);
  EXPECT_THROW(d.add({1.0, 2.0}, {3.0, 4.0}), std::invalid_argument);
  Dataset d2;
  EXPECT_THROW(d2.add({}, {1.0}), std::invalid_argument);
}

TEST(Dataset, FindExact) {
  Dataset d = line_dataset(5);
  EXPECT_EQ(d.find_exact({3.0}), 3u);
  EXPECT_FALSE(d.find_exact({3.5}).has_value());
  EXPECT_FALSE(Dataset().find_exact({1.0}).has_value());
}

TEST(Dataset, NearestOrdering) {
  Dataset d = line_dataset(10);
  const auto nn = d.nearest({4.2}, 3);
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_EQ(nn[0], 4u);
  EXPECT_EQ(nn[1], 5u);
  EXPECT_EQ(nn[2], 3u);
}

TEST(Dataset, NearestClampsK) {
  Dataset d = line_dataset(3);
  EXPECT_EQ(d.nearest({0.0}, 10).size(), 3u);
  EXPECT_TRUE(Dataset().nearest({0.0}, 2).empty());
}

TEST(Dataset, NearestBreaksTiesByIndex) {
  // Equidistant samples are ordered by (squared distance, index).
  Dataset d;
  d.add({2.0}, {0.0});   // 0: distance 2
  d.add({-1.0}, {0.0});  // 1: distance 1
  d.add({1.0}, {0.0});   // 2: distance 1
  d.add({-2.0}, {0.0});  // 3: distance 2
  d.add({0.0}, {0.0});   // 4: distance 0
  EXPECT_EQ(d.nearest({0.0}, 5), (std::vector<std::size_t>{4, 1, 2, 0, 3}));
  EXPECT_EQ(d.nearest({0.0}, 3), (std::vector<std::size_t>{4, 1, 2}));
  EXPECT_EQ(d.nearest({0.5}, 2), (std::vector<std::size_t>{2, 4}));
  EXPECT_DOUBLE_EQ(similarity_phi(d, {0.0}, 3), 1.0);
  EXPECT_DOUBLE_EQ(similarity_phi(d, {0.0}, 4), 2.0);
}

TEST(Dataset, NearestOtherKeepsFirstMinimum) {
  Dataset d;
  d.add({0.0}, {0.0});
  EXPECT_EQ(d.nearest_other(), (std::vector<std::size_t>{Dataset::kNoNeighbour}));
  EXPECT_TRUE(std::isinf(d.nearest_other_d2()[0]));
  d.add({2.0}, {0.0});
  d.add({-2.0}, {0.0});  // as close to sample 0 as sample 1 is: 0 keeps 1
  EXPECT_EQ(d.nearest_other(), (std::vector<std::size_t>{1, 0, 0}));
  d.add({1.0}, {0.0});  // strictly closer to samples 0 and 1; tied for itself
  EXPECT_EQ(d.nearest_other(), (std::vector<std::size_t>{3, 3, 0, 0}));
  EXPECT_EQ(d.nearest_other_d2(), (std::vector<double>{1.0, 1.0, 4.0, 1.0}));
}

TEST(Dataset, QueryDimensionMismatchThrows) {
  // A shorter query must not be answered from its leading coordinates.
  Dataset d;
  d.add({1.0, 2.0}, {3.0});
  d.add({5.0, 9.0}, {4.0});
  EXPECT_THROW((void)d.nearest({1.0}, 1), std::invalid_argument);
  EXPECT_THROW((void)similarity_phi(d, {1.0}, 1), std::invalid_argument);
  EXPECT_THROW((void)similarity_phi(d, {1.0, 2.0, 3.0}, 2), std::invalid_argument);
  EXPECT_THROW((void)similarity_phi(d, {1.0}, 3), std::invalid_argument);
  // An empty dataset has no dimension yet: still +inf.
  EXPECT_TRUE(std::isinf(similarity_phi(Dataset(), {1.0, 2.0, 3.0}, 1)));
}

TEST(SquaredDistance, Euclidean) {
  EXPECT_DOUBLE_EQ(squared_distance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(squared_distance({1}, {1}), 0.0);
}

TEST(SimilarityPhi, EquationFour) {
  // Phi = sqrt(sum((x_j - z_j)^2) / m) for the n-th nearest neighbour.
  Dataset d;
  d.add({0.0, 0.0}, {1.0});
  d.add({3.0, 4.0}, {2.0});
  // Nearest to (0,1) is (0,0): phi = sqrt((0+1)/2).
  EXPECT_DOUBLE_EQ(similarity_phi(d, {0.0, 1.0}, 1), std::sqrt(0.5));
  // 2nd nearest is (3,4): phi = sqrt((9+9)/2) = 3.
  EXPECT_DOUBLE_EQ(similarity_phi(d, {0.0, 1.0}, 2), 3.0);
}

TEST(SimilarityPhi, ZeroAtDatasetPoint) {
  Dataset d = line_dataset(4);
  EXPECT_DOUBLE_EQ(similarity_phi(d, {2.0}, 1), 0.0);
}

TEST(SimilarityPhi, InfinityWhenUnderfull) {
  Dataset d = line_dataset(2);
  EXPECT_TRUE(std::isinf(similarity_phi(d, {0.0}, 3)));
  EXPECT_TRUE(std::isinf(similarity_phi(Dataset(), {0.0}, 1)));
  EXPECT_TRUE(std::isinf(similarity_phi(d, {0.0}, 0)));
}

TEST(AdaptiveThreshold, UniformSpacing) {
  // Points 0,1,2,3: every nearest-neighbour distance is 1 (1-D, m=1).
  Dataset d = line_dataset(4);
  EXPECT_DOUBLE_EQ(adaptive_threshold(d), 1.0);
}

TEST(AdaptiveThreshold, ScalesWithSpacing) {
  Dataset sparse;
  for (int i = 0; i < 4; ++i) sparse.add({10.0 * i}, {0.0});
  EXPECT_DOUBLE_EQ(adaptive_threshold(sparse), 10.0);
}

TEST(AdaptiveThreshold, DegenerateDatasets) {
  EXPECT_DOUBLE_EQ(adaptive_threshold(Dataset()), 0.0);
  Dataset one;
  one.add({1.0}, {1.0});
  EXPECT_DOUBLE_EQ(adaptive_threshold(one), 0.0);
}

TEST(AdaptiveThreshold, MixedSpacingIsMean) {
  // Points at 0, 1, 10: nn distances are 1, 1, 9 -> mean 11/3.
  Dataset d;
  d.add({0.0}, {0.0});
  d.add({1.0}, {0.0});
  d.add({10.0}, {0.0});
  EXPECT_NEAR(adaptive_threshold(d), 11.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace dovado::model
