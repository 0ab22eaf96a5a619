// Synthetic dataset backing the fitness-approximation model.
//
// Stores (design point -> metric vector) pairs collected from tool runs
// (paper Sec. III-C: "a synthetic dataset of size M by making M distinct
// calls to Vivado with randomly sampled design points"), and provides the
// similarity measure of Eq. (4) plus nearest-neighbour queries.
//
// Each addition also keeps, per sample, its nearest *other* sample, so the
// adaptive threshold Γ and the LOO-CV fallback read it instead of rescanning
// all pairs.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

namespace dovado::model {

/// A design point in raw parameter space (one coordinate per decision
/// variable).
using Point = std::vector<double>;

/// Metric values at a point (one entry per optimization metric, e.g.
/// [LUTs, FFs, Fmax]).
using Values = std::vector<double>;

class Dataset {
 public:
  /// nearest_other() entry of a sample that has no other sample yet.
  static constexpr std::size_t kNoNeighbour = std::numeric_limits<std::size_t>::max();

  Dataset() = default;

  /// Add a sample. The first sample fixes the point dimension and metric
  /// count; later samples must match (checked, throws std::invalid_argument).
  /// Updates the nearest-other state of every sample: O(size() * dimension()).
  void add(Point point, Values values);

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] std::size_t dimension() const { return dimension_; }
  [[nodiscard]] std::size_t metric_count() const { return metric_count_; }

  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] const std::vector<Values>& values() const { return values_; }

  /// Per sample i: the index of its nearest other sample, the first minimum
  /// of squared_distance in index order (kNoNeighbour while size() == 1).
  [[nodiscard]] const std::vector<std::size_t>& nearest_other() const { return nn_index_; }
  /// Per sample i: the squared distance to nearest_other()[i] (+inf while
  /// size() == 1).
  [[nodiscard]] const std::vector<double>& nearest_other_d2() const { return nn_d2_; }

  /// Throws std::invalid_argument when the dataset is non-empty and `point`
  /// has a different dimension (a shorter query must not be answered from
  /// its leading coordinates).
  void check_query(const Point& point) const;

  /// Index of a sample with exactly this point, if present.
  [[nodiscard]] std::optional<std::size_t> find_exact(const Point& point) const;

  /// Indices of the k nearest samples to `point` (Euclidean), ordered by
  /// (squared distance, index): closest first, equidistant samples by
  /// ascending index. Checks the query dimension (see check_query).
  [[nodiscard]] std::vector<std::size_t> nearest(const Point& point, std::size_t k) const;

 private:
  std::vector<Point> points_;
  std::vector<Values> values_;
  std::vector<std::size_t> nn_index_;
  std::vector<double> nn_d2_;
  std::size_t dimension_ = 0;
  std::size_t metric_count_ = 0;
};

/// Squared Euclidean distance between two points of the same dimension
/// (the dataset queries check it). Symmetric bit for bit:
/// squared_distance(a, b) == squared_distance(b, a).
[[nodiscard]] double squared_distance(const Point& a, const Point& b);

/// Similarity measure of Eq. (4): the per-dimension RMS distance between x
/// and its n-th nearest dataset point (nth is 1-based; nth=1 => nearest).
/// Returns +infinity when the dataset has fewer than nth samples; throws
/// std::invalid_argument when x's dimension differs from a non-empty
/// dataset's.
[[nodiscard]] double similarity_phi(const Dataset& dataset, const Point& x,
                                    std::size_t nth = 1);

/// Adaptive threshold Γ (Sec. III-C): the average, over dataset points, of
/// the Eq.-(4) distance to their nearest *other* dataset point. 0 for
/// datasets with fewer than two samples. O(size()): it sums the kept
/// nearest-other distances in index order.
[[nodiscard]] double adaptive_threshold(const Dataset& dataset);

}  // namespace dovado::model
