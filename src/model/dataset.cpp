#include "src/model/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace dovado::model {

void Dataset::add(Point point, Values values) {
  if (points_.empty()) {
    dimension_ = point.size();
    metric_count_ = values.size();
    if (dimension_ == 0) throw std::invalid_argument("dataset point has zero dimension");
  } else {
    if (point.size() != dimension_) {
      throw std::invalid_argument("dataset point dimension mismatch");
    }
    if (values.size() != metric_count_) {
      throw std::invalid_argument("dataset value count mismatch");
    }
  }
  const std::size_t added = points_.size();
  points_.push_back(std::move(point));
  values_.push_back(std::move(values));
  nn_index_.push_back(kNoNeighbour);
  nn_d2_.push_back(std::numeric_limits<double>::infinity());
  // The new sample has the highest index, so it takes over an older
  // sample's neighbour only when strictly closer (first minimum wins), and
  // its own neighbour is the first minimum of an ascending scan.
  const Point& p = points_[added];
  for (std::size_t j = 0; j < added; ++j) {
    const double d2 = squared_distance(p, points_[j]);
    if (d2 < nn_d2_[added]) {
      nn_d2_[added] = d2;
      nn_index_[added] = j;
    }
    if (d2 < nn_d2_[j]) {
      nn_d2_[j] = d2;
      nn_index_[j] = added;
    }
  }
}

void Dataset::check_query(const Point& point) const {
  if (!points_.empty() && point.size() != dimension_) {
    throw std::invalid_argument("query point dimension mismatch");
  }
}

std::optional<std::size_t> Dataset::find_exact(const Point& point) const {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i] == point) return i;
  }
  return std::nullopt;
}

std::vector<std::size_t> Dataset::nearest(const Point& point, std::size_t k) const {
  check_query(point);
  std::vector<double> d2(points_.size());
  for (std::size_t i = 0; i < d2.size(); ++i) d2[i] = squared_distance(points_[i], point);
  std::vector<std::size_t> order(points_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t keep = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return d2[a] < d2[b] || (d2[a] == d2[b] && a < b);
                    });
  order.resize(keep);
  return order;
}

double squared_distance(const Point& a, const Point& b) {
  double sum = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double similarity_phi(const Dataset& dataset, const Point& x, std::size_t nth) {
  dataset.check_query(x);
  if (nth == 0 || dataset.size() < nth) return std::numeric_limits<double>::infinity();
  double d2 = std::numeric_limits<double>::infinity();
  if (nth == 1) {
    for (const Point& z : dataset.points()) d2 = std::min(d2, squared_distance(x, z));
  } else {
    d2 = squared_distance(x, dataset.points()[dataset.nearest(x, nth).back()]);
  }
  const std::size_t m = std::max<std::size_t>(1, x.size());
  return std::sqrt(d2 / static_cast<double>(m));
}

double adaptive_threshold(const Dataset& dataset) {
  const std::size_t n = dataset.size();
  if (n < 2) return 0.0;
  const std::size_t m = std::max<std::size_t>(1, dataset.dimension());
  double total = 0.0;
  for (const double best : dataset.nearest_other_d2()) {
    total += std::sqrt(best / static_cast<double>(m));
  }
  return total / static_cast<double>(n);
}

}  // namespace dovado::model
