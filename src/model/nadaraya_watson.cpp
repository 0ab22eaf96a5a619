#include "src/model/nadaraya_watson.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dovado::model {

namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014327;

/// Eq. 2's ratio, or the nearest sample's value when every weight
/// underflowed (degrade to 1-NN rather than returning NaN).
double kernel_ratio(double numerator, double denominator, double nearest_value) {
  if (denominator <= std::numeric_limits<double>::min()) return nearest_value;
  return numerator / denominator;
}
}  // namespace

double gaussian_kernel(double squared_dist, double bandwidth) {
  if (bandwidth <= 0.0) return 0.0;
  return kInvSqrt2Pi * std::exp(-squared_dist / (2.0 * bandwidth * bandwidth));
}

Values nw_predict(const Dataset& dataset, const std::vector<double>& bandwidths,
                  const Point& x) {
  dataset.check_query(x);
  const std::size_t metrics = dataset.metric_count();
  if (bandwidths.size() != metrics) {
    throw std::invalid_argument("one bandwidth per metric required");
  }
  const auto& points = dataset.points();
  const auto& values = dataset.values();
  Values numerator(metrics, 0.0);
  std::vector<double> denominator(metrics, 0.0);
  double nearest_dist = std::numeric_limits<double>::infinity();
  std::size_t nearest = Dataset::kNoNeighbour;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d2 = squared_distance(x, points[i]);
    for (std::size_t m = 0; m < metrics; ++m) {
      const double w = gaussian_kernel(d2, bandwidths[m]);
      numerator[m] += w * values[i][m];
      denominator[m] += w;
    }
    if (d2 < nearest_dist) {
      nearest_dist = d2;
      nearest = i;
    }
  }
  // Each numerator becomes its metric's estimate.
  for (std::size_t m = 0; m < metrics; ++m) {
    const double nearest_value = nearest == Dataset::kNoNeighbour ? 0.0 : values[nearest][m];
    numerator[m] = kernel_ratio(numerator[m], denominator[m], nearest_value);
  }
  return numerator;
}

void NadarayaWatson::fit(const Dataset& dataset, std::vector<double> bandwidths) {
  if (dataset.empty()) throw std::invalid_argument("cannot fit on an empty dataset");
  if (bandwidths.size() != dataset.metric_count()) {
    throw std::invalid_argument("one bandwidth per metric required");
  }
  dataset_ = dataset;
  bandwidths_ = std::move(bandwidths);
}

Values NadarayaWatson::predict(const Point& x) const {
  if (!fitted()) throw std::logic_error("predict() before fit()");
  return nw_predict(dataset_, bandwidths_, x);
}

std::vector<std::vector<double>> loo_cv_errors(const Dataset& dataset,
                                               const std::vector<double>& bandwidths) {
  const std::size_t n = dataset.size();
  const std::size_t metrics = dataset.metric_count();
  const std::size_t grid = bandwidths.size();
  std::vector<std::vector<double>> errors(
      grid, std::vector<double>(metrics, std::numeric_limits<double>::infinity()));
  if (n < 2) return errors;
  const auto& points = dataset.points();
  const auto& values = dataset.values();
  // Row i's accumulators at bandwidth g start at acc[(i * grid + g) * stride]:
  // one numerator per metric, then the denominator.
  const std::size_t stride = metrics + 1;
  std::vector<double> acc(n * grid * stride, 0.0);
  // i ascending outside, j ascending inside: row r receives its terms from
  // pairs (k, r), k < r, before those from pairs (r, j), j > r, so it sums
  // in ascending sample index.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d2 = squared_distance(points[i], points[j]);
      double* row_i = &acc[i * grid * stride];
      double* row_j = &acc[j * grid * stride];
      for (std::size_t g = 0; g < grid; ++g, row_i += stride, row_j += stride) {
        const double w = gaussian_kernel(d2, bandwidths[g]);
        for (std::size_t m = 0; m < metrics; ++m) {
          row_i[m] += w * values[j][m];
          row_j[m] += w * values[i][m];
        }
        row_i[metrics] += w;
        row_j[metrics] += w;
      }
    }
  }
  const auto& nearest = dataset.nearest_other();
  for (std::size_t g = 0; g < grid; ++g) {
    for (std::size_t m = 0; m < metrics; ++m) {
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double* row = &acc[(i * grid + g) * stride];
        const double nearest_value =
            nearest[i] == Dataset::kNoNeighbour ? 0.0 : values[nearest[i]][m];
        const double err = kernel_ratio(row[m], row[metrics], nearest_value) - values[i][m];
        total += err * err;
      }
      errors[g][m] = total / static_cast<double>(n);
    }
  }
  return errors;
}

double loo_cv_error(const Dataset& dataset, std::size_t metric, double h) {
  if (dataset.size() < 2) return std::numeric_limits<double>::infinity();
  return loo_cv_errors(dataset, {h}).front().at(metric);
}

std::vector<double> default_bandwidth_grid(const Dataset& dataset) {
  // Scale the grid to the mean nearest-neighbour distance so parameter
  // ranges of any magnitude get a sensible sweep.
  double scale = adaptive_threshold(dataset) *
                 std::sqrt(static_cast<double>(std::max<std::size_t>(1, dataset.dimension())));
  if (scale <= 0.0) scale = 1.0;
  std::vector<double> grid;
  for (double f : {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0}) {
    grid.push_back(scale * f);
  }
  return grid;
}

std::vector<double> select_bandwidths(const Dataset& dataset,
                                      const std::vector<double>& candidates) {
  const std::vector<double> grid =
      candidates.empty() ? default_bandwidth_grid(dataset) : candidates;
  std::vector<double> best(dataset.metric_count(), grid.empty() ? 1.0 : grid.front());
  const auto errors = loo_cv_errors(dataset, grid);
  for (std::size_t metric = 0; metric < dataset.metric_count(); ++metric) {
    double best_err = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < grid.size(); ++g) {
      if (errors[g][metric] < best_err) {
        best_err = errors[g][metric];
        best[metric] = grid[g];
      }
    }
  }
  return best;
}

}  // namespace dovado::model
