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

void LooFold::fold(const Dataset& dataset) {
  const std::size_t n = dataset.size();
  if (n < folded_) throw std::logic_error("LooFold::fold: the dataset lost samples");
  const std::size_t metrics = dataset.metric_count();
  const std::size_t grid = bandwidths_.size();
  const std::size_t stride = metrics + 1;
  const std::size_t row_size = grid * stride;
  acc_.resize(n * row_size, 0.0);
  const auto& points = dataset.points();
  const auto& values = dataset.values();
  // Sample k has the highest index folded so far: every row i < k appends
  // its term for k last, and row k takes its terms from i < k ascending.
  for (std::size_t k = folded_; k < n; ++k) {
    for (std::size_t i = 0; i < k; ++i) {
      const double d2 = squared_distance(points[i], points[k]);
      double* row_i = &acc_[i * row_size];
      double* row_k = &acc_[k * row_size];
      for (std::size_t g = 0; g < grid; ++g, row_i += stride, row_k += stride) {
        const double w = gaussian_kernel(d2, bandwidths_[g]);
        for (std::size_t m = 0; m < metrics; ++m) {
          row_i[m] += w * values[k][m];
          row_k[m] += w * values[i][m];
        }
        row_i[metrics] += w;
        row_k[metrics] += w;
      }
    }
  }
  folded_ = n;
}

std::vector<std::vector<double>> LooFold::errors(const Dataset& dataset) const {
  const std::size_t n = dataset.size();
  if (n != folded_) throw std::logic_error("LooFold::errors: the dataset is not folded");
  const std::size_t metrics = dataset.metric_count();
  const std::size_t grid = bandwidths_.size();
  std::vector<std::vector<double>> errors(
      grid, std::vector<double>(metrics, std::numeric_limits<double>::infinity()));
  if (n < 2) return errors;
  const std::size_t stride = metrics + 1;
  const auto& values = dataset.values();
  const auto& nearest = dataset.nearest_other();
  for (std::size_t g = 0; g < grid; ++g) {
    for (std::size_t m = 0; m < metrics; ++m) {
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double* row = &acc_[(i * grid + g) * stride];
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

std::vector<double> LooFold::select(const Dataset& dataset) const {
  const auto errors = this->errors(dataset);
  std::vector<double> best(dataset.metric_count(),
                           bandwidths_.empty() ? 1.0 : bandwidths_.front());
  for (std::size_t metric = 0; metric < dataset.metric_count(); ++metric) {
    double best_err = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < bandwidths_.size(); ++g) {
      if (errors[g][metric] < best_err) {
        best_err = errors[g][metric];
        best[metric] = bandwidths_[g];
      }
    }
  }
  return best;
}

std::vector<std::vector<double>> loo_cv_errors(const Dataset& dataset,
                                               const std::vector<double>& bandwidths) {
  LooFold fold(bandwidths);
  fold.fold(dataset);
  return fold.errors(dataset);
}

double loo_cv_error(const Dataset& dataset, std::size_t metric, double h) {
  if (dataset.size() < 2) return std::numeric_limits<double>::infinity();
  return loo_cv_errors(dataset, {h}).front().at(metric);
}

double bandwidth_scale(const Dataset& dataset) {
  // The mean nearest-neighbour distance, so parameter ranges of any
  // magnitude get a sensible sweep.
  const double scale =
      adaptive_threshold(dataset) *
      std::sqrt(static_cast<double>(std::max<std::size_t>(1, dataset.dimension())));
  return scale <= 0.0 ? 1.0 : scale;
}

std::vector<double> bandwidth_grid(double scale) {
  std::vector<double> grid;
  for (double f : {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0}) {
    grid.push_back(scale * f);
  }
  return grid;
}

std::vector<double> default_bandwidth_grid(const Dataset& dataset) {
  return bandwidth_grid(bandwidth_scale(dataset));
}

std::vector<double> select_bandwidths(const Dataset& dataset,
                                      const std::vector<double>& candidates) {
  LooFold fold(candidates.empty() ? default_bandwidth_grid(dataset) : candidates);
  fold.fold(dataset);
  return fold.select(dataset);
}

}  // namespace dovado::model
