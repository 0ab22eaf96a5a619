#include "src/model/control.hpp"

#include <stdexcept>

namespace dovado::model {

namespace {
/// The grid is rebuilt when Γ·√d rises above the scale it was built at
/// times kRescaleFactor or falls below it divided by kRescaleFactor. 1.0
/// rebuilds on every change of scale, which reproduces a refit on the
/// default grid after every addition.
constexpr double kRescaleFactor = 1.25;
}  // namespace

ControlModel::ControlModel(Config config) : config_(config) {
  if (!config_.adaptive_threshold) threshold_ = config_.fixed_threshold;
}

Decision ControlModel::decide(const Point& x) const {
  dataset_.check_query(x);
  if (dataset_.find_exact(x).has_value()) return Decision::kCachedTool;
  if (!dataset_.empty() && similarity_phi(dataset_, x, 1) <= threshold_) {
    return Decision::kEstimate;
  }
  return Decision::kToolAndAdd;
}

Decision ControlModel::decide_and_count(const Point& x) {
  const Decision d = decide(x);
  switch (d) {
    case Decision::kCachedTool: ++stats_.cached_hits; break;
    case Decision::kEstimate: ++stats_.estimates; break;
    case Decision::kToolAndAdd: ++stats_.tool_calls; break;
  }
  return d;
}

Values ControlModel::estimate(const Point& x) {
  if (dataset_.empty()) throw std::logic_error("estimate() before any sample was added");
  return nw_predict(dataset_, bandwidths(), x);
}

void ControlModel::add_sample(Point point, Values values) {
  dataset_.add(std::move(point), std::move(values));
  if (config_.adaptive_threshold) threshold_ = adaptive_threshold(dataset_);
  stale_ = true;
}

const std::vector<double>& ControlModel::bandwidths() {
  if (!stale_) return bandwidths_;
  const double scale = bandwidth_scale(dataset_);
  if (grid().empty() || scale > grid_scale_ * kRescaleFactor ||
      scale * kRescaleFactor < grid_scale_) {
    fold_ = LooFold(bandwidth_grid(scale));
    grid_scale_ = scale;
  }
  fold_.fold(dataset_);
  bandwidths_ = fold_.select(dataset_);
  stale_ = false;
  return bandwidths_;
}

}  // namespace dovado::model
