#include "src/model/control.hpp"

#include <stdexcept>

#include "src/model/nadaraya_watson.hpp"

namespace dovado::model {

ControlModel::ControlModel(Config config) : config_(std::move(config)) {
  if (!config_.adaptive_threshold) threshold_ = config_.fixed_threshold;
  if (config_.revalidate_every == 0) config_.revalidate_every = 1;
}

Decision ControlModel::decide(const Point& x) const {
  dataset_.check_query(x);
  if (dataset_.find_exact(x).has_value()) return Decision::kCachedTool;
  if (!dataset_.empty() && fitted()) {
    const double phi = similarity_phi(dataset_, x, 1);
    if (phi <= threshold_) return Decision::kEstimate;
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

Values ControlModel::estimate(const Point& x) const {
  if (!fitted()) throw std::logic_error("estimate() before any sample was added");
  return nw_predict(dataset_, bandwidths_, x);
}

void ControlModel::add_sample(Point point, Values values) {
  dataset_.add(std::move(point), std::move(values));
  if (config_.adaptive_threshold) threshold_ = adaptive_threshold(dataset_);
  ++additions_since_validation_;
  if (additions_since_validation_ >= config_.revalidate_every || !fitted()) {
    bandwidths_ = select_bandwidths(dataset_, config_.bandwidth_grid);
    additions_since_validation_ = 0;
  }
}

}  // namespace dovado::model
