// The approximation control model (paper Fig. 2 and Sec. III-C).
//
// For each design point the exploration wants evaluated, decide among:
//   1. the point is already in the dataset -> call the tool, which answers
//      from its cached results (kCachedTool);
//   2. the point is "similar enough" (Eq. 4 distance to the nearest dataset
//      point <= threshold) -> answer with the Nadaraya-Watson estimate
//      (kEstimate);
//   3. otherwise -> call the tool, add the new pair to the dataset, and
//      re-run training/validation (kToolAndAdd).
//
// The threshold is adaptive by default: Γ = the average nearest-neighbour
// Eq.-(4) distance over dataset points, updated after every addition.
// Bandwidths are selected by LOO-CV on demand: an addition marks the fit
// stale and the next estimate() or bandwidths() refits. The candidate grid
// is built at the first fit as Γ·√d × {0.25 … 8} and rebuilt only when
// Γ·√d has moved by more than a fixed factor, in either direction, from the
// scale it was built at. Between rebuilds the model keeps every row's LOO
// sums (LooFold) and a refit folds in only the samples added since the
// last one, so a fit after one addition costs G·N kernels instead of
// G·N(N−1)/2. The selected bandwidths always equal
// select_bandwidths(dataset(), grid()) bit for bit. The paper re-selects on
// a grid that follows every change of Γ; this model follows it in steps.
// decide() and estimate() throw std::invalid_argument for a point whose
// dimension differs from the dataset's.
#pragma once

#include <cstddef>
#include <vector>

#include "src/model/dataset.hpp"
#include "src/model/nadaraya_watson.hpp"

namespace dovado::model {

enum class Decision {
  kCachedTool,  ///< exact hit: the tool answers from cache
  kEstimate,    ///< similar enough: use the statistical model
  kToolAndAdd,  ///< novel: run the tool, grow the dataset, retrain
};

/// Call statistics, for the paper's cost argument (estimates replace tool
/// invocations).
struct ControlStats {
  std::size_t cached_hits = 0;
  std::size_t estimates = 0;
  std::size_t tool_calls = 0;  ///< kToolAndAdd decisions
};

class ControlModel {
 public:
  struct Config {
    /// Use the adaptive threshold Γ; when false, `fixed_threshold` applies.
    bool adaptive_threshold = true;
    double fixed_threshold = 0.0;
  };

  ControlModel() : ControlModel(Config{}) {}
  explicit ControlModel(Config config);

  /// Classify a design point (does not mutate state; needs no fit).
  [[nodiscard]] Decision decide(const Point& x) const;

  /// Decide and record the decision in the statistics.
  Decision decide_and_count(const Point& x);

  /// Model estimate at x (nw_predict over the model's own dataset; fits
  /// first if stale). Only valid once the dataset is non-empty.
  [[nodiscard]] Values estimate(const Point& x);

  /// Record a tool result (pre-training and kToolAndAdd additions): adds
  /// the pair, refreshes Γ and marks the fit stale, in O(N * dimension).
  /// The next fit folds the new samples into the kept LOO sums, or rebuilds
  /// them on a rescaled grid.
  void add_sample(Point point, Values values);

  [[nodiscard]] const Dataset& dataset() const { return dataset_; }
  /// The selected bandwidths, one per metric, fitting first if stale;
  /// empty before the first sample.
  [[nodiscard]] const std::vector<double>& bandwidths();
  /// The candidate bandwidths of the last fit; empty before the first fit.
  [[nodiscard]] const std::vector<double>& grid() const { return fold_.bandwidths(); }
  [[nodiscard]] double threshold() const { return threshold_; }
  [[nodiscard]] const ControlStats& stats() const { return stats_; }

 private:
  Config config_;
  Dataset dataset_;
  LooFold fold_;             ///< LOO sums on grid() over the samples folded so far
  double grid_scale_ = 0.0;  ///< Γ·√d when grid() was built
  std::vector<double> bandwidths_;
  bool stale_ = false;  ///< a sample was added since bandwidths_ was selected
  double threshold_ = 0.0;
  ControlStats stats_;
};

}  // namespace dovado::model
