// Nadaraya-Watson kernel regression (paper Sec. III-C, Eqs. 2-3).
//
// A non-parametric estimator: the prediction at x is the kernel-weighted
// average of the dataset values, with a Gaussian kernel whose bandwidth h
// is the single free parameter (per Shapiai et al. [28], the Gaussian
// kernel performs best, "leaving the bandwidth as the only free
// parameter"). Bandwidths are selected per metric by Leave-One-Out
// cross-validation, which is cheap because the model has no training phase.
//
// LOO-CV folds the samples into per-row accumulators in index order
// (LooFold). Folding sample k appends its kernel term to every earlier row,
// whose highest index it is, and fills row k from the rows before it in
// ascending order. Each row therefore sums its terms in ascending sample
// index, exactly as a direct prediction at that sample would, however the
// samples were split into folds: errors and selected bandwidths are
// bit-identical to a per-sample, per-metric evaluation, and an accumulator
// kept across additions equals a fresh one on the same grid.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/model/dataset.hpp"

namespace dovado::model {

/// Gaussian kernel of Eq. (3) in squared-distance form:
/// K_h(d2) = exp(-d2 / (2 h^2)) / sqrt(2 pi).
[[nodiscard]] double gaussian_kernel(double squared_dist, double bandwidth);

/// Predict all metrics at x (Eq. 2) over `dataset`, one bandwidth per
/// metric, in one pass over the samples. A metric whose kernel weights all
/// underflow (x far from every sample) falls back to the nearest sample's
/// value. Checks the query dimension (Dataset::check_query).
[[nodiscard]] Values nw_predict(const Dataset& dataset, const std::vector<double>& bandwidths,
                                const Point& x);

class NadarayaWatson {
 public:
  /// Bind the model to a dataset snapshot with one bandwidth per metric.
  /// The dataset is copied (it is small by construction: the paper uses
  /// M = 100 pre-training samples).
  void fit(const Dataset& dataset, std::vector<double> bandwidths);

  [[nodiscard]] bool fitted() const { return !bandwidths_.empty(); }
  [[nodiscard]] const std::vector<double>& bandwidths() const { return bandwidths_; }

  /// Predict all metrics at x: nw_predict over the fitted snapshot.
  [[nodiscard]] Values predict(const Point& x) const;

 private:
  Dataset dataset_;
  std::vector<double> bandwidths_;
};

/// Leave-one-out sums on a fixed candidate grid, grown by folding samples
/// in index order. Row i at bandwidth g keeps, per metric, the sum of
/// K_g(d(i, j)) * value[j][metric] over the folded samples j != i, then the
/// sum of K_g(d(i, j)). Folding a dataset that grew by appends costs
/// G * (new samples) * N kernels; the rows of earlier samples are kept.
class LooFold {
 public:
  explicit LooFold(std::vector<double> bandwidths = {}) : bandwidths_(std::move(bandwidths)) {}

  /// Fold the samples of `dataset` not folded yet. `dataset` must be the
  /// dataset folded so far, grown only by Dataset::add.
  void fold(const Dataset& dataset);

  [[nodiscard]] const std::vector<double>& bandwidths() const { return bandwidths_; }

  /// Mean squared LOO-CV errors over every sample of `dataset`, which must
  /// be folded: result[g][metric] for bandwidth `bandwidths()[g]`, in
  /// O(N * G * M). +infinity for datasets with fewer than two samples.
  [[nodiscard]] std::vector<std::vector<double>> errors(const Dataset& dataset) const;

  /// Per metric, the first bandwidth with the least error over the folded
  /// `dataset`; bandwidths().front() when no error is finite, 1.0 when the
  /// grid is empty.
  [[nodiscard]] std::vector<double> select(const Dataset& dataset) const;

 private:
  std::vector<double> bandwidths_;
  std::size_t folded_ = 0;
  /// Row i's sums at bandwidth g start at acc_[(i * G + g) * (M + 1)]: one
  /// numerator per metric, then the denominator.
  std::vector<double> acc_;
};

/// Mean squared LOO-CV errors: result[g][metric] for bandwidth
/// `bandwidths[g]`, from one fresh LooFold over the whole dataset.
/// +infinity for datasets with fewer than two samples.
[[nodiscard]] std::vector<std::vector<double>> loo_cv_errors(
    const Dataset& dataset, const std::vector<double>& bandwidths);

/// Mean squared LOO-CV error of metric `metric` at bandwidth `h`.
[[nodiscard]] double loo_cv_error(const Dataset& dataset, std::size_t metric, double h);

/// The default grid's scale: Γ * sqrt(dimension), the dataset's typical
/// nearest-neighbour distance (1.0 while Γ is 0).
[[nodiscard]] double bandwidth_scale(const Dataset& dataset);

/// Candidate bandwidth grid `scale` * {0.25 ... 8}.
[[nodiscard]] std::vector<double> bandwidth_grid(double scale);

/// bandwidth_grid(bandwidth_scale(dataset)): a grid that adapts to the
/// parameter ranges.
[[nodiscard]] std::vector<double> default_bandwidth_grid(const Dataset& dataset);

/// Select per-metric bandwidths by LOO-CV over `candidates` (or the default
/// grid when empty). Returns one bandwidth per metric.
[[nodiscard]] std::vector<double> select_bandwidths(
    const Dataset& dataset, const std::vector<double>& candidates = {});

}  // namespace dovado::model
