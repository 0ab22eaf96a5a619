// Nadaraya-Watson kernel regression (paper Sec. III-C, Eqs. 2-3).
//
// A non-parametric estimator: the prediction at x is the kernel-weighted
// average of the dataset values, with a Gaussian kernel whose bandwidth h
// is the single free parameter (per Shapiai et al. [28], the Gaussian
// kernel performs best, "leaving the bandwidth as the only free
// parameter"). Bandwidths are selected per metric by Leave-One-Out
// cross-validation, which is cheap because the model has no training phase.
//
// LOO-CV visits each sample pair once, computes its distance once, and
// feeds the one kernel value per candidate bandwidth to both rows and every
// metric. Each row still sums its terms in ascending sample index, exactly
// as a direct prediction at that sample would, so errors and selected
// bandwidths are bit-identical to a per-sample, per-metric evaluation.
#pragma once

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

/// Mean squared LOO-CV errors: result[g][metric] for bandwidth
/// `bandwidths[g]`, every metric and bandwidth from one pass over the sample
/// pairs. +infinity for datasets with fewer than two samples.
[[nodiscard]] std::vector<std::vector<double>> loo_cv_errors(
    const Dataset& dataset, const std::vector<double>& bandwidths);

/// Mean squared LOO-CV error of metric `metric` at bandwidth `h`.
[[nodiscard]] double loo_cv_error(const Dataset& dataset, std::size_t metric, double h);

/// Candidate bandwidth grid scaled to the dataset's typical nearest-
/// neighbour distance (so the grid adapts to the parameter ranges).
[[nodiscard]] std::vector<double> default_bandwidth_grid(const Dataset& dataset);

/// Select per-metric bandwidths by LOO-CV over `candidates` (or the default
/// grid when empty). Returns one bandwidth per metric.
[[nodiscard]] std::vector<double> select_bandwidths(
    const Dataset& dataset, const std::vector<double>& candidates = {});

}  // namespace dovado::model
