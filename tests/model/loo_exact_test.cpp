// Bit-exact differential test of the incremental Nadaraya-Watson model.
//
// The nearest-neighbour state kept per Dataset::add, the LOO-CV fold and
// the copy-free ControlModel, which fits on demand and keeps its LOO sums
// between grid rescales, must reproduce, with == and not NEAR, the direct
// evaluation in namespace `oracle` below: O(N^2) nearest-neighbour scans,
// one LOO-CV sweep per metric and bandwidth, the i<j pair loop the fold
// replaced, and a control model that refits from scratch on a copy of its
// dataset at every query, on a grid it rescales by the same rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/core/evaluator.hpp"
#include "src/model/control.hpp"
#include "src/model/nadaraya_watson.hpp"
#include "src/util/rng.hpp"

namespace dovado::model {
namespace {

// Calls inside are qualified: argument-dependent lookup would otherwise
// also find the dovado::model functions under test.
namespace oracle {

/// LOO rows whose kernel weights all underflowed (1-NN fallback taken).
std::size_t underflow_fallbacks = 0;

double adaptive_threshold(const Dataset& dataset) {
  const std::size_t n = dataset.size();
  if (n < 2) return 0.0;
  const std::size_t m = std::max<std::size_t>(1, dataset.dimension());
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      best = std::min(best, squared_distance(dataset.points()[i], dataset.points()[j]));
    }
    total += std::sqrt(best / static_cast<double>(m));
  }
  return total / static_cast<double>(n);
}

/// First minimum, in index order, of the distance from sample i.
std::size_t nearest_other(const Dataset& dataset, std::size_t i) {
  std::size_t best = Dataset::kNoNeighbour;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < dataset.size(); ++j) {
    if (j == i) continue;
    const double d2 = squared_distance(dataset.points()[i], dataset.points()[j]);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = j;
    }
  }
  return best;
}

class Nwm {
 public:
  void fit(const Dataset& dataset, std::vector<double> bandwidths) {
    dataset_ = dataset;
    bandwidths_ = std::move(bandwidths);
  }
  [[nodiscard]] bool fitted() const { return !bandwidths_.empty(); }
  [[nodiscard]] const std::vector<double>& bandwidths() const { return bandwidths_; }

  [[nodiscard]] double predict_metric(const Point& x, std::size_t metric,
                                      std::size_t exclude) const {
    const double h = bandwidths_.at(metric);
    double numerator = 0.0;
    double denominator = 0.0;
    double nearest_value = 0.0;
    double nearest_dist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < dataset_.size(); ++i) {
      if (i == exclude) continue;
      const double d2 = squared_distance(x, dataset_.points()[i]);
      const double w = gaussian_kernel(d2, h);
      numerator += w * dataset_.values()[i][metric];
      denominator += w;
      if (d2 < nearest_dist) {
        nearest_dist = d2;
        nearest_value = dataset_.values()[i][metric];
      }
    }
    if (denominator <= std::numeric_limits<double>::min()) {
      if (exclude < dataset_.size()) ++underflow_fallbacks;
      return nearest_value;
    }
    return numerator / denominator;
  }

  [[nodiscard]] Values predict(const Point& x) const {
    Values out(dataset_.metric_count());
    for (std::size_t m = 0; m < out.size(); ++m) out[m] = predict_metric(x, m, dataset_.size());
    return out;
  }

 private:
  Dataset dataset_;
  std::vector<double> bandwidths_;
};

double loo_cv_error(const Dataset& dataset, std::size_t metric, double h) {
  if (dataset.size() < 2) return std::numeric_limits<double>::infinity();
  Nwm model;
  model.fit(dataset, std::vector<double>(dataset.metric_count(), h));
  double total = 0.0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const double predicted = model.predict_metric(dataset.points()[i], metric, i);
    const double err = predicted - dataset.values()[i][metric];
    total += err * err;
  }
  return total / static_cast<double>(dataset.size());
}

/// The shared pass over sample pairs i < j that LooFold replaced: one
/// distance per pair, one kernel per pair and bandwidth, fed to both rows.
/// With i outside and j inside, row r receives its terms from pairs (k, r),
/// k < r, before those from pairs (r, j), j > r: ascending sample index.
std::vector<std::vector<double>> pair_loop_errors(const Dataset& dataset,
                                                  const std::vector<double>& bandwidths) {
  const std::size_t n = dataset.size();
  const std::size_t metrics = dataset.metric_count();
  const std::size_t grid = bandwidths.size();
  std::vector<std::vector<double>> errors(
      grid, std::vector<double>(metrics, std::numeric_limits<double>::infinity()));
  if (n < 2) return errors;
  const auto& points = dataset.points();
  const auto& values = dataset.values();
  const std::size_t stride = metrics + 1;
  std::vector<double> acc(n * grid * stride, 0.0);
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
  for (std::size_t g = 0; g < grid; ++g) {
    for (std::size_t m = 0; m < metrics; ++m) {
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double* row = &acc[(i * grid + g) * stride];
        const double predicted = row[metrics] <= std::numeric_limits<double>::min()
                                     ? values[oracle::nearest_other(dataset, i)][m]
                                     : row[m] / row[metrics];
        const double err = predicted - values[i][m];
        total += err * err;
      }
      errors[g][m] = total / static_cast<double>(n);
    }
  }
  return errors;
}

double grid_scale(const Dataset& dataset) {
  double scale = oracle::adaptive_threshold(dataset) *
                 std::sqrt(static_cast<double>(std::max<std::size_t>(1, dataset.dimension())));
  if (scale <= 0.0) scale = 1.0;
  return scale;
}

std::vector<double> bandwidth_grid(double scale) {
  std::vector<double> grid;
  for (double f : {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0}) grid.push_back(scale * f);
  return grid;
}

std::vector<double> default_bandwidth_grid(const Dataset& dataset) {
  return oracle::bandwidth_grid(oracle::grid_scale(dataset));
}

std::vector<double> select_bandwidths(const Dataset& dataset,
                                      const std::vector<double>& candidates) {
  const std::vector<double> grid =
      candidates.empty() ? oracle::default_bandwidth_grid(dataset) : candidates;
  std::vector<double> best(dataset.metric_count(), grid.empty() ? 1.0 : grid.front());
  for (std::size_t metric = 0; metric < dataset.metric_count(); ++metric) {
    double best_err = std::numeric_limits<double>::infinity();
    for (double h : grid) {
      const double err = oracle::loo_cv_error(dataset, metric, h);
      if (err < best_err) {
        best_err = err;
        best[metric] = h;
      }
    }
  }
  return best;
}

double similarity_phi(const Dataset& dataset, const Point& x) {
  if (dataset.empty()) return std::numeric_limits<double>::infinity();
  std::vector<std::size_t> order(dataset.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::partial_sort(order.begin(), order.begin() + 1, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return squared_distance(dataset.points()[a], x) <
                             squared_distance(dataset.points()[b], x);
                    });
  const Point& z = dataset.points()[order.front()];
  const std::size_t m = std::max<std::size_t>(1, x.size());
  return std::sqrt(squared_distance(x, z) / static_cast<double>(m));
}

/// ControlModel's rescale factor (control.cpp): the grid is rebuilt when
/// the scale leaves [built / factor, built * factor].
constexpr double kRescaleFactor = 1.25;

class Control {
 public:
  explicit Control(ControlModel::Config config) : config_(config) {
    if (!config_.adaptive_threshold) threshold_ = config_.fixed_threshold;
  }

  [[nodiscard]] Decision decide(const Point& x) const {
    if (dataset_.find_exact(x).has_value()) return Decision::kCachedTool;
    if (!dataset_.empty() && oracle::similarity_phi(dataset_, x) <= threshold_) {
      return Decision::kEstimate;
    }
    return Decision::kToolAndAdd;
  }

  [[nodiscard]] Values estimate(const Point& x) {
    fit();
    return model_.predict(x);
  }

  void add_sample(Point point, Values values) {
    dataset_.add(std::move(point), std::move(values));
    if (config_.adaptive_threshold) threshold_ = oracle::adaptive_threshold(dataset_);
  }

  const std::vector<double>& bandwidths() {
    fit();
    return model_.bandwidths();
  }

  [[nodiscard]] const std::vector<double>& grid() const { return grid_; }
  [[nodiscard]] double threshold() const { return threshold_; }
  [[nodiscard]] std::size_t rescales() const { return rescales_; }
  /// Fits whose scale differed from the grid's without a rebuild.
  [[nodiscard]] std::size_t kept_grid_fits() const { return kept_grid_fits_; }

 private:
  /// Refit from scratch when samples were added since the last fit, first
  /// rebuilding the grid when the scale has left the factor's band around
  /// the scale the grid was built at.
  void fit() {
    if (dataset_.size() == fitted_size_) return;
    fitted_size_ = dataset_.size();
    const double scale = oracle::grid_scale(dataset_);
    if (grid_.empty() || scale > grid_built_at_ * kRescaleFactor ||
        scale * kRescaleFactor < grid_built_at_) {
      grid_ = oracle::bandwidth_grid(scale);
      grid_built_at_ = scale;
      ++rescales_;
    } else if (scale != grid_built_at_) {
      ++kept_grid_fits_;
    }
    model_.fit(dataset_, oracle::select_bandwidths(dataset_, grid_));
  }

  ControlModel::Config config_;
  Dataset dataset_;
  Nwm model_;
  std::vector<double> grid_;
  double grid_built_at_ = 0.0;
  std::size_t rescales_ = 0;
  std::size_t kept_grid_fits_ = 0;
  std::size_t fitted_size_ = 0;
  double threshold_ = 0.0;
};

}  // namespace oracle

/// Γ and every sample's nearest-other index.
void expect_dataset_state(const Dataset& d) {
  EXPECT_EQ(adaptive_threshold(d), oracle::adaptive_threshold(d)) << "n=" << d.size();
  ASSERT_EQ(d.nearest_other().size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d.nearest_other()[i], oracle::nearest_other(d, i)) << "n=" << d.size() << " i=" << i;
  }
}

/// Every LOO error on `grid` (empty: the default grid) and the selection.
void expect_loo(const Dataset& d, const std::vector<double>& grid = {}) {
  const std::vector<double> used = grid.empty() ? default_bandwidth_grid(d) : grid;
  if (grid.empty()) {
    EXPECT_EQ(used, oracle::default_bandwidth_grid(d)) << "n=" << d.size();
  }
  const auto errors = loo_cv_errors(d, used);
  EXPECT_EQ(errors, oracle::pair_loop_errors(d, used)) << "n=" << d.size();
  ASSERT_EQ(errors.size(), used.size());
  for (std::size_t g = 0; g < used.size(); ++g) {
    ASSERT_EQ(errors[g].size(), d.metric_count());
    for (std::size_t m = 0; m < d.metric_count(); ++m) {
      EXPECT_EQ(errors[g][m], oracle::loo_cv_error(d, m, used[g]))
          << "n=" << d.size() << " h=" << used[g] << " metric=" << m;
      EXPECT_EQ(loo_cv_error(d, m, used[g]), errors[g][m]);
    }
  }
  EXPECT_EQ(select_bandwidths(d, grid), oracle::select_bandwidths(d, grid)) << "n=" << d.size();
}

/// After a query that fitted both models: the same grid, and the model's
/// bandwidths equal a fresh selection on that grid.
void expect_fit(ControlModel& fast, const oracle::Control& slow) {
  const std::size_t n = fast.dataset().size();
  EXPECT_EQ(fast.grid(), slow.grid()) << "n=" << n;
  EXPECT_EQ(fast.bandwidths(), select_bandwidths(fast.dataset(), fast.grid())) << "n=" << n;
}

/// Γ, the fit (grid and bandwidths) and every query's decision and estimate.
void expect_same_control(ControlModel& fast, oracle::Control& slow,
                         const std::vector<Point>& queries) {
  const std::size_t n = fast.dataset().size();
  EXPECT_EQ(fast.threshold(), slow.threshold()) << "n=" << n;
  EXPECT_EQ(fast.bandwidths(), slow.bandwidths()) << "n=" << n;
  expect_fit(fast, slow);
  for (const Point& q : queries) {
    EXPECT_EQ(fast.decide(q), slow.decide(q)) << "n=" << n;
    if (n > 0) {
      EXPECT_EQ(fast.estimate(q), slow.estimate(q)) << "n=" << n;
    }
  }
}

Point random_point(util::Rng& rng, std::size_t dims, double hi) {
  Point p(dims);
  for (auto& v : p) v = rng.uniform(0.0, hi);
  return p;
}

Values smooth_metrics(const Point& p, std::size_t metrics) {
  Values v(metrics);
  for (std::size_t m = 0; m < metrics; ++m) {
    double s = 0.0;
    for (std::size_t k = 0; k < p.size(); ++k) s += std::sin(p[k] / (7.0 + 3.0 * m)) * (k + 1.0);
    v[m] = 100.0 * s + 3.0 * p[0] * static_cast<double>(m);
  }
  return v;
}

/// Grows a control model and its oracle through `stream`, comparing both
/// after every addition.
void grow_and_compare(const std::vector<Point>& stream, const std::vector<Point>& queries,
                      std::size_t metrics, ControlModel::Config config) {
  ControlModel fast(config);
  oracle::Control slow(config);
  expect_same_control(fast, slow, queries);
  for (const Point& p : stream) {
    fast.add_sample(p, smooth_metrics(p, metrics));
    slow.add_sample(p, smooth_metrics(p, metrics));
    expect_same_control(fast, slow, queries);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(LooExact, RandomDatasetsAtEverySize) {
  for (std::size_t dims = 1; dims <= 3; ++dims) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    util::Rng rng(100 + dims);
    const std::size_t metrics = 1 + (dims % 3);
    Dataset d;
    expect_dataset_state(d);
    expect_loo(d);
    for (std::size_t n = 1; n <= 300; ++n) {
      const Point p = random_point(rng, dims, 100.0);
      d.add(p, smooth_metrics(p, metrics));
      expect_dataset_state(d);
      // Full LOO comparison is O(N^2 * grid * metrics) on the oracle side:
      // every size up to 40, then every 29th and the last.
      if (n <= 40 || n % 29 == 0 || n == 300) expect_loo(d);
      if (HasFailure()) return;
    }
  }
}

TEST(LooExact, TiedDistancesAndDuplicates) {
  // Integer lattice points in shuffled order: many equal distances, so the
  // first-minimum rule decides every nearest-other index. Some points are
  // added twice (distance 0).
  std::vector<Point> lattice;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) lattice.push_back({2.0 * x, 2.0 * y});
  }
  util::Rng rng(9);
  rng.shuffle(lattice);
  for (std::size_t i = 0; i < 12; ++i) lattice.push_back(lattice[i * 5]);
  Dataset d;
  for (const Point& p : lattice) {
    d.add(p, smooth_metrics(p, 2));
    expect_dataset_state(d);
    expect_loo(d);
    expect_loo(d, {0.5, 2.0, 2.0, 6.0});
    if (HasFailure()) return;
  }
}

TEST(LooExact, FarClustersTakeTheUnderflowFallback) {
  // Two tight clusters 2e4 apart and an isolated point equidistant from
  // both clusters' first members: at small bandwidths the isolated rows'
  // weights all underflow, and the fallback must pick the first nearest.
  Dataset d;
  for (int k = 0; k < 5; ++k) d.add({-1.0 * k}, {10.0 + k, -3.0 * k});
  for (int k = 0; k < 5; ++k) d.add({2e4 + k}, {50.0 - k, 7.0 * k});
  d.add({1e4}, {99.0, -99.0});
  d.add({6e4}, {-5.0, 5.0});
  d.add({1e5}, {3.0, 1.0});
  oracle::underflow_fallbacks = 0;
  expect_dataset_state(d);
  expect_loo(d, {0.5, 3.0, 50.0});
  expect_loo(d);
  EXPECT_GT(oracle::underflow_fallbacks, 0u);
  EXPECT_EQ(d.nearest_other()[10], 0u);  // {1e4}: equidistant to {0} and {2e4}
}

TEST(LooExact, NonPositiveBandwidths) {
  // h <= 0 gives zero kernels, so every row takes the 1-NN fallback.
  util::Rng rng(21);
  Dataset d;
  for (int i = 0; i < 60; ++i) {
    const Point p = random_point(rng, 2, 50.0);
    d.add(p, smooth_metrics(p, 3));
  }
  oracle::underflow_fallbacks = 0;
  expect_loo(d, {-1.0, 0.0, 0.25, 3.0});
  expect_loo(d, {0.0});
  EXPECT_GT(oracle::underflow_fallbacks, 0u);

  // Predictions on a grid of zero kernels: the 1-NN fallback at every query.
  const std::vector<double> grid = {0.0, -2.0};
  std::vector<Point> queries;
  for (int i = 0; i < 10; ++i) queries.push_back(random_point(rng, 2, 50.0));
  Dataset grown;
  for (int i = 0; i < 30; ++i) {
    const Point p = random_point(rng, 2, 50.0);
    grown.add(p, smooth_metrics(p, 2));
    NadarayaWatson fast;
    fast.fit(grown, select_bandwidths(grown, grid));
    oracle::Nwm slow;
    slow.fit(grown, oracle::select_bandwidths(grown, grid));
    EXPECT_EQ(fast.bandwidths(), slow.bandwidths()) << "n=" << grown.size();
    for (const Point& q : queries) {
      EXPECT_EQ(fast.predict(q), slow.predict(q)) << "n=" << grown.size();
    }
    if (HasFailure()) return;
  }
}

TEST(LooExact, ControlModelMatchesDirectRefit) {
  util::Rng rng(33);
  std::vector<Point> stream;
  for (int i = 0; i < 100; ++i) {
    // Half on an integer grid (ties), half continuous.
    if (i % 2 == 0) {
      stream.push_back({static_cast<double>(rng.uniform_int(0, 20)) * 5.0,
                        static_cast<double>(rng.uniform_int(0, 20)) * 5.0});
    } else {
      stream.push_back(random_point(rng, 2, 100.0));
    }
  }
  std::vector<Point> queries;
  for (int i = 0; i < 12; ++i) queries.push_back(random_point(rng, 2, 100.0));
  for (int i = 0; i < 6; ++i) {
    Point near = stream[static_cast<std::size_t>(i * 7)];
    near[0] += 0.5;
    queries.push_back(near);
  }
  queries.push_back(stream[3]);          // exact hit once added
  queries.push_back({1e6, -1e6});        // far: estimate falls back to 1-NN
  grow_and_compare(stream, queries, 2, ControlModel::Config{});
  ControlModel::Config fixed;
  fixed.adaptive_threshold = false;
  fixed.fixed_threshold = 4.0;
  grow_and_compare(stream, queries, 3, fixed);
}

TEST(LooExact, OnDemandFitMatchesEagerOracle) {
  // A 100-sample burst (pre-training), then bursts of 1-7 additions with 0,
  // 1 or several queries between them: the model folds the new samples into
  // its kept sums when a query needs a fit, the oracle refits from scratch,
  // and every query must agree.
  util::Rng rng(47);
  ControlModel fast;
  oracle::Control slow(ControlModel::Config{});
  auto add = [&](std::int64_t count) {
    for (std::int64_t k = 0; k < count; ++k) {
      const Point p = random_point(rng, 2, 200.0);
      fast.add_sample(p, smooth_metrics(p, 2));
      slow.add_sample(p, smooth_metrics(p, 2));
    }
  };
  // Random points, points next to a sample (estimates) and exact hits.
  auto query_point = [&]() -> Point {
    const std::int64_t kind = rng.uniform_int(0, 2);
    if (kind == 0) return random_point(rng, 2, 200.0);
    Point p = fast.dataset().points()[rng.index(fast.dataset().size())];
    if (kind == 1) p[1] += 0.5;
    return p;
  };
  add(100);
  std::size_t fit_queries = 0;
  for (int burst = 0; burst < 40; ++burst) {
    const std::int64_t queries = rng.chance(0.3) ? rng.uniform_int(2, 6) : rng.uniform_int(0, 1);
    for (std::int64_t k = 0; k < queries; ++k) {
      const Point q = query_point();
      const std::size_t n = fast.dataset().size();
      EXPECT_EQ(fast.threshold(), slow.threshold()) << "n=" << n;
      switch (rng.uniform_int(0, 2)) {
        case 0: EXPECT_EQ(fast.decide(q), slow.decide(q)) << "n=" << n; break;
        case 1:
          EXPECT_EQ(fast.estimate(q), slow.estimate(q)) << "n=" << n;
          expect_fit(fast, slow);
          ++fit_queries;
          break;
        default:
          EXPECT_EQ(fast.bandwidths(), slow.bandwidths()) << "n=" << n;
          expect_fit(fast, slow);
          ++fit_queries;
          break;
      }
    }
    if (HasFailure()) return;
    add(rng.uniform_int(1, 7));
  }
  EXPECT_GT(fit_queries, 20u);
  std::vector<Point> last;
  for (int i = 0; i < 8; ++i) last.push_back(query_point());
  expect_same_control(fast, slow, last);
}

TEST(LooExact, KeptFoldEqualsFreshFold) {
  // A LooFold grown in chunks of 1-9 samples must equal a fresh fold over
  // the same dataset (loo_cv_errors) and the pair loop at every size: on
  // random points, on a tied lattice with duplicates, and on far clusters
  // whose rows take the underflow fallback.
  util::Rng rng(61);
  std::vector<Point> random_stream;
  for (int i = 0; i < 120; ++i) random_stream.push_back(random_point(rng, 3, 100.0));
  std::vector<Point> lattice;
  for (int x = 0; x < 7; ++x) {
    for (int y = 0; y < 7; ++y) lattice.push_back({3.0 * x, 3.0 * y});
  }
  rng.shuffle(lattice);
  for (std::size_t i = 0; i < 10; ++i) lattice.push_back(lattice[i * 4]);
  std::vector<Point> clusters;
  for (int k = 0; k < 6; ++k) {
    clusters.push_back({-1.0 * k});
    clusters.push_back({3e4 + k});
  }
  clusters.push_back({1.5e4});
  const std::vector<double> grid = {0.5, 1.0, 2.0, 6.0, 40.0};
  for (const auto* stream : {&random_stream, &lattice, &clusters}) {
    const std::size_t dims = stream->front().size();
    SCOPED_TRACE("dims=" + std::to_string(dims) + " samples=" + std::to_string(stream->size()));
    Dataset d;
    LooFold fold(grid);
    std::size_t next = 0;
    while (next < stream->size()) {
      const std::size_t chunk = std::min<std::size_t>(
          stream->size() - next, static_cast<std::size_t>(rng.uniform_int(1, 9)));
      for (std::size_t k = 0; k < chunk; ++k, ++next) {
        const Point& p = (*stream)[next];
        d.add(p, smooth_metrics(p, 2));
      }
      fold.fold(d);
      const auto kept = fold.errors(d);
      EXPECT_EQ(kept, loo_cv_errors(d, grid)) << "n=" << d.size();
      EXPECT_EQ(kept, oracle::pair_loop_errors(d, grid)) << "n=" << d.size();
      if (HasFailure()) return;
    }
  }
}

TEST(LooExact, ScaleDriftRebuildsTheGrid) {
  // A dense cloud makes Γ fall as it fills, then widely spaced points make
  // it rise: the grid must be rebuilt in both directions, exactly when the
  // scale leaves the factor's band, and kept while it stays inside.
  util::Rng rng(73);
  std::vector<Point> stream;
  for (int i = 0; i < 80; ++i) stream.push_back(random_point(rng, 2, 100.0));
  for (int i = 0; i < 40; ++i) stream.push_back({2000.0 + 400.0 * i, -500.0 * (i % 3)});
  std::vector<Point> queries = {{50.0, 50.0}, {50.5, 49.0}, {4000.0, 0.0}};
  ControlModel fast;
  oracle::Control slow(ControlModel::Config{});
  std::size_t rises = 0;
  std::size_t falls = 0;
  double last_front = 0.0;
  for (const Point& p : stream) {
    fast.add_sample(p, smooth_metrics(p, 2));
    slow.add_sample(p, smooth_metrics(p, 2));
    expect_same_control(fast, slow, queries);
    if (HasFailure()) return;
    const double front = fast.grid().front();
    if (last_front > 0.0 && front > last_front) ++rises;
    if (last_front > 0.0 && front < last_front) ++falls;
    last_front = front;
  }
  EXPECT_GT(rises, 0u);
  EXPECT_GT(falls, 0u);
  EXPECT_EQ(slow.rescales(), 1 + rises + falls);
  EXPECT_GT(slow.kept_grid_fits(), slow.rescales());
}

TEST(LooExact, Fig3FifoDataset) {
  // The fig3_mse_convergence training stream: normalized FF/LUT/Fmax of
  // the cv32e40p FIFO over DEPTH 8..507 in a seeded random order.
  core::ProjectConfig project;
  project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                             hdl::HdlLanguage::kSystemVerilog, "work", false});
  project.top_module = "cv32e40p_fifo";
  project.part = "xc7k70tfbv676-1";
  project.target_period_ns = 1.0;
  core::PointEvaluator evaluator(project);
  constexpr std::int64_t kDepthMin = 8;
  constexpr std::int64_t kDepthMax = 507;
  constexpr const char* kMetrics[] = {"ff", "lut", "fmax_mhz"};
  std::vector<std::array<double, 3>> truth;
  std::array<double, 3> lo{1e18, 1e18, 1e18};
  std::array<double, 3> hi{-1e18, -1e18, -1e18};
  for (std::int64_t depth = kDepthMin; depth <= kDepthMax; ++depth) {
    const auto r = evaluator.evaluate({{"DEPTH", depth}});
    std::array<double, 3> row{};
    for (std::size_t m = 0; m < 3; ++m) {
      row[m] = r.metrics.get(kMetrics[m]);
      lo[m] = std::min(lo[m], row[m]);
      hi[m] = std::max(hi[m], row[m]);
    }
    truth.push_back(row);
  }
  auto normalized = [&](std::int64_t depth) {
    const auto& t = truth[static_cast<std::size_t>(depth - kDepthMin)];
    Values v(3);
    for (std::size_t m = 0; m < 3; ++m) v[m] = hi[m] > lo[m] ? (t[m] - lo[m]) / (hi[m] - lo[m]) : 0.0;
    return v;
  };
  std::vector<std::int64_t> test_depths;
  for (std::int64_t d = kDepthMin + 4; d <= kDepthMax; d += 9) test_depths.push_back(d);
  std::vector<std::int64_t> pool;
  for (std::int64_t d = kDepthMin; d <= kDepthMax; ++d) {
    if (std::find(test_depths.begin(), test_depths.end(), d) == test_depths.end()) pool.push_back(d);
  }
  util::Rng rng(2021);
  rng.shuffle(pool);

  Dataset d;
  for (std::size_t i = 0; i < 100; ++i) {
    d.add({static_cast<double>(pool[i])}, normalized(pool[i]));
    expect_dataset_state(d);
    expect_loo(d);
    NadarayaWatson fast;
    fast.fit(d, select_bandwidths(d));
    oracle::Nwm slow;
    slow.fit(d, oracle::select_bandwidths(d, {}));
    for (std::int64_t depth : test_depths) {
      const Point q = {static_cast<double>(depth)};
      EXPECT_EQ(fast.predict(q), slow.predict(q)) << "n=" << d.size() << " depth=" << depth;
    }
    if (HasFailure()) return;
  }

  // The same stream through the control model, as a campaign grows it.
  std::vector<Point> queries;
  for (std::int64_t depth : test_depths) queries.push_back({static_cast<double>(depth)});
  ControlModel fast;
  oracle::Control slow(ControlModel::Config{});
  for (std::size_t i = 0; i < 100; ++i) {
    fast.add_sample({static_cast<double>(pool[i])}, normalized(pool[i]));
    slow.add_sample({static_cast<double>(pool[i])}, normalized(pool[i]));
    expect_same_control(fast, slow, queries);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace dovado::model
