// Micro benchmarks of the approximation model: the cost asymmetry that
// justifies the paper's control model (an NWM estimate must be orders of
// magnitude cheaper than a tool run), plus LOO-CV training cost.
//
// The control model selects bandwidths on demand: add_sample refreshes Γ
// and marks the fit stale, and the next estimate pays the LOO-CV pass.
// BM_ControlGrow times the campaign's pattern, a pre-trained model growing
// through add_sample with one estimate after each addition, so every
// addition is refitted. BM_ControlPretrain times pre-training: 100
// additions back to back, then one estimate (one fit). The binary exits
// non-zero when a grow did not reach its size.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "src/model/control.hpp"
#include "src/model/nadaraya_watson.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace dovado;

bool g_grow_short = false;

model::Dataset make_dataset(std::size_t n, std::size_t dims) {
  util::Rng rng(7);
  model::Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    model::Point p(dims);
    for (auto& v : p) v = rng.uniform(0.0, 500.0);
    d.add(p, {p[0] * 2.0, 1000.0 - p[0]});
  }
  return d;
}

void BM_NwmPredict(benchmark::State& state) {
  const auto dataset = make_dataset(static_cast<std::size_t>(state.range(0)), 3);
  model::NadarayaWatson nwm;
  nwm.fit(dataset, {25.0, 25.0});
  const model::Point q = {100.0, 200.0, 300.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(nwm.predict(q));
  }
}
BENCHMARK(BM_NwmPredict)->Range(32, 1024);

void BM_LooCvBandwidthSelection(benchmark::State& state) {
  const auto dataset = make_dataset(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::select_bandwidths(dataset));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LooCvBandwidthSelection)->Range(32, 256)->Complexity(benchmark::oNSquared);

void BM_AdaptiveThreshold(benchmark::State& state) {
  const auto dataset = make_dataset(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::adaptive_threshold(dataset));
  }
}
BENCHMARK(BM_AdaptiveThreshold)->Range(32, 512);

void BM_ControlDecision(benchmark::State& state) {
  model::ControlModel control;
  util::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const model::Point p = {rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)};
    control.add_sample(p, {p[0], p[1]});
  }
  const model::Point q = {123.0, 321.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(control.decide(q));
  }
}
BENCHMARK(BM_ControlDecision);

void BM_SimilarityPhi(benchmark::State& state) {
  const auto dataset = make_dataset(static_cast<std::size_t>(state.range(0)), 4);
  const model::Point q = {1.0, 2.0, 3.0, 4.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::similarity_phi(dataset, q, 1));
  }
}
BENCHMARK(BM_SimilarityPhi)->Range(32, 512);

constexpr std::size_t kPretrain = 100;

/// The grow stream: 2-D points and their two metrics.
std::vector<model::Point> grow_points(std::size_t n) {
  util::Rng rng(11);
  std::vector<model::Point> points(n);
  for (auto& p : points) p = {rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)};
  return points;
}

model::Values grow_metrics(const model::Point& p) { return {p[0] * 2.0 + p[1], 1000.0 - p[0]}; }

void BM_ControlGrow(benchmark::State& state) {
  constexpr std::size_t kFinal = 256;
  const auto points = grow_points(kFinal);
  const model::Point q = {123.0, 321.0};
  model::ControlModel pretrained;
  for (std::size_t i = 0; i < kPretrain; ++i) {
    pretrained.add_sample(points[i], grow_metrics(points[i]));
  }
  for (auto _ : state) {
    state.PauseTiming();
    model::ControlModel control = pretrained;
    state.ResumeTiming();
    for (std::size_t i = kPretrain; i < kFinal; ++i) {
      control.add_sample(points[i], grow_metrics(points[i]));
      benchmark::DoNotOptimize(control.estimate(q));
    }
    if (control.dataset().size() != kFinal) g_grow_short = true;
  }
}
BENCHMARK(BM_ControlGrow)->Unit(benchmark::kMillisecond);

void BM_ControlPretrain(benchmark::State& state) {
  const auto points = grow_points(kPretrain);
  const model::Point q = {123.0, 321.0};
  for (auto _ : state) {
    model::ControlModel control;
    for (const auto& p : points) control.add_sample(p, grow_metrics(p));
    benchmark::DoNotOptimize(control.estimate(q));
    if (control.dataset().size() != kPretrain) g_grow_short = true;
  }
}
BENCHMARK(BM_ControlPretrain)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_grow_short) {
    std::fprintf(stderr, "micro_nwm: a control-model grow did not reach its dataset size\n");
    return 1;
  }
  return 0;
}
