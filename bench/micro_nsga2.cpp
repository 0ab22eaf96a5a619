// Micro benchmarks of the optimizer substrate: non-dominated sorting,
// crowding distance, and full NSGA-II generations on a synthetic problem.
#include <benchmark/benchmark.h>

#include "src/opt/indicators.hpp"
#include "src/opt/nds.hpp"
#include "src/opt/nsga2.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace dovado;

std::vector<opt::Objectives> random_objectives(std::size_t n, std::size_t m,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<opt::Objectives> objs(n);
  for (auto& o : objs) {
    o.resize(m);
    for (auto& v : o) v = rng.uniform();
  }
  return objs;
}

// Three objectives take the general pairwise path: the O(N^2) baseline.
void BM_FastNonDominatedSort(benchmark::State& state) {
  const auto objs = random_objectives(static_cast<std::size_t>(state.range(0)), 3, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::fast_non_dominated_sort(objs));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FastNonDominatedSort)->Range(16, 1024)->Complexity(benchmark::oNSquared);

// Two objectives (every paper campaign) take the O(N log N) sweep.
void BM_FastNonDominatedSort2(benchmark::State& state) {
  const auto objs = random_objectives(static_cast<std::size_t>(state.range(0)), 2, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::fast_non_dominated_sort(objs));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FastNonDominatedSort2)->Range(16, 4096)->Complexity(benchmark::oNLogN);

void BM_NonDominatedIndices2(benchmark::State& state) {
  const auto objs = random_objectives(static_cast<std::size_t>(state.range(0)), 2, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::non_dominated_indices(objs));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NonDominatedIndices2)->Range(16, 4096)->Complexity(benchmark::oNLogN);

void BM_CrowdingDistance(benchmark::State& state) {
  const auto objs = random_objectives(static_cast<std::size_t>(state.range(0)), 3, 2);
  std::vector<std::size_t> front(objs.size());
  for (std::size_t i = 0; i < front.size(); ++i) front[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::crowding_distance(objs, front));
  }
}
BENCHMARK(BM_CrowdingDistance)->Range(16, 1024);

/// Cheap synthetic problem so the bench isolates GA overhead (not fitness).
class SyntheticProblem final : public opt::Problem {
 public:
  explicit SyntheticProblem(std::size_t vars) : vars_(vars) {}
  [[nodiscard]] std::size_t n_vars() const override { return vars_; }
  [[nodiscard]] std::size_t n_objectives() const override { return 2; }
  [[nodiscard]] std::int64_t cardinality(std::size_t) const override { return 1024; }
  [[nodiscard]] opt::Objectives evaluate(const opt::Genome& g) override {
    double sum = 0.0;
    for (auto v : g) sum += static_cast<double>(v);
    return {sum, static_cast<double>(g[0]) - sum / static_cast<double>(g.size())};
  }

 private:
  std::size_t vars_;
};

void BM_Nsga2FullRun(benchmark::State& state) {
  for (auto _ : state) {
    SyntheticProblem problem(static_cast<std::size_t>(state.range(0)));
    opt::Nsga2Config config;
    config.population_size = 40;
    config.max_generations = 20;
    config.seed = 3;
    opt::Nsga2 solver(config);
    benchmark::DoNotOptimize(solver.run(problem));
  }
}
BENCHMARK(BM_Nsga2FullRun)->Arg(2)->Arg(8)->Arg(32);

void BM_Hypervolume(benchmark::State& state) {
  auto objs = random_objectives(static_cast<std::size_t>(state.range(0)), 3, 5);
  const opt::Objectives ref = {1.1, 1.1, 1.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::hypervolume(objs, ref));
  }
}
BENCHMARK(BM_Hypervolume)->Range(8, 64);

}  // namespace
