// Differential test: opt::GenerationalNsga2, driven ask/tell with every
// generation told in shuffled order, against the pre-ask/tell generation
// loop kept verbatim in reference_nsga2.cpp. Both must ask the same
// generations, keep the same population after every generation (genomes,
// objectives, rank and crowding, in order) and return the same front.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "src/opt/nsga2.hpp"
#include "tests/opt/reference_nsga2.hpp"

namespace dovado::opt {
namespace {

/// Discrete bi-objective problem f1 = x, f2 = (1 - x)^2 + y on an nx by ny
/// grid (both minimized); small grids exhaust quickly.
class GridProblem final : public Problem {
 public:
  GridProblem(std::int64_t nx, std::int64_t ny) : nx_(nx), ny_(ny) {}
  [[nodiscard]] std::size_t n_vars() const override { return 2; }
  [[nodiscard]] std::size_t n_objectives() const override { return 2; }
  [[nodiscard]] std::int64_t cardinality(std::size_t var) const override {
    return var == 0 ? nx_ : ny_;
  }
  [[nodiscard]] Objectives evaluate(const Genome& g) override {
    const double x = static_cast<double>(g[0]) / static_cast<double>(std::max<std::int64_t>(1, nx_ - 1));
    const double y = static_cast<double>(g[1]) / static_cast<double>(std::max<std::int64_t>(1, ny_ - 1));
    return {x, (1.0 - x) * (1.0 - x) + y};
  }

 private:
  std::int64_t nx_;
  std::int64_t ny_;
};

/// What one run went through: the genomes of every evaluated batch (the
/// initial population, then each generation's offspring) and the
/// population after every survival, then the final front.
struct Trace {
  std::vector<std::vector<Genome>> batches;
  std::vector<std::vector<Individual>> populations;
  std::vector<Individual> front;
};

Trace run_reference(const Nsga2Config& config, Problem& problem) {
  reference::Nsga2Config ref;
  ref.population_size = config.population_size;
  ref.max_generations = config.max_generations;
  ref.seed = config.seed;
  ref.initial_genomes = config.initial_genomes;
  Trace trace;
  ref.batch_evaluate = [&trace](Problem& p, std::vector<Individual>& inds) -> std::size_t {
    std::vector<Genome> batch;
    for (auto& ind : inds) {
      if (ind.evaluated) continue;
      batch.push_back(ind.genome);
      ind.objectives = p.evaluate(ind.genome);
    }
    trace.batches.push_back(std::move(batch));
    return trace.batches.back().size();
  };
  ref.on_generation = [&trace](std::size_t, const std::vector<Individual>& population) {
    trace.populations.push_back(population);
  };
  const reference::Nsga2Result result = reference::Nsga2(ref).run(problem);
  trace.front = result.pareto_front;
  return trace;
}

/// Ask each generation whole, then tell it back in an order shuffled by
/// `shuffle_seed`.
Trace run_ask_tell(const Nsga2Config& config, Problem& problem, std::uint64_t shuffle_seed) {
  GenerationalNsga2 searcher(config, problem);
  std::mt19937_64 shuffler(shuffle_seed);
  Trace trace;
  while (!searcher.waiting()) {
    std::vector<Genome> batch;
    while (!searcher.waiting()) batch.push_back(searcher.ask());
    trace.batches.push_back(batch);
    std::vector<std::size_t> order(batch.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), shuffler);
    const std::size_t generations = searcher.generations();
    for (std::size_t k = 0; k < order.size(); ++k) {
      // The generation stays open until its last member is told.
      EXPECT_EQ(searcher.generations(), generations);
      searcher.tell(batch[order[k]], problem.evaluate(batch[order[k]]));
    }
    if (searcher.generations() > generations) trace.populations.push_back(searcher.population());
  }
  trace.front = searcher.front();
  return trace;
}

void expect_same_individuals(const std::vector<Individual>& expected,
                             const std::vector<Individual>& actual, const std::string& where) {
  ASSERT_EQ(expected.size(), actual.size()) << where;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].genome, actual[i].genome) << where << " member " << i;
    EXPECT_EQ(expected[i].objectives, actual[i].objectives) << where << " member " << i;
    EXPECT_EQ(expected[i].rank, actual[i].rank) << where << " member " << i;
    EXPECT_EQ(expected[i].crowding, actual[i].crowding) << where << " member " << i;
  }
}

void expect_same_trace(const Nsga2Config& config, std::int64_t nx, std::int64_t ny) {
  GridProblem reference_problem(nx, ny);
  const Trace expected = run_reference(config, reference_problem);
  for (std::uint64_t shuffle_seed : {1u, 2u, 3u}) {
    GridProblem problem(nx, ny);
    const Trace actual = run_ask_tell(config, problem, shuffle_seed);
    const std::string run = "seed " + std::to_string(config.seed) + " shuffle " +
                            std::to_string(shuffle_seed);
    EXPECT_EQ(expected.batches, actual.batches) << run;
    ASSERT_EQ(expected.populations.size(), actual.populations.size()) << run;
    for (std::size_t g = 0; g < expected.populations.size(); ++g) {
      expect_same_individuals(expected.populations[g], actual.populations[g],
                              run + " generation " + std::to_string(g));
    }
    expect_same_individuals(expected.front, actual.front, run + " front");
  }
}

Nsga2Config config_of(std::size_t population, std::size_t generations, std::uint64_t seed) {
  Nsga2Config config;
  config.population_size = population;
  config.max_generations = generations;
  config.seed = seed;
  return config;
}

TEST(GenerationalDifferential, MatchesTheGenerationLoopOnALargeSpace) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    expect_same_trace(config_of(24, 20, seed), 64, 64);
  }
}

TEST(GenerationalDifferential, MatchesTheGenerationLoopWithSeededGenomes) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Nsga2Config config = config_of(16, 12, seed);
    // Duplicates, a short genome (padded) and out-of-range genes (repaired):
    // the seeded part of the initial population is deduplicated after repair.
    config.initial_genomes = {{3, 4}, {3, 4}, {5}, {-2, 40}, {0, 31}, {31, 0}, {7, 7}};
    expect_same_trace(config, 32, 32);
  }
}

TEST(GenerationalDifferential, MatchesTheGenerationLoopWhenTheSpaceIsTooSmall) {
  // Six points for a population of ten: the initial batch has fewer than
  // lambda members, and every offspring batch pads itself with duplicates
  // of genomes already asked in the same generation.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_same_trace(config_of(10, 6, seed), 3, 2);
  }
  Nsga2Config seeded = config_of(8, 5, 9);
  seeded.initial_genomes = {{1, 1}, {0, 0}};
  expect_same_trace(seeded, 2, 2);
}

TEST(GenerationalDifferential, MatchesTheGenerationLoopWithoutGenerations) {
  expect_same_trace(config_of(12, 0, 5), 16, 16);
}

}  // namespace
}  // namespace dovado::opt
