#include "src/opt/nsga2.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>

#include "src/opt/baselines.hpp"
#include "src/opt/indicators.hpp"

namespace dovado::opt {
namespace {

/// Discrete bi-objective benchmark with a known convex front:
/// f1 = x/N, f2 = (1 - x/N)^2 + y/M (minimize both). The true front is
/// y = 0, any x.
class ConvexProblem final : public Problem {
 public:
  ConvexProblem(std::int64_t nx, std::int64_t ny) : nx_(nx), ny_(ny) {}
  [[nodiscard]] std::size_t n_vars() const override { return 2; }
  [[nodiscard]] std::size_t n_objectives() const override { return 2; }
  [[nodiscard]] std::int64_t cardinality(std::size_t var) const override {
    return var == 0 ? nx_ : ny_;
  }
  [[nodiscard]] Objectives evaluate(const Genome& g) override {
    ++evaluations;
    const double x = static_cast<double>(g[0]) / static_cast<double>(nx_ - 1);
    const double y = static_cast<double>(g[1]) / static_cast<double>(ny_ - 1);
    return {x, (1.0 - x) * (1.0 - x) + y};
  }
  std::atomic<std::size_t> evaluations{0};

 private:
  std::int64_t nx_;
  std::int64_t ny_;
};

Nsga2Config small_config(std::uint64_t seed = 1) {
  Nsga2Config config;
  config.population_size = 24;
  config.max_generations = 30;
  config.seed = seed;
  return config;
}

TEST(Nsga2, ConvergesToLowYFront) {
  ConvexProblem problem(64, 64);
  Nsga2 solver(small_config());
  const auto result = solver.run(problem);
  ASSERT_FALSE(result.pareto_front.empty());
  // The true Pareto set has y = 0; allow tiny residual on a discrete grid.
  double mean_y = 0.0;
  for (const auto& ind : result.pareto_front) {
    mean_y += static_cast<double>(ind.genome[1]);
  }
  mean_y /= static_cast<double>(result.pareto_front.size());
  EXPECT_LT(mean_y, 3.0);
}

TEST(Nsga2, FrontIsMutuallyNonDominated) {
  ConvexProblem problem(64, 64);
  Nsga2 solver(small_config(7));
  const auto result = solver.run(problem);
  for (const auto& a : result.pareto_front) {
    for (const auto& b : result.pareto_front) {
      EXPECT_FALSE(dominates(a.objectives, b.objectives));
    }
  }
}

TEST(Nsga2, DeterministicForSameSeed) {
  auto run_with = [](std::uint64_t seed) {
    ConvexProblem problem(32, 32);
    Nsga2 solver(small_config(seed));
    return solver.run(problem);
  };
  const auto a = run_with(5);
  const auto b = run_with(5);
  ASSERT_EQ(a.pareto_front.size(), b.pareto_front.size());
  for (std::size_t i = 0; i < a.pareto_front.size(); ++i) {
    EXPECT_EQ(a.pareto_front[i].genome, b.pareto_front[i].genome);
  }
  // Different seeds explore different populations (the final *fronts* may
  // coincide on a small problem, so compare the full populations).
  const auto c = run_with(6);
  std::set<Genome> pop_a;
  std::set<Genome> pop_c;
  for (const auto& ind : a.population) pop_a.insert(ind.genome);
  for (const auto& ind : c.population) pop_c.insert(ind.genome);
  EXPECT_NE(pop_a, pop_c);
}

/// Drive a GenerationalNsga2 generation by generation (ask the whole
/// generation, evaluate, tell) and hand the population after every
/// survival to `observe`. Returns how many generations were asked.
template <typename Observe>
std::size_t drive_generations(GenerationalNsga2& searcher, Problem& problem, Observe observe) {
  std::size_t batches = 0;
  while (!searcher.waiting()) {
    std::vector<Genome> generation;
    while (!searcher.waiting()) generation.push_back(searcher.ask());
    ++batches;
    const std::size_t before = searcher.generations();
    for (const Genome& g : generation) searcher.tell(g, problem.evaluate(g));
    if (searcher.generations() > before) observe(searcher.population());
  }
  return batches;
}

TEST(Nsga2, ElitismNeverLosesTheBestExtremes) {
  ConvexProblem problem(64, 64);
  GenerationalNsga2 searcher(small_config(3), problem);
  double best_f1_seen = 1e18;
  double best_f1_final = 1e18;
  (void)drive_generations(searcher, problem, [&](const std::vector<Individual>& pop) {
    for (const auto& ind : pop) {
      best_f1_seen = std::min(best_f1_seen, ind.objectives[0]);
    }
  });
  for (const auto& ind : searcher.population()) {
    best_f1_final = std::min(best_f1_final, ind.objectives[0]);
  }
  EXPECT_DOUBLE_EQ(best_f1_final, best_f1_seen);
}

TEST(Nsga2, PopulationSizeStable) {
  ConvexProblem problem(64, 64);
  const Nsga2Config config = small_config();
  GenerationalNsga2 searcher(config, problem);
  std::size_t generations = 0;
  (void)drive_generations(searcher, problem, [&](const std::vector<Individual>& pop) {
    ++generations;
    EXPECT_EQ(pop.size(), config.population_size);
  });
  EXPECT_EQ(generations, config.max_generations);
}

TEST(Nsga2, DuplicateEliminationHoldsInPopulation) {
  ConvexProblem problem(16, 16);
  Nsga2Config config = small_config(9);
  config.max_generations = 10;
  Nsga2 solver(config);
  const auto result = solver.run(problem);
  std::set<Genome> genomes;
  for (const auto& ind : result.pareto_front) {
    EXPECT_TRUE(genomes.insert(ind.genome).second) << "duplicate genome on the front";
  }
}

TEST(Nsga2, GenerationsAreAskedWhole) {
  // The initial population and every generation's offspring are handed out
  // as one batch each: ask() stops at the generation's end (waiting()), and
  // the next generation is proposed only once this one is fully told.
  ConvexProblem problem(32, 32);
  Nsga2Config config = small_config();
  config.max_generations = 5;
  GenerationalNsga2 searcher(config, problem);
  std::size_t told = 0;
  while (!searcher.waiting()) {
    std::vector<Genome> generation;
    while (!searcher.waiting()) generation.push_back(searcher.ask());
    EXPECT_EQ(generation.size(), config.population_size);
    for (std::size_t i = 0; i < generation.size(); ++i) {
      if (i + 1 < generation.size()) {
        searcher.tell(generation[i], problem.evaluate(generation[i]));
        EXPECT_TRUE(searcher.waiting()) << "generation closed before its last tell";
      } else {
        searcher.tell(generation[i], problem.evaluate(generation[i]));
      }
      ++told;
    }
  }
  EXPECT_EQ(searcher.generations(), config.max_generations);
  EXPECT_EQ(searcher.told(), told);
  EXPECT_EQ(told, config.population_size * (config.max_generations + 1));
  EXPECT_THROW((void)searcher.ask(), std::logic_error);  // the search is over
  EXPECT_FALSE(searcher.front().empty());
}

TEST(Nsga2, EvaluationsCountProblemEvaluateCalls) {
  // Nsga2::run reports exactly the Problem::evaluate calls it issued.
  ConvexProblem problem(32, 32);
  Nsga2Config config = small_config();
  config.max_generations = 3;
  Nsga2 solver(config);
  const auto result = solver.run(problem);
  EXPECT_EQ(result.evaluations, problem.evaluations.load());
  EXPECT_EQ(result.evaluations, config.population_size * (config.max_generations + 1));
  EXPECT_EQ(result.generations_run, config.max_generations);
}

TEST(Nsga2, TellsOfUnaskedGenomesLeaveThePopulationAlone) {
  // A journaled point replayed on resume is told without having been asked
  // in this generation: it is counted, but only asked members survive.
  ConvexProblem problem(32, 32);
  Nsga2Config config = small_config(4);
  config.max_generations = 1;
  GenerationalNsga2 searcher(config, problem);
  std::vector<Genome> generation;
  while (!searcher.waiting()) generation.push_back(searcher.ask());
  const Genome stranger = {31, 31};
  ASSERT_EQ(std::count(generation.begin(), generation.end(), stranger), 0);
  searcher.tell(stranger, problem.evaluate(stranger));
  for (const Genome& g : generation) searcher.tell(g, problem.evaluate(g));
  EXPECT_EQ(searcher.told(), generation.size() + 1);
  ASSERT_EQ(searcher.population().size(), generation.size());
  for (const auto& ind : searcher.population()) EXPECT_NE(ind.genome, stranger);
}

TEST(SteadyStateNsga2, AskTellConvergesOnTinySpace) {
  ConvexProblem problem(8, 8);
  const auto truth = exhaustive_search(problem);
  ConvexProblem ss_problem(8, 8);
  Nsga2Config config = small_config(13);
  config.population_size = 16;
  SteadyStateNsga2 searcher(config, ss_problem);
  for (int i = 0; i < 480; ++i) {
    const Genome g = searcher.ask();
    searcher.tell(g, ss_problem.evaluate(g));
  }
  std::vector<Objectives> truth_objs;
  for (const auto& ind : truth.pareto_front) truth_objs.push_back(ind.objectives);
  std::vector<Objectives> found_objs;
  for (const auto& ind : pareto_subset(searcher.population())) {
    found_objs.push_back(ind.objectives);
  }
  EXPECT_LT(igd(found_objs, truth_objs), 0.02);
}

TEST(SteadyStateNsga2, DeterministicForFixedSeedAndOrder) {
  auto trajectory = [] {
    ConvexProblem problem(64, 64);
    Nsga2Config config = small_config(23);
    SteadyStateNsga2 searcher(config, problem);
    std::vector<Genome> asked;
    for (int i = 0; i < 120; ++i) {
      Genome g = searcher.ask();
      searcher.tell(g, problem.evaluate(g));
      asked.push_back(std::move(g));
    }
    return asked;
  };
  EXPECT_EQ(trajectory(), trajectory());
}

TEST(SteadyStateNsga2, PopulationBoundedAndUnique) {
  ConvexProblem problem(64, 64);
  Nsga2Config config = small_config(7);
  SteadyStateNsga2 searcher(config, problem);
  std::set<Genome> handed_out;
  for (int i = 0; i < 200; ++i) {
    const Genome g = searcher.ask();
    EXPECT_TRUE(handed_out.insert(g).second) << "duplicate genome asked at step " << i;
    searcher.tell(g, problem.evaluate(g));
    EXPECT_LE(searcher.population().size(), config.population_size);
  }
  EXPECT_EQ(searcher.told(), 200u);
}

TEST(SteadyStateNsga2, ReserveSuppressesReplayedGenomes) {
  ConvexProblem problem(64, 64);
  Nsga2Config config = small_config(7);

  // Discover what the searcher would hand out first, then reserve it in a
  // fresh searcher: it must never be asked again.
  Genome first;
  {
    ConvexProblem p(64, 64);
    SteadyStateNsga2 probe(config, p);
    first = probe.ask();
  }
  SteadyStateNsga2 searcher(config, problem);
  searcher.reserve(first);
  for (int i = 0; i < 100; ++i) {
    const Genome g = searcher.ask();
    EXPECT_NE(g, first) << "reserved genome re-asked at step " << i;
    searcher.tell(g, problem.evaluate(g));
  }
}

TEST(Nsga2, TinySearchSpaceFindsTrueFront) {
  // Exhaustive ground truth comparison on a 8x8 space.
  ConvexProblem problem(8, 8);
  const auto truth = exhaustive_search(problem);
  ConvexProblem ga_problem(8, 8);
  Nsga2Config config = small_config(13);
  config.population_size = 16;
  config.max_generations = 30;
  Nsga2 solver(config);
  const auto result = solver.run(ga_problem);

  std::vector<Objectives> truth_objs;
  for (const auto& ind : truth.pareto_front) truth_objs.push_back(ind.objectives);
  std::vector<Objectives> found_objs;
  for (const auto& ind : result.pareto_front) found_objs.push_back(ind.objectives);
  EXPECT_LT(igd(found_objs, truth_objs), 0.02);
}

TEST(Nsga2, MoreGenerationsNoWorseHypervolume) {
  const Objectives ref = {1.5, 2.5};
  auto hv_after = [&](std::size_t gens) {
    ConvexProblem problem(128, 128);
    Nsga2Config config = small_config(17);
    config.max_generations = gens;
    Nsga2 solver(config);
    const auto result = solver.run(problem);
    std::vector<Objectives> objs;
    for (const auto& ind : result.pareto_front) objs.push_back(ind.objectives);
    return hypervolume(objs, ref);
  };
  const double early = hv_after(2);
  const double late = hv_after(40);
  EXPECT_GE(late, early - 1e-9);
  EXPECT_GT(late, 0.5);  // sanity: the front covers a real area
}

TEST(Nsga2, SingleObjectiveDegeneratesToMinimum) {
  // With one metric the paper notes the optimizer "would yield only the
  // degenerative case, i.e., the smallest design possible".
  class SingleObj final : public Problem {
   public:
    [[nodiscard]] std::size_t n_vars() const override { return 1; }
    [[nodiscard]] std::size_t n_objectives() const override { return 1; }
    [[nodiscard]] std::int64_t cardinality(std::size_t) const override { return 100; }
    [[nodiscard]] Objectives evaluate(const Genome& g) override {
      return {static_cast<double>(g[0])};
    }
  };
  SingleObj problem;
  Nsga2Config config = small_config(23);
  Nsga2 solver(config);
  const auto result = solver.run(problem);
  ASSERT_EQ(result.pareto_front.size(), 1u);
  EXPECT_EQ(result.pareto_front[0].genome[0], 0);
}

TEST(ParetoSubset, RemovesDuplicatesAndDominated) {
  std::vector<Individual> pop(4);
  pop[0].genome = {1};
  pop[0].objectives = {1, 2};
  pop[1].genome = {1};
  pop[1].objectives = {1, 2};  // duplicate genome
  pop[2].genome = {2};
  pop[2].objectives = {2, 1};
  pop[3].genome = {3};
  pop[3].objectives = {3, 3};  // dominated
  const auto front = pareto_subset(pop);
  EXPECT_EQ(front.size(), 2u);
}

}  // namespace
}  // namespace dovado::opt
