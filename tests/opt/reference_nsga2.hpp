// The generational NSGA-II as it was before it became an ask/tell searcher:
// Nsga2::run's generation loop with its batch_evaluate / should_stop /
// on_generation callbacks, copied verbatim into namespace
// dovado::opt::reference. nsga2_differential_test.cpp runs it as the oracle
// for opt::GenerationalNsga2; a deliberate change to the searcher's
// sampling, mating or survival must change both.
#pragma once

#include <functional>
#include <vector>

#include "src/opt/nds.hpp"
#include "src/opt/operators.hpp"
#include "src/opt/problem.hpp"

namespace dovado::opt::reference {

struct Nsga2Config {
  std::size_t population_size = 40;
  std::size_t max_generations = 50;
  std::uint64_t seed = 1;

  /// Genomes injected into the initial population before random sampling
  /// (repaired into the domain, deduplicated). Used to continue a previous
  /// exploration from its front instead of restarting cold.
  std::vector<Genome> initial_genomes;

  /// Optional early-termination check, polled once per generation (used for
  /// the paper's wall-clock soft deadline on the genetic algorithm).
  std::function<bool()> should_stop;

  /// Optional batch evaluator: evaluate all unevaluated individuals in the
  /// span (e.g. in parallel, or through the approximation control model) and
  /// return how many of them actually received a genuine score from some
  /// evaluation source. Individuals the engine only penalty-scored without
  /// consuming an evaluation (deadline cuts, unhedged fast-fails) must not
  /// be counted — Nsga2Result::evaluations sums exactly these return values.
  /// Defaults to sequentially calling Problem::evaluate.
  std::function<std::size_t(Problem&, std::vector<Individual>&)> batch_evaluate;

  /// Optional per-generation observer (generation index, population after
  /// survival).
  std::function<void(std::size_t, const std::vector<Individual>&)> on_generation;
};

/// Result of one NSGA-II run.
struct Nsga2Result {
  std::vector<Individual> population;       ///< final population (ranked)
  std::vector<Individual> pareto_front;     ///< rank-0 subset, duplicates removed
  std::size_t generations_run = 0;
  std::size_t evaluations = 0;              ///< Problem::evaluate calls issued
};

class Nsga2 {
 public:
  explicit Nsga2(Nsga2Config config) : config_(std::move(config)) {}

  /// Run the algorithm on a problem.
  [[nodiscard]] Nsga2Result run(Problem& problem);

 private:
  void evaluate_all(Problem& problem, std::vector<Individual>& individuals,
                    std::size_t& evaluations);
  [[nodiscard]] std::vector<Individual> make_offspring(
      const Problem& problem, const std::vector<Individual>& population, util::Rng& rng) const;

  /// (mu + lambda) survival: standard elitist truncation by rank, then
  /// crowding distance.
  [[nodiscard]] std::vector<Individual> survive(
      std::vector<Individual>& merged, const std::vector<Objectives>& objs,
      const std::vector<std::vector<std::size_t>>& fronts) const;

  Nsga2Config config_;
};

/// Recompute rank and crowding distance for every member of `population`.
void assign_rank_crowding(std::vector<Individual>& population);

}  // namespace dovado::opt::reference
