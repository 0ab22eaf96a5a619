// NSGA-II: elitist non-dominated sorting genetic algorithm (Deb et al. 2002).
//
// This is the paper's DSE solver (Sec. III-B.1): elite-preserving, requires
// no domain knowledge of the search space or metrics, and the sorting by
// non-domination keeps the bookkeeping cheap. The operators are the paper's
// Sec. IV setup, fixed (constants in opt/operators.hpp): integer random
// sampling, integer SBX, duplicate elimination, Gaussian-probability
// mutation.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <set>

#include "src/opt/nds.hpp"
#include "src/opt/operators.hpp"
#include "src/opt/optimizer_base.hpp"
#include "src/opt/problem.hpp"

namespace dovado::opt {

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

/// Recompute rank and crowding distance for every member of `population`
/// via one fast non-dominated sort (shared by the generational and the
/// steady-state engines).
void assign_rank_crowding(std::vector<Individual>& population);

/// Steady-state (mu+1) NSGA-II as an ask/tell searcher.
///
/// The generational `Nsga2` evaluates offspring in lambda-sized barriers —
/// one slow point stalls the whole batch. This class inverts control: the
/// caller pulls candidate genomes with ask() (as many as it wants inflight),
/// evaluates them at its own pace, and pushes results back with tell().
/// Survival is per-completion: each tell() inserts the individual and, once
/// the population exceeds `population_size`, drops the single worst member
/// (last non-dominated front, minimum crowding). With a deterministic
/// completion order the whole trajectory is deterministic for a fixed seed.
///
/// Reuses Nsga2Config: population_size, seed and initial_genomes behave as
/// in the generational engine, and so do the fixed operators and duplicate
/// elimination; max_generations / should_stop / batch_evaluate / on_generation
/// are ignored (budgeting and observation belong to the caller).
///
/// Registered as "nsga2" in opt::OptimizerRegistry (see opt/optimizer.hpp).
class SteadyStateNsga2 final : public Optimizer {
 public:
  /// Builds the initial candidate list (seeded genomes repaired and
  /// deduplicated, then random sampling) exactly as Nsga2::run does.
  SteadyStateNsga2(Nsga2Config config, Problem& problem);

  [[nodiscard]] const OptimizerInfo& info() const override;

  /// Next genome to evaluate: initial candidates first, then mated
  /// offspring (tournament + SBX + mutation with duplicate retries, random
  /// immigrants when mating keeps producing known genomes). Never blocks;
  /// always returns a genome, accepting a duplicate only when the space is
  /// exhausted.
  [[nodiscard]] Genome ask() override;

  /// Report an evaluated genome. Inserts it into the population and applies
  /// (mu+1) survival; rank/crowding are reassigned on every call. The
  /// cost is bookkeeping the GA itself does not use.
  void tell(const Genome& genome, const Objectives& objectives,
            double cost_seconds = 0.0) override;

  /// Register a genome as already handed out (e.g. an inflight point
  /// replayed from a journal on resume) so ask() will not produce it again.
  void reserve(const Genome& genome) override;

  /// Duplicate-free rank-0 subset of the current population.
  [[nodiscard]] std::vector<Individual> front() const override {
    return pareto_subset(population_);
  }

  /// Current population, ranked (size grows to population_size, then stays).
  [[nodiscard]] const std::vector<Individual>& population() const noexcept {
    return population_;
  }

  /// Number of tell() calls so far.
  [[nodiscard]] std::size_t told() const noexcept override { return told_; }

 private:
  [[nodiscard]] Genome make_one_offspring();

  Nsga2Config config_;
  Problem& problem_;
  util::Rng rng_;
  std::vector<Genome> initial_;    ///< handed out before any mating
  std::size_t initial_next_ = 0;
  std::deque<Genome> pending_;     ///< second child of each mating, queued
  std::set<Genome> seen_;          ///< genomes handed out (duplicate filter)
  std::set<Genome> reserved_;      ///< replayed points ask() must skip
  std::vector<Individual> population_;
  std::size_t told_ = 0;
};

}  // namespace dovado::opt
