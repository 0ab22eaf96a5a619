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
};

/// Result of one NSGA-II run.
struct Nsga2Result {
  std::vector<Individual> population;       ///< final population (ranked)
  std::vector<Individual> pareto_front;     ///< rank-0 subset, duplicates removed
  std::size_t generations_run = 0;
  std::size_t evaluations = 0;              ///< Problem::evaluate calls issued
};

/// Generational (mu + lambda) NSGA-II as an ask/tell searcher: the paper's
/// solver (DseEngine builds it directly when steady_state is off).
///
/// ask() hands out one generation at a time: the initial population
/// (seeded genomes repaired and deduplicated, then random sampling), then
/// each offspring batch of population_size (tournament + SBX + mutation
/// with duplicate elimination). waiting() is true from a generation's last
/// ask to its last tell, which closes it with elitist survival (truncation
/// by rank, then crowding). Survival merges population and offspring in ask
/// order, so tell order cannot change the result. After max_generations
/// survivals waiting() stays true: the search is over.
class GenerationalNsga2 final : public Optimizer {
 public:
  GenerationalNsga2(Nsga2Config config, Problem& problem);

  [[nodiscard]] const OptimizerInfo& info() const override;

  /// Next member of the current generation. Precondition: !waiting().
  [[nodiscard]] Genome ask() override;

  /// Score the first untold asked member with this genome. A genome this
  /// generation did not ask (a journaled point replayed on resume) is
  /// counted but does not enter the population.
  void tell(const Genome& genome, const Objectives& objectives,
            double cost_seconds = 0.0) override;

  /// No-op: a replayed genome asked again is answered by the caller's cache.
  void reserve(const Genome& genome) override { (void)genome; }

  [[nodiscard]] bool waiting() const override { return asked_ == batch_.size(); }

  [[nodiscard]] std::vector<Individual> front() const override {
    return pareto_subset(population_);
  }

  /// Population after the latest closed generation, ranked.
  [[nodiscard]] const std::vector<Individual>& population() const noexcept {
    return population_;
  }

  /// Survivals so far (the initial population is not a generation).
  [[nodiscard]] std::size_t generations() const noexcept { return generations_; }

  [[nodiscard]] std::size_t told() const noexcept override { return told_; }

 private:
  void close_generation();

  Nsga2Config config_;
  Problem& problem_;
  util::Rng rng_;
  std::vector<Individual> population_;
  std::vector<Individual> batch_;  ///< the current generation, in ask order
  std::size_t asked_ = 0;          ///< members of batch_ handed out
  std::size_t answered_ = 0;       ///< members of batch_ told
  std::size_t generations_ = 0;
  std::size_t told_ = 0;
};

/// Sequential driver for in-memory problems (benches, tests): asks each
/// generation of a GenerationalNsga2, evaluates it in ask order with
/// Problem::evaluate and tells it back.
class Nsga2 {
 public:
  explicit Nsga2(Nsga2Config config) : config_(std::move(config)) {}

  /// Run the algorithm on a problem.
  [[nodiscard]] Nsga2Result run(Problem& problem);

 private:
  Nsga2Config config_;
};

/// Recompute rank and crowding distance for every member of `population`
/// via one fast non-dominated sort (shared by both NSGA-II searchers).
void assign_rank_crowding(std::vector<Individual>& population);

/// Steady-state (mu+1) NSGA-II as an ask/tell searcher.
///
/// GenerationalNsga2 proposes nothing between a generation's last ask and
/// its last tell — one slow point stalls the whole generation. This class
/// never waits: the caller pulls candidate genomes with ask() (as many as it
/// wants inflight), evaluates them at its own pace, and pushes results back
/// with tell().
/// Survival is per-completion: each tell() inserts the individual and, once
/// the population exceeds `population_size`, drops the single worst member
/// (last non-dominated front, minimum crowding). With a deterministic
/// completion order the whole trajectory is deterministic for a fixed seed.
///
/// Reuses Nsga2Config: population_size, seed and initial_genomes behave as
/// in the generational searcher, and so do the fixed operators and
/// duplicate elimination; max_generations is ignored (budgeting belongs to
/// the caller).
///
/// Registered as "nsga2" in opt::OptimizerRegistry (see opt/optimizer.hpp).
class SteadyStateNsga2 final : public Optimizer {
 public:
  /// Builds the initial candidate list (seeded genomes repaired and
  /// deduplicated, then random sampling) exactly as GenerationalNsga2 does.
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
