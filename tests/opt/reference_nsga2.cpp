// Verbatim copy of the pre-ask/tell generational NSGA-II (see
// reference_nsga2.hpp).
#include "tests/opt/reference_nsga2.hpp"

#include <algorithm>
#include <numeric>
#include <set>

namespace dovado::opt::reference {

namespace {

/// Genome-level duplicate detection set.
using GenomeSet = std::set<Genome>;

/// Mate two parents: integer SBX, then the paper's mutation on each child.
void mate(const Problem& problem, const Genome& parent_a, const Genome& parent_b,
          util::Rng& rng, Genome& child_a, Genome& child_b) {
  sbx_integer(problem, parent_a, parent_b, kCrossoverEta, kCrossoverProbVar, rng, child_a,
              child_b);
  gaussian_mutation(problem, child_a, kMutationMean, kMutationSigma, kMutationStepFraction,
                    rng);
  gaussian_mutation(problem, child_b, kMutationMean, kMutationSigma, kMutationStepFraction,
                    rng);
}

/// Initial candidate genomes: seeded genomes first (repaired, deduplicated),
/// then integer random sampling with duplicate elimination. A space smaller
/// than the population cannot fill it with uniques, so sampling gives up
/// after 200 consecutive duplicates or once the whole volume is seen.
/// `seen` accumulates every genome produced.
std::vector<Genome> sample_initial(Problem& problem, const Nsga2Config& config,
                                   util::Rng& rng, GenomeSet& seen) {
  std::vector<Genome> initial;
  initial.reserve(config.population_size);
  for (Genome g : config.initial_genomes) {
    if (initial.size() >= config.population_size) break;
    g.resize(problem.n_vars(), 0);
    problem.repair(g);
    if (!seen.insert(g).second) continue;
    initial.push_back(std::move(g));
  }
  const std::int64_t volume = problem.volume();
  int stale = 0;
  while (initial.size() < config.population_size) {
    Genome g = random_genome(problem, rng);
    if (!seen.insert(g).second) {
      if (++stale > 200 || static_cast<std::int64_t>(seen.size()) >= volume) break;
      continue;
    }
    stale = 0;
    initial.push_back(std::move(g));
  }
  return initial;
}

}  // namespace

void Nsga2::evaluate_all(Problem& problem, std::vector<Individual>& individuals,
                         std::size_t& evaluations) {
  if (config_.batch_evaluate) {
    // Count what the engine says it actually evaluated, not what we handed
    // it: deadline-cut and fast-failed points receive penalty objectives
    // without consuming an evaluation and must not inflate the tally.
    evaluations += config_.batch_evaluate(problem, individuals);
    for (auto& ind : individuals) ind.evaluated = true;
    return;
  }
  for (auto& ind : individuals) {
    if (!ind.evaluated) {
      ind.objectives = problem.evaluate(ind.genome);
      ind.evaluated = true;
      ++evaluations;
    }
  }
}

void assign_rank_crowding(std::vector<Individual>& population) {
  std::vector<Objectives> objs;
  objs.reserve(population.size());
  for (const auto& ind : population) objs.push_back(ind.objectives);
  const auto fronts = fast_non_dominated_sort(objs);
  for (std::size_t f = 0; f < fronts.size(); ++f) {
    const auto crowding = crowding_distance(objs, fronts[f]);
    for (std::size_t i = 0; i < fronts[f].size(); ++i) {
      population[fronts[f][i]].rank = static_cast<int>(f);
      population[fronts[f][i]].crowding = crowding[i];
    }
  }
}

std::vector<Individual> Nsga2::make_offspring(const Problem& problem,
                                              const std::vector<Individual>& population,
                                              util::Rng& rng) const {
  GenomeSet existing;
  for (const auto& ind : population) existing.insert(ind.genome);

  const std::size_t n = population.size();
  std::vector<Individual> offspring;
  offspring.reserve(config_.population_size);

  while (offspring.size() < config_.population_size) {
    const std::size_t before = offspring.size();
    Genome child_a;
    Genome child_b;
    bool accepted = false;
    for (int attempt = 0; attempt < kDuplicateRetries; ++attempt) {
      const std::size_t p1 =
          tournament(population, rng.index(n), rng.index(n), rng);
      const std::size_t p2 =
          tournament(population, rng.index(n), rng.index(n), rng);
      mate(problem, population[p1].genome, population[p2].genome, rng, child_a, child_b);
      if (existing.count(child_a) == 0 || existing.count(child_b) == 0) {
        accepted = true;
        break;
      }
    }
    if (!accepted) {
      // Mating keeps producing known genomes: inject a random immigrant to
      // preserve diversity instead of spinning.
      child_a = random_genome(problem, rng);
      child_b = random_genome(problem, rng);
    }
    for (Genome* g : {&child_a, &child_b}) {
      if (offspring.size() >= config_.population_size) break;
      if (!existing.insert(*g).second) continue;
      Individual ind;
      ind.genome = *g;
      offspring.push_back(std::move(ind));
    }
    // Tiny/exhausted spaces: every remaining genome is a duplicate. Accept
    // one duplicate to guarantee forward progress (pymoo pads the offspring
    // the same way when elimination cannot fill the population).
    if (offspring.size() == before) {
      Individual ind;
      ind.genome = std::move(child_a);
      offspring.push_back(std::move(ind));
    }
  }
  return offspring;
}

std::vector<Individual> Nsga2::survive(
    std::vector<Individual>& merged, const std::vector<Objectives>& objs,
    const std::vector<std::vector<std::size_t>>& fronts) const {
  const std::size_t capacity = config_.population_size;
  std::vector<Individual> next;
  next.reserve(capacity);

  // Fronts in rank order, each best-crowded first, until the population is
  // full: the last front that fits only in part is truncated by crowding.
  for (std::size_t f = 0; f < fronts.size() && next.size() < capacity; ++f) {
    const std::vector<double> crowding = crowding_distance(objs, fronts[f]);
    std::vector<std::size_t> order(fronts[f].size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return crowding[a] > crowding[b]; });
    for (std::size_t i : order) {
      if (next.size() >= capacity) break;
      merged[fronts[f][i]].crowding = crowding[i];
      next.push_back(merged[fronts[f][i]]);
    }
  }
  return next;
}

Nsga2Result Nsga2::run(Problem& problem) {
  Nsga2Result result;
  util::Rng rng(config_.seed);

  GenomeSet seen;
  std::vector<Individual> population;
  population.reserve(config_.population_size);
  for (Genome& g : sample_initial(problem, config_, rng, seen)) {
    Individual ind;
    ind.genome = std::move(g);
    population.push_back(std::move(ind));
  }

  evaluate_all(problem, population, result.evaluations);
  assign_rank_crowding(population);

  for (std::size_t gen = 0; gen < config_.max_generations; ++gen) {
    if (config_.should_stop && config_.should_stop()) break;

    std::vector<Individual> offspring = make_offspring(problem, population, rng);
    evaluate_all(problem, offspring, result.evaluations);

    // (mu + lambda) elitist survival.
    std::vector<Individual> merged;
    merged.reserve(population.size() + offspring.size());
    for (auto& ind : population) merged.push_back(std::move(ind));
    for (auto& ind : offspring) merged.push_back(std::move(ind));

    std::vector<Objectives> objs;
    objs.reserve(merged.size());
    for (const auto& ind : merged) objs.push_back(ind.objectives);
    const auto fronts = fast_non_dominated_sort(objs);

    population = survive(merged, objs, fronts);
    assign_rank_crowding(population);
    ++result.generations_run;
    if (config_.on_generation) config_.on_generation(gen, population);
  }

  result.pareto_front = pareto_subset(population);
  result.population = std::move(population);
  return result;
}

}  // namespace dovado::opt::reference
