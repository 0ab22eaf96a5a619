#include "src/opt/nsga2.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

namespace dovado::opt {

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

/// Both NSGA-II searchers answer to the same name and capabilities.
const OptimizerInfo& nsga2_info() {
  static const OptimizerInfo kInfo{/*name=*/"nsga2", /*elitist=*/true,
                                   /*uses_seeds=*/true, /*uses_surrogate=*/false,
                                   /*composite=*/false};
  return kInfo;
}

}  // namespace

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

namespace {

/// One offspring batch of `size` members: binary tournaments, SBX and
/// mutation, eliminating duplicates of the population and of each other.
std::vector<Individual> make_offspring(const Problem& problem,
                                       const std::vector<Individual>& population,
                                       std::size_t size, util::Rng& rng) {
  GenomeSet existing;
  for (const auto& ind : population) existing.insert(ind.genome);

  const std::size_t n = population.size();
  std::vector<Individual> offspring;
  offspring.reserve(size);

  while (offspring.size() < size) {
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
      if (offspring.size() >= size) break;
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

/// (mu + lambda) survival: standard elitist truncation by rank, then
/// crowding distance.
std::vector<Individual> survive(std::vector<Individual>& merged,
                                const std::vector<Objectives>& objs,
                                const std::vector<std::vector<std::size_t>>& fronts,
                                std::size_t capacity) {
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

}  // namespace

GenerationalNsga2::GenerationalNsga2(Nsga2Config config, Problem& problem)
    : config_(std::move(config)), problem_(problem), rng_(config_.seed) {
  GenomeSet seen;
  for (Genome& g : sample_initial(problem_, config_, rng_, seen)) {
    Individual ind;
    ind.genome = std::move(g);
    batch_.push_back(std::move(ind));
  }
}

const OptimizerInfo& GenerationalNsga2::info() const { return nsga2_info(); }

Genome GenerationalNsga2::ask() {
  if (waiting()) {
    throw std::logic_error("GenerationalNsga2::ask() while waiting for tells");
  }
  return batch_[asked_++].genome;
}

void GenerationalNsga2::tell(const Genome& genome, const Objectives& objectives,
                             double /*cost_seconds*/) {
  ++told_;
  for (std::size_t i = 0; i < asked_; ++i) {
    Individual& member = batch_[i];
    if (member.evaluated || member.genome != genome) continue;
    member.objectives = objectives;
    member.evaluated = true;
    if (++answered_ == batch_.size()) close_generation();
    return;
  }
}

void GenerationalNsga2::close_generation() {
  if (population_.empty()) {
    population_ = std::move(batch_);  // the initial population
  } else {
    // (mu + lambda) elitist survival over the population and the offspring
    // in ask order.
    std::vector<Individual> merged;
    merged.reserve(population_.size() + batch_.size());
    for (auto& ind : population_) merged.push_back(std::move(ind));
    for (auto& ind : batch_) merged.push_back(std::move(ind));

    std::vector<Objectives> objs;
    objs.reserve(merged.size());
    for (const auto& ind : merged) objs.push_back(ind.objectives);
    const auto fronts = fast_non_dominated_sort(objs);
    population_ = survive(merged, objs, fronts, config_.population_size);
    ++generations_;
  }
  assign_rank_crowding(population_);
  batch_.clear();
  if (generations_ < config_.max_generations) {
    batch_ = make_offspring(problem_, population_, config_.population_size, rng_);
  }
  asked_ = 0;
  answered_ = 0;
}

Nsga2Result Nsga2::run(Problem& problem) {
  GenerationalNsga2 searcher(config_, problem);
  Nsga2Result result;
  std::vector<Genome> generation;
  while (!searcher.waiting()) {
    generation.clear();
    while (!searcher.waiting()) generation.push_back(searcher.ask());
    for (const Genome& g : generation) {
      searcher.tell(g, problem.evaluate(g));
      ++result.evaluations;
    }
  }
  result.population = searcher.population();
  result.pareto_front = pareto_subset(result.population);
  result.generations_run = searcher.generations();
  return result;
}

SteadyStateNsga2::SteadyStateNsga2(Nsga2Config config, Problem& problem)
    : config_(std::move(config)), problem_(problem), rng_(config_.seed) {
  initial_ = sample_initial(problem_, config_, rng_, seen_);
  population_.reserve(config_.population_size + 1);
}

const OptimizerInfo& SteadyStateNsga2::info() const { return nsga2_info(); }

Genome SteadyStateNsga2::make_one_offspring() {
  // Mating needs parents; until at least two individuals have been told
  // back (e.g. while the initial candidates are still inflight), fall back
  // to random immigrants so ask() never blocks on completions.
  if (population_.size() < 2) {
    for (int attempt = 0; attempt < kDuplicateRetries; ++attempt) {
      Genome g = random_genome(problem_, rng_);
      if (seen_.count(g) == 0) return g;
    }
    return random_genome(problem_, rng_);
  }

  const std::size_t n = population_.size();
  Genome child_a;
  Genome child_b;
  for (int attempt = 0; attempt < kDuplicateRetries; ++attempt) {
    const std::size_t p1 = tournament(population_, rng_.index(n), rng_.index(n), rng_);
    const std::size_t p2 = tournament(population_, rng_.index(n), rng_.index(n), rng_);
    mate(problem_, population_[p1].genome, population_[p2].genome, rng_, child_a, child_b);
    const bool a_fresh = seen_.count(child_a) == 0;
    const bool b_fresh = seen_.count(child_b) == 0;
    if (a_fresh && b_fresh) {
      // Queue the sibling instead of discarding half of every mating.
      pending_.push_back(child_b);
      return child_a;
    }
    if (a_fresh) return child_a;
    if (b_fresh) return child_b;
  }
  // Mating keeps producing known genomes: random immigrant, and if even
  // those are exhausted (tiny space) accept the duplicate child to
  // guarantee forward progress, mirroring the generational engine.
  for (int attempt = 0; attempt < kDuplicateRetries; ++attempt) {
    Genome g = random_genome(problem_, rng_);
    if (seen_.count(g) == 0) return g;
  }
  return child_a;
}

Genome SteadyStateNsga2::ask() {
  // Initial candidates are pre-inserted into seen_ at sampling time, so a
  // separate reserved_ check keeps replayed points from being re-asked.
  while (initial_next_ < initial_.size()) {
    Genome g = initial_[initial_next_++];
    if (reserved_.count(g) != 0) continue;
    return g;
  }
  while (!pending_.empty()) {
    Genome g = std::move(pending_.front());
    pending_.pop_front();
    // A queued sibling may have been asked or reserved since it was mated.
    if (seen_.count(g) == 0 && reserved_.count(g) == 0) {
      seen_.insert(g);
      return g;
    }
  }
  Genome g = make_one_offspring();
  seen_.insert(g);
  return g;
}

void SteadyStateNsga2::reserve(const Genome& genome) {
  seen_.insert(genome);
  reserved_.insert(genome);
}

void SteadyStateNsga2::tell(const Genome& genome, const Objectives& objectives,
                            double /*cost_seconds*/) {
  ++told_;
  Individual ind;
  ind.genome = genome;
  ind.objectives = objectives;
  ind.evaluated = true;
  population_.push_back(std::move(ind));

  if (population_.size() > config_.population_size) {
    // (mu+1) survival: drop the single worst member — last non-dominated
    // front, minimum crowding (first such index for determinism).
    std::vector<Objectives> objs;
    objs.reserve(population_.size());
    for (const auto& member : population_) objs.push_back(member.objectives);
    const auto fronts = fast_non_dominated_sort(objs);
    const auto& last = fronts.back();
    const auto crowding = crowding_distance(objs, last);
    std::size_t worst = 0;
    for (std::size_t i = 1; i < last.size(); ++i) {
      if (crowding[i] < crowding[worst]) worst = i;
    }
    population_.erase(population_.begin() + static_cast<std::ptrdiff_t>(last[worst]));
  }
  assign_rank_crowding(population_);
}

}  // namespace dovado::opt
