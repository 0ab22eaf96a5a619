#include "src/opt/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "src/opt/nds.hpp"
#include "src/opt/operators.hpp"
#include "src/opt/portfolio.hpp"
#include "src/util/strings.hpp"
#include "src/util/sync.hpp"

namespace dovado::opt {

namespace {

/// Objectives carrying a failure penalty (or worse) say nothing about the
/// landscape; the incremental fronts the searchers climb from ignore them.
bool objectives_valid(const Objectives& objectives) {
  for (double v : objectives) {
    if (!std::isfinite(v) || std::abs(v) >= 1e17) return false;
  }
  return !objectives.empty();
}

}  // namespace

std::vector<MemberStats> Optimizer::member_stats() const {
  MemberStats stats;
  stats.name = info().name;
  stats.asks = told();
  stats.tells = told();
  return {stats};
}

// ---- ArchiveOptimizer ----------------------------------------------------

ArchiveOptimizer::ArchiveOptimizer(OptimizerInfo info, const OptimizerContext& ctx)
    : info_(std::move(info)), problem_(*ctx.problem), rng_(ctx.ga.seed) {
  // Warm-start genomes are handed out first, repaired and deduplicated the
  // same way SteadyStateNsga2 seeds its initial population.
  std::set<Genome> unique;
  for (Genome g : ctx.ga.initial_genomes) {
    g.resize(problem_.n_vars(), 0);
    problem_.repair(g);
    if (!unique.insert(g).second) continue;
    seeds_.push_back(std::move(g));
  }
}

Genome ArchiveOptimizer::ask() {
  while (seed_next_ < seeds_.size()) {
    Genome g = seeds_[seed_next_++];
    // Already asked or reserved (e.g. a replayed inflight point): skip.
    if (!seen_.insert(g).second) continue;
    return g;
  }
  Genome g = propose();
  seen_.insert(g);
  return g;
}

void ArchiveOptimizer::tell(const Genome& genome, const Objectives& objectives,
                            double /*cost_seconds*/) {
  ++told_;
  seen_.insert(genome);  // an evaluated genome must never be proposed again
  Individual ind;
  ind.genome = genome;
  ind.objectives = objectives;
  ind.evaluated = true;
  archive_.push_back(std::move(ind));
}

std::vector<Individual> ArchiveOptimizer::front() const {
  return pareto_subset(archive_);
}

Genome ArchiveOptimizer::random_distinct(int stale_limit) {
  const std::int64_t volume = problem_.volume();
  int stale = 0;
  while (true) {
    Genome g = random_genome(problem_, rng_);
    if (seen_.count(g) == 0) return g;
    if (++stale > stale_limit || static_cast<std::int64_t>(seen_.size()) >= volume) {
      return g;  // space effectively exhausted: accept the duplicate
    }
  }
}

// ---- RandomSearchOptimizer -----------------------------------------------

RandomSearchOptimizer::RandomSearchOptimizer(const OptimizerContext& ctx)
    : ArchiveOptimizer({/*name=*/"random", /*elitist=*/false, /*uses_seeds=*/true,
                        /*uses_surrogate=*/false, /*composite=*/false},
                       ctx) {}

Genome RandomSearchOptimizer::propose() { return random_distinct(); }

// ---- LocalSearchOptimizer ------------------------------------------------

LocalSearchOptimizer::LocalSearchOptimizer(const OptimizerContext& ctx)
    : ArchiveOptimizer({/*name=*/"local", /*elitist=*/false, /*uses_seeds=*/true,
                        /*uses_surrogate=*/false, /*composite=*/false},
                       ctx) {}

void LocalSearchOptimizer::tell(const Genome& genome, const Objectives& objectives,
                                double cost_seconds) {
  ArchiveOptimizer::tell(genome, objectives, cost_seconds);
  if (!objectives_valid(objectives)) return;
  Individual ind;
  ind.genome = genome;
  ind.objectives = objectives;
  ind.evaluated = true;
  insert_nondominated(climb_front_, std::move(ind));
}

Genome LocalSearchOptimizer::propose() {
  if (climb_front_.empty() || problem_.n_vars() == 0) return random_distinct();
  for (int attempt = 0; attempt < kDuplicateRetries; ++attempt) {
    const Individual& base = climb_front_[next_member_ % climb_front_.size()];
    ++next_member_;
    Genome g = base.genome;
    g.resize(problem_.n_vars(), 0);
    const std::size_t var = rng_.index(g.size());
    // Mostly unit steps; an occasional longer jump escapes flat plateaus.
    std::int64_t step = 1;
    if (rng_.index(4) == 0) step += static_cast<std::int64_t>(rng_.index(3));
    if (rng_.index(2) == 0) step = -step;
    g[var] += step;
    problem_.repair(g);
    if (seen_.count(g) == 0) return g;
  }
  // The neighbourhood of the front is exhausted: restart from a random
  // point (which also keeps exploration alive on deceptive landscapes).
  return random_distinct();
}

// ---- SurrogateSamplerOptimizer -------------------------------------------

SurrogateSamplerOptimizer::SurrogateSamplerOptimizer(const OptimizerContext& ctx)
    : ArchiveOptimizer({/*name=*/"surrogate", /*elitist=*/false, /*uses_seeds=*/true,
                        /*uses_surrogate=*/true, /*composite=*/false},
                       ctx),
      surrogate_(ctx.surrogate) {}

void SurrogateSamplerOptimizer::tell(const Genome& genome, const Objectives& objectives,
                                     double cost_seconds) {
  ArchiveOptimizer::tell(genome, objectives, cost_seconds);
  if (!objectives_valid(objectives)) return;
  if (obj_min_.empty()) {
    obj_min_ = objectives;
    obj_max_ = objectives;
  } else {
    for (std::size_t i = 0; i < objectives.size() && i < obj_min_.size(); ++i) {
      obj_min_[i] = std::min(obj_min_[i], objectives[i]);
      obj_max_[i] = std::max(obj_max_[i], objectives[i]);
    }
  }
  Individual ind;
  ind.genome = genome;
  ind.objectives = objectives;
  ind.evaluated = true;
  insert_nondominated(rank_front_, std::move(ind));
}

Genome SurrogateSamplerOptimizer::propose() {
  if (!surrogate_) return random_distinct();

  // Rank a batch of random candidates by how the surrogate places them
  // against the current front: fewest dominating front members first, then
  // the smaller normalized objective sum. All-unknown batches fall back to
  // the first candidate (pure random sampling).
  Genome best;
  bool have_first = false;
  bool have_scored = false;
  std::size_t best_dominated = std::numeric_limits<std::size_t>::max();
  double best_sum = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < candidates_; ++k) {
    Genome g = random_distinct(50);
    if (!have_first) {
      best = g;
      have_first = true;
    }
    const std::optional<Objectives> est = surrogate_(g);
    if (!est || !objectives_valid(*est)) continue;
    std::size_t dominated = 0;
    for (const auto& member : rank_front_) {
      if (dominates(member.objectives, *est)) ++dominated;
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < est->size(); ++i) {
      if (i < obj_min_.size() && obj_max_[i] > obj_min_[i]) {
        sum += ((*est)[i] - obj_min_[i]) / (obj_max_[i] - obj_min_[i]);
      } else {
        sum += (*est)[i];
      }
    }
    if (!have_scored || dominated < best_dominated ||
        (dominated == best_dominated && sum < best_sum)) {
      have_scored = true;
      best_dominated = dominated;
      best_sum = sum;
      best = std::move(g);
    }
  }
  return best;
}

// ---- ExhaustiveOptimizer -------------------------------------------------

ExhaustiveOptimizer::ExhaustiveOptimizer(const OptimizerContext& ctx)
    : ArchiveOptimizer({/*name=*/"exhaustive", /*elitist=*/false, /*uses_seeds=*/false,
                        /*uses_surrogate=*/false, /*composite=*/false},
                       ctx),
      odometer_(problem_.n_vars(), 0) {}

Genome ExhaustiveOptimizer::propose() {
  const std::size_t n = problem_.n_vars();
  while (!exhausted_) {
    Genome g = odometer_;
    // Odometer increment over the mixed-radix index space.
    bool done = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (++odometer_[i] < problem_.cardinality(i)) {
        done = false;
        break;
      }
      odometer_[i] = 0;
    }
    if (done) exhausted_ = true;
    // Seeds and reserved genomes were already handed out; skip them here.
    if (seen_.count(g) == 0) return g;
  }
  return random_distinct(0);
}

// ---- OptimizerRegistry ---------------------------------------------------

namespace {

std::map<std::string, OptimizerRegistry::Factory>& registry() {
  static std::map<std::string, OptimizerRegistry::Factory> instance;
  return instance;
}

util::Mutex& registry_mutex() {
  static util::Mutex m{"OptimizerRegistry"};
  return m;
}

/// Register the shipped optimizers exactly once; callers must hold the
/// registry mutex.
void ensure_builtins_locked() {
  static bool done = false;
  if (done) return;
  done = true;
  registry()["nsga2"] = [](const OptimizerContext& ctx) {
    return std::unique_ptr<Optimizer>(
        std::make_unique<SteadyStateNsga2>(ctx.ga, *ctx.problem));
  };
  registry()["random"] = [](const OptimizerContext& ctx) {
    return std::unique_ptr<Optimizer>(std::make_unique<RandomSearchOptimizer>(ctx));
  };
  registry()["local"] = [](const OptimizerContext& ctx) {
    return std::unique_ptr<Optimizer>(std::make_unique<LocalSearchOptimizer>(ctx));
  };
  registry()["surrogate"] = [](const OptimizerContext& ctx) {
    return std::unique_ptr<Optimizer>(std::make_unique<SurrogateSamplerOptimizer>(ctx));
  };
  registry()["exhaustive"] = [](const OptimizerContext& ctx) {
    return std::unique_ptr<Optimizer>(std::make_unique<ExhaustiveOptimizer>(ctx));
  };
  registry()["portfolio"] = [](const OptimizerContext& ctx) {
    return std::unique_ptr<Optimizer>(make_portfolio(ctx));
  };
}

[[noreturn]] void throw_unknown(const std::string& name,
                                const std::vector<std::string>& known) {
  std::string message = "unknown optimizer '" + name + "'";
  const std::string suggestion = util::closest_match(name, known);
  if (!suggestion.empty()) message += " (did you mean '" + suggestion + "'?)";
  message += "; known optimizers: " + util::join(known, ", ");
  throw std::runtime_error(message);
}

}  // namespace

void OptimizerRegistry::register_optimizer(const std::string& name, Factory factory) {
  util::MutexLock lock(registry_mutex());
  ensure_builtins_locked();
  registry()[name] = std::move(factory);
}

std::unique_ptr<Optimizer> OptimizerRegistry::create(const std::string& name,
                                                     const OptimizerContext& ctx) {
  Factory factory;
  std::vector<std::string> known;
  {
    util::MutexLock lock(registry_mutex());
    ensure_builtins_locked();
    auto it = registry().find(name);
    if (it != registry().end()) {
      factory = it->second;
    } else {
      for (const auto& [key, value] : registry()) {
        (void)value;
        known.push_back(key);
      }
    }
  }
  if (factory) {
    if (ctx.problem == nullptr) {
      throw std::runtime_error("optimizer '" + name + "': context has no problem");
    }
    return factory(ctx);
  }
  throw_unknown(name, known);
}

void OptimizerRegistry::ensure_known(const std::string& name) {
  std::vector<std::string> known = names();
  if (std::find(known.begin(), known.end(), name) != known.end()) return;
  throw_unknown(name, known);
}

std::vector<std::string> OptimizerRegistry::names() {
  util::MutexLock lock(registry_mutex());
  ensure_builtins_locked();
  std::vector<std::string> out;
  out.reserve(registry().size());
  for (const auto& [key, value] : registry()) {
    (void)value;
    out.push_back(key);
  }
  return out;
}

}  // namespace dovado::opt
