#include "src/opt/operators.hpp"

#include <algorithm>
#include <cmath>

namespace dovado::opt {

Genome random_genome(const Problem& problem, util::Rng& rng) {
  Genome g(problem.n_vars());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = rng.uniform_int(0, problem.cardinality(i) - 1);
  }
  return g;
}

void sbx_integer(const Problem& problem, const Genome& parent_a, const Genome& parent_b,
                 double eta, double prob_var, util::Rng& rng, Genome& child_a,
                 Genome& child_b) {
  const std::size_t n = problem.n_vars();
  child_a = parent_a;
  child_b = parent_b;
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.chance(prob_var)) continue;
    const double a = static_cast<double>(parent_a[i]);
    const double b = static_cast<double>(parent_b[i]);
    if (std::fabs(a - b) < 1e-12) continue;
    // Deb & Agrawal's spread factor: beta from the polynomial distribution.
    const double u = rng.uniform();
    double beta = 0.0;
    if (u <= 0.5) {
      beta = std::pow(2.0 * u, 1.0 / (eta + 1.0));
    } else {
      beta = std::pow(1.0 / (2.0 * (1.0 - u)), 1.0 / (eta + 1.0));
    }
    const double c1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b);
    const double c2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b);
    child_a[i] = static_cast<std::int64_t>(std::llround(c1));
    child_b[i] = static_cast<std::int64_t>(std::llround(c2));
    // Swap children halves at random (standard SBX symmetry restoration).
    if (rng.chance(0.5)) std::swap(child_a[i], child_b[i]);
  }
  problem.repair(child_a);
  problem.repair(child_b);
}

void gaussian_mutation(const Problem& problem, Genome& genome, double mean, double sigma,
                       double step_fraction, util::Rng& rng) {
  const double prob = std::clamp(rng.gaussian(mean, sigma), 0.0, 1.0);
  for (std::size_t i = 0; i < genome.size(); ++i) {
    if (!rng.chance(prob)) continue;
    const double range = static_cast<double>(problem.cardinality(i) - 1);
    if (range <= 0.0) continue;
    const double step = rng.gaussian(0.0, std::max(1.0, range * step_fraction));
    std::int64_t delta = static_cast<std::int64_t>(std::llround(step));
    if (delta == 0) delta = rng.chance(0.5) ? 1 : -1;
    genome[i] += delta;
  }
  problem.repair(genome);
}

std::size_t tournament(const std::vector<Individual>& population, std::size_t i,
                       std::size_t j, util::Rng& rng) {
  const Individual& a = population[i];
  const Individual& b = population[j];
  if (a.rank != b.rank) return a.rank < b.rank ? i : j;
  if (a.crowding != b.crowding) return a.crowding > b.crowding ? i : j;
  return rng.chance(0.5) ? i : j;
}

}  // namespace dovado::opt
