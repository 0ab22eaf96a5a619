// Genetic operators for integer-coded genomes (index space).
//
// The paper's configuration (Sec. IV): integer random sampling, integer
// simulated binary crossover [31], duplicate elimination, and a mutation
// whose per-individual probability is approximately Gaussian with mean 0.5
// and hand-tuned variance. The constants below fix that setup; every
// searcher uses it.
#pragma once

#include "src/opt/problem.hpp"
#include "src/util/rng.hpp"

namespace dovado::opt {

inline constexpr double kCrossoverEta = 15.0;        ///< SBX distribution index
inline constexpr double kCrossoverProbVar = 0.9;     ///< per-variable SBX probability
inline constexpr double kMutationMean = 0.5;         ///< per-individual probability mean
inline constexpr double kMutationSigma = 0.15;       ///< the hand-tuned variance knob
inline constexpr double kMutationStepFraction = 0.1; ///< Gaussian step size vs domain

/// Attempts to produce a genome not seen before (mating, re-asking a
/// member, stepping a neighbour) before a searcher falls back to a random
/// immigrant or accepts the duplicate.
inline constexpr int kDuplicateRetries = 10;

/// Uniform random genome within the problem's index domains.
[[nodiscard]] Genome random_genome(const Problem& problem, util::Rng& rng);

/// Integer simulated binary crossover: produces two children from two
/// parents. `eta` is the distribution index (larger => children closer to
/// parents); `prob_var` is the per-variable crossover probability.
/// Children are rounded to integers and repaired into the domain.
void sbx_integer(const Problem& problem, const Genome& parent_a, const Genome& parent_b,
                 double eta, double prob_var, util::Rng& rng, Genome& child_a,
                 Genome& child_b);

/// The paper's mutation: the per-individual mutation probability is drawn
/// from N(mean, sigma) clamped to [0,1] (mean 0.5 per Sec. IV); each selected
/// variable takes a Gaussian step scaled to `step_fraction` of its domain.
void gaussian_mutation(const Problem& problem, Genome& genome, double mean, double sigma,
                       double step_fraction, util::Rng& rng);

/// Binary tournament on (rank, crowding): lower rank wins, ties broken by
/// larger crowding distance, further ties by coin flip. Returns the index of
/// the winner between i and j.
[[nodiscard]] std::size_t tournament(const std::vector<Individual>& population, std::size_t i,
                                     std::size_t j, util::Rng& rng);

}  // namespace dovado::opt
