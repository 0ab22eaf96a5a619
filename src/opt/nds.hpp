// Fast non-dominated sorting and crowding distance (Deb et al., NSGA-II).
#pragma once

#include <vector>

#include "src/opt/problem.hpp"

namespace dovado::opt {

/// Partition objective vectors into non-domination fronts. Returns fronts of
/// indices into `objectives`: fronts[0] is the Pareto front; every solution
/// appears in exactly one front. Member order (crowding and survival break
/// ties by it): front 0 in ascending index; front k+1 by the position in
/// front k of the member's last-listed dominator there, then by index.
/// When every vector is a NaN-free pair, an O(N log N) sweep (Jensen, IEEE
/// TEC 2003); otherwise the O(M*N^2) pairwise peeling of the paper [26].
/// Both paths emit the same fronts in the same order.
[[nodiscard]] std::vector<std::vector<std::size_t>> fast_non_dominated_sort(
    const std::vector<Objectives>& objectives);

/// Crowding distance of each member of one front (indices parallel to
/// `front`). Boundary solutions get +infinity. Objectives with zero spread
/// contribute nothing.
[[nodiscard]] std::vector<double> crowding_distance(const std::vector<Objectives>& objectives,
                                                    const std::vector<std::size_t>& front);

/// Indices of the non-dominated subset of `objectives` in ascending order
/// (== front 0; duplicates of a non-dominated point are all kept).
/// O(N log N) when every vector is a NaN-free pair, otherwise one O(M*N^2)
/// pass without building the other fronts.
[[nodiscard]] std::vector<std::size_t> non_dominated_indices(
    const std::vector<Objectives>& objectives);

/// Extract the duplicate-free (by genome) rank-0 front of an evaluated
/// population. Shared by the NSGA-II engines, the baselines and the
/// archive-based optimizers.
[[nodiscard]] std::vector<Individual> pareto_subset(const std::vector<Individual>& population);

/// Incrementally maintain a non-dominated set: inserts `candidate` unless a
/// member dominates it (or an identical genome is already present),
/// evicting every member it dominates. Returns true when the candidate
/// entered the front. O(front) per call — the per-tell companion to the
/// batch pareto_subset().
bool insert_nondominated(std::vector<Individual>& front, Individual candidate);

}  // namespace dovado::opt
