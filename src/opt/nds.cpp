#include "src/opt/nds.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <set>
#include <utility>

namespace dovado::opt {

namespace {

/// True when every vector is a NaN-free pair: the inputs the two-objective
/// sweep handles. NaN breaks the transitivity of dominance it relies on.
bool sweepable(const std::vector<Objectives>& objectives) {
  return std::all_of(objectives.begin(), objectives.end(), [](const Objectives& o) {
    return o.size() == 2 && !std::isnan(o[0]) && !std::isnan(o[1]);
  });
}

/// The fronts of a population that sweepable() accepts, each listed in
/// ascending (f0, f1) order (Jensen, IEEE TEC 2003). In that order every
/// dominator of a point precedes it, and the members of one front have
/// non-increasing f1, so a front's last member dominates a point exactly
/// when any member does. The fronts that dominate a point are a prefix, so
/// each point joins the first front whose last member does not dominate
/// it, found by binary search. O(N log N).
std::vector<std::vector<std::size_t>> lex_fronts(const std::vector<Objectives>& objectives) {
  std::vector<std::size_t> order(objectives.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Objectives& x = objectives[a];
    const Objectives& y = objectives[b];
    return x[0] != y[0] ? x[0] < y[0] : x[1] < y[1];
  });
  std::vector<std::vector<std::size_t>> fronts;
  for (std::size_t q : order) {
    const auto k = static_cast<std::size_t>(
        std::partition_point(fronts.begin(), fronts.end(),
                             [&](const std::vector<std::size_t>& front) {
                               return dominates(objectives[front.back()], objectives[q]);
                             }) -
        fronts.begin());
    if (k == fronts.size()) fronts.emplace_back();
    fronts[k].push_back(q);
  }
  return fronts;
}

/// lex_fronts() in the member order of the pairwise peeling below: front 0
/// by index, and front k+1 by (position in front k of the member's
/// last-listed dominator there, index). Those dominators form a contiguous
/// run of front k in (f0, f1) order; taking front k+1 in that order moves
/// both ends of the run forward, so a sliding-window maximum finds each
/// position. O(N log N).
std::vector<std::vector<std::size_t>> sweep_sort(const std::vector<Objectives>& objectives) {
  std::vector<std::vector<std::size_t>> fronts = lex_fronts(objectives);
  std::vector<std::size_t> prev = fronts[0];  ///< the previous front in (f0, f1) order
  std::sort(fronts[0].begin(), fronts[0].end());
  std::vector<std::size_t> position(objectives.size());
  std::vector<std::size_t> key(objectives.size());  ///< last dominator's position
  for (std::size_t k = 1; k < fronts.size(); ++k) {
    for (std::size_t i = 0; i < fronts[k - 1].size(); ++i) position[fronts[k - 1][i]] = i;
    std::deque<std::size_t> window;  ///< indices into prev, positions decreasing
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t q : fronts[k]) {
      // prev[lo, hi) is every member with f1 <= q's and f0 <= q's.
      while (hi < prev.size() && objectives[prev[hi]][0] <= objectives[q][0]) {
        while (!window.empty() && position[prev[window.back()]] < position[prev[hi]]) {
          window.pop_back();
        }
        window.push_back(hi++);
      }
      while (objectives[prev[lo]][1] > objectives[q][1]) ++lo;
      while (window.front() < lo) window.pop_front();
      key[q] = position[prev[window.front()]];
    }
    prev = fronts[k];
    std::sort(fronts[k].begin(), fronts[k].end(), [&](std::size_t a, std::size_t b) {
      return key[a] != key[b] ? key[a] < key[b] : a < b;
    });
  }
  return fronts;
}

}  // namespace

std::vector<std::vector<std::size_t>> fast_non_dominated_sort(
    const std::vector<Objectives>& objectives) {
  const std::size_t n = objectives.size();
  std::vector<std::vector<std::size_t>> fronts;
  if (n == 0) return fronts;
  if (sweepable(objectives)) return sweep_sort(objectives);

  std::vector<int> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> dominated_by(n);

  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = p + 1; q < n; ++q) {
      if (dominates(objectives[p], objectives[q])) {
        dominated_by[p].push_back(q);
        ++domination_count[q];
      } else if (dominates(objectives[q], objectives[p])) {
        dominated_by[q].push_back(p);
        ++domination_count[p];
      }
    }
  }

  std::vector<std::size_t> current;
  for (std::size_t p = 0; p < n; ++p) {
    if (domination_count[p] == 0) current.push_back(p);
  }
  while (!current.empty()) {
    fronts.push_back(current);
    std::vector<std::size_t> next;
    for (std::size_t p : current) {
      for (std::size_t q : dominated_by[p]) {
        if (--domination_count[q] == 0) next.push_back(q);
      }
    }
    current = std::move(next);
  }
  return fronts;
}

std::vector<double> crowding_distance(const std::vector<Objectives>& objectives,
                                      const std::vector<std::size_t>& front) {
  const std::size_t n = front.size();
  std::vector<double> distance(n, 0.0);
  if (n == 0) return distance;
  if (n <= 2) {
    std::fill(distance.begin(), distance.end(), std::numeric_limits<double>::infinity());
    return distance;
  }

  const std::size_t m = objectives[front[0]].size();
  std::vector<std::size_t> order(n);
  for (std::size_t obj = 0; obj < m; ++obj) {
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return objectives[front[a]][obj] < objectives[front[b]][obj];
    });
    const double lo = objectives[front[order.front()]][obj];
    const double hi = objectives[front[order.back()]][obj];
    distance[order.front()] = std::numeric_limits<double>::infinity();
    distance[order.back()] = std::numeric_limits<double>::infinity();
    if (hi <= lo) continue;  // no spread in this objective
    for (std::size_t i = 1; i + 1 < n; ++i) {
      const double prev = objectives[front[order[i - 1]]][obj];
      const double next = objectives[front[order[i + 1]]][obj];
      distance[order[i]] += (next - prev) / (hi - lo);
    }
  }
  return distance;
}

std::vector<std::size_t> non_dominated_indices(const std::vector<Objectives>& objectives) {
  std::vector<std::size_t> result;
  const std::size_t n = objectives.size();
  if (n == 0) return result;
  if (sweepable(objectives)) {
    result = std::move(lex_fronts(objectives)[0]);
    std::sort(result.begin(), result.end());
    return result;
  }
  for (std::size_t p = 0; p < n; ++p) {
    bool dominated = false;
    for (std::size_t q = 0; q < n && !dominated; ++q) {
      if (q != p && dominates(objectives[q], objectives[p])) dominated = true;
    }
    if (!dominated) result.push_back(p);
  }
  return result;
}

std::vector<Individual> pareto_subset(const std::vector<Individual>& population) {
  std::vector<Objectives> objs;
  objs.reserve(population.size());
  for (const auto& ind : population) objs.push_back(ind.objectives);
  const auto indices = non_dominated_indices(objs);

  std::vector<Individual> front;
  std::set<Genome> seen;
  for (std::size_t i : indices) {
    if (seen.insert(population[i].genome).second) front.push_back(population[i]);
  }
  return front;
}

bool insert_nondominated(std::vector<Individual>& front, Individual candidate) {
  for (const auto& member : front) {
    if (dominates(member.objectives, candidate.objectives) ||
        member.genome == candidate.genome) {
      return false;
    }
  }
  front.erase(std::remove_if(front.begin(), front.end(),
                             [&](const Individual& member) {
                               return dominates(candidate.objectives, member.objectives);
                             }),
              front.end());
  front.push_back(std::move(candidate));
  return true;
}

}  // namespace dovado::opt
