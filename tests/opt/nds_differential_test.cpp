// Differential test of non-dominated sorting against a reference copy of
// the O(M*N^2) pairwise peeling that fast_non_dominated_sort and
// non_dominated_indices ran before the two-objective sweep.
//
// Crowding distance and NSGA-II survival break ties by member order, so the
// fronts must match member for member, not just as sets. Seeded populations
// draw objectives from small integer ranges (ties and exact duplicates are
// common), mixed with the engine's 1e18 failure penalty and +-infinity.
// One- and three-objective inputs, and pairs holding a NaN, go through the
// general path and must match too.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/opt/nds.hpp"
#include "src/util/rng.hpp"

namespace dovado::opt {
namespace {

namespace reference {

std::vector<std::vector<std::size_t>> fast_non_dominated_sort(
    const std::vector<Objectives>& objectives) {
  const std::size_t n = objectives.size();
  std::vector<std::vector<std::size_t>> fronts;
  if (n == 0) return fronts;

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

std::vector<std::size_t> non_dominated_indices(const std::vector<Objectives>& objectives) {
  std::vector<std::size_t> result;
  const std::size_t n = objectives.size();
  for (std::size_t p = 0; p < n; ++p) {
    bool dominated = false;
    for (std::size_t q = 0; q < n && !dominated; ++q) {
      if (q != p && dominates(objectives[q], objectives[p])) dominated = true;
    }
    if (!dominated) result.push_back(p);
  }
  return result;
}

}  // namespace reference

constexpr double kInf = std::numeric_limits<double>::infinity();

/// n vectors of m objectives, each an integer in [0, range], replaced with
/// probability `special` by 1e18, +inf or -inf.
std::vector<Objectives> population(std::size_t n, std::size_t m, std::int64_t range,
                                   double special, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Objectives> objs(n, Objectives(m));
  for (auto& o : objs) {
    for (auto& v : o) {
      v = static_cast<double>(rng.uniform_int(0, range));
      if (rng.chance(special)) {
        const double specials[] = {1e18, kInf, -kInf};
        v = specials[rng.index(3)];
      }
    }
  }
  return objs;
}

void expect_matches_reference(const std::vector<Objectives>& objs) {
  EXPECT_EQ(fast_non_dominated_sort(objs), reference::fast_non_dominated_sort(objs));
  EXPECT_EQ(non_dominated_indices(objs), reference::non_dominated_indices(objs));
}

TEST(NdsDifferential, TwoObjectivesMatchMemberForMember) {
  for (std::size_t n : {0, 1, 2, 192, 768, 4096}) {
    for (std::int64_t range : {0, 1, 3, 20, 1000}) {
      for (double special : {0.0, 0.05}) {
        const std::uint64_t seeds = n >= 4096 ? 1 : 3;  // the reference is quadratic
        for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
          SCOPED_TRACE("n=" + std::to_string(n) + " range=" + std::to_string(range) +
                       " special=" + std::to_string(special) + " seed=" + std::to_string(seed));
          expect_matches_reference(population(n, 2, range, special, seed));
        }
      }
    }
  }
}

TEST(NdsDifferential, ManySmallTiedPopulations) {
  util::Rng rng(11);
  for (std::uint64_t seed = 1; seed <= 5000; ++seed) {
    const std::size_t n = 3 + rng.index(38);
    const std::int64_t range = static_cast<std::int64_t>(rng.index(5));
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_matches_reference(population(n, 2, range, 0.02, seed));
    if (HasFailure()) return;
  }
}

TEST(NdsDifferential, ExactDuplicatesAcrossManyFronts) {
  // A chain of fronts, every member repeated, in shuffled order: the order
  // of each front depends on which duplicate of a dominator is listed last.
  std::vector<Objectives> objs;
  for (int f = 0; f < 12; ++f) {
    for (int j = 0; j <= f % 4; ++j) {
      const Objectives o = {static_cast<double>(f + j), static_cast<double>(f + 3 - j)};
      objs.push_back(o);
      objs.push_back(o);
    }
  }
  util::Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = objs.size(); i > 1; --i) std::swap(objs[i - 1], objs[rng.index(i)]);
    expect_matches_reference(objs);
  }
}

TEST(NdsDifferential, SignedZerosAreTies) {
  expect_matches_reference({{0.0, 1.0}, {-0.0, 1.0}, {1.0, -0.0}, {1.0, 0.0}, {2.0, 2.0}});
}

TEST(NdsDifferential, OtherObjectiveCountsTakeTheGeneralPath) {
  for (std::size_t m : {1, 3}) {
    for (std::size_t n : {0, 1, 2, 192, 768}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                     " seed=" + std::to_string(seed));
        expect_matches_reference(population(n, m, 5, 0.05, seed));
      }
    }
  }
}

TEST(NdsDifferential, NanTakesTheGeneralPath) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto objs = population(192, 2, 5, 0.0, seed);
    util::Rng rng(seed + 100);
    for (int i = 0; i < 4; ++i) objs[rng.index(objs.size())][rng.index(2)] = nan;
    expect_matches_reference(objs);
  }
}

}  // namespace
}  // namespace dovado::opt
