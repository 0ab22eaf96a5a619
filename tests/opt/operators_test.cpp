#include "src/opt/operators.hpp"

#include <gtest/gtest.h>

#include <set>

namespace dovado::opt {
namespace {

/// Fixed-cardinality test problem; evaluate() is never used by operators.
class DomainsOnly final : public Problem {
 public:
  explicit DomainsOnly(std::vector<std::int64_t> sizes) : sizes_(std::move(sizes)) {}
  [[nodiscard]] std::size_t n_vars() const override { return sizes_.size(); }
  [[nodiscard]] std::size_t n_objectives() const override { return 2; }
  [[nodiscard]] std::int64_t cardinality(std::size_t var) const override {
    return sizes_[var];
  }
  [[nodiscard]] Objectives evaluate(const Genome&) override { return {0, 0}; }

 private:
  std::vector<std::int64_t> sizes_;
};

TEST(RandomGenome, WithinBounds) {
  DomainsOnly problem({10, 2, 500});
  util::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const Genome g = random_genome(problem, rng);
    ASSERT_EQ(g.size(), 3u);
    EXPECT_GE(g[0], 0);
    EXPECT_LT(g[0], 10);
    EXPECT_GE(g[1], 0);
    EXPECT_LT(g[1], 2);
    EXPECT_LT(g[2], 500);
  }
}

TEST(RandomGenome, CoversSmallDomain) {
  DomainsOnly problem({4});
  util::Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(random_genome(problem, rng)[0]);
  EXPECT_EQ(seen.size(), 4u);
}

TEST(SbxInteger, ChildrenWithinBounds) {
  DomainsOnly problem({100, 100});
  util::Rng rng(3);
  Genome a{10, 90};
  Genome b{90, 10};
  for (int i = 0; i < 200; ++i) {
    Genome ca;
    Genome cb;
    sbx_integer(problem, a, b, 15.0, 1.0, rng, ca, cb);
    for (const auto& child : {ca, cb}) {
      for (std::size_t v = 0; v < child.size(); ++v) {
        EXPECT_GE(child[v], 0);
        EXPECT_LT(child[v], 100);
      }
    }
  }
}

TEST(SbxInteger, HighEtaKeepsChildrenNearParents) {
  DomainsOnly problem({1000});
  util::Rng rng(5);
  Genome a{400};
  Genome b{600};
  double mean_spread = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    Genome ca;
    Genome cb;
    sbx_integer(problem, a, b, 30.0, 1.0, rng, ca, cb);
    mean_spread += std::abs(static_cast<double>(ca[0]) - 500.0);
  }
  mean_spread /= n;
  // With eta=30 children hug the parents (distance ~100), not the extremes.
  EXPECT_LT(mean_spread, 130.0);
  EXPECT_GT(mean_spread, 50.0);
}

TEST(SbxInteger, IdenticalParentsPassThrough) {
  DomainsOnly problem({50});
  util::Rng rng(2);
  Genome a{25};
  Genome b{25};
  Genome ca;
  Genome cb;
  sbx_integer(problem, a, b, 15.0, 1.0, rng, ca, cb);
  EXPECT_EQ(ca[0], 25);
  EXPECT_EQ(cb[0], 25);
}

TEST(SbxInteger, ZeroProbabilityCopiesParents) {
  DomainsOnly problem({50, 50});
  util::Rng rng(2);
  Genome a{10, 20};
  Genome b{30, 40};
  Genome ca;
  Genome cb;
  sbx_integer(problem, a, b, 15.0, 0.0, rng, ca, cb);
  EXPECT_EQ(ca, a);
  EXPECT_EQ(cb, b);
}

TEST(GaussianMutation, StaysInBounds) {
  DomainsOnly problem({128, 128});
  util::Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    Genome g{64, 0};
    gaussian_mutation(problem, g, 0.5, 0.15, 0.1, rng);
    EXPECT_GE(g[0], 0);
    EXPECT_LT(g[0], 128);
    EXPECT_GE(g[1], 0);
    EXPECT_LT(g[1], 128);
  }
}

TEST(GaussianMutation, MeanHalfMutatesAboutHalfTheGenes) {
  // Paper Sec. IV: mutation probability approximately Gaussian with mean
  // 0.5. Over many single-gene individuals roughly half must mutate.
  DomainsOnly problem({1000});
  util::Rng rng(21);
  int mutated = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    Genome g{500};
    gaussian_mutation(problem, g, 0.5, 0.15, 0.05, rng);
    mutated += (g[0] != 500);
  }
  EXPECT_NEAR(static_cast<double>(mutated) / n, 0.5, 0.06);
}

TEST(GaussianMutation, ZeroMeanTinySigmaRarelyMutates) {
  DomainsOnly problem({1000});
  util::Rng rng(22);
  int mutated = 0;
  for (int i = 0; i < 1000; ++i) {
    Genome g{500};
    gaussian_mutation(problem, g, 0.0, 0.01, 0.05, rng);
    mutated += (g[0] != 500);
  }
  EXPECT_LT(mutated, 20);
}

TEST(Tournament, LowerRankWins) {
  std::vector<Individual> pop(2);
  pop[0].rank = 0;
  pop[1].rank = 3;
  util::Rng rng(1);
  EXPECT_EQ(tournament(pop, 0, 1, rng), 0u);
  EXPECT_EQ(tournament(pop, 1, 0, rng), 0u);
}

TEST(Tournament, CrowdingBreaksTies) {
  std::vector<Individual> pop(2);
  pop[0].rank = 1;
  pop[0].crowding = 0.2;
  pop[1].rank = 1;
  pop[1].crowding = 5.0;
  util::Rng rng(1);
  EXPECT_EQ(tournament(pop, 0, 1, rng), 1u);
}

TEST(Tournament, FullTieIsRandomButValid) {
  std::vector<Individual> pop(2);
  pop[0].rank = 1;
  pop[1].rank = 1;
  util::Rng rng(1);
  std::set<std::size_t> winners;
  for (int i = 0; i < 100; ++i) winners.insert(tournament(pop, 0, 1, rng));
  EXPECT_EQ(winners.size(), 2u);  // both can win
}

TEST(ProblemRepair, ClampsOutOfRange) {
  DomainsOnly problem({10, 5});
  Genome g{-3, 99};
  problem.repair(g);
  EXPECT_EQ(g[0], 0);
  EXPECT_EQ(g[1], 4);
}

TEST(ProblemVolume, ProductAndSaturation) {
  EXPECT_EQ(DomainsOnly({10, 5, 2}).volume(), 100);
  EXPECT_EQ(DomainsOnly({}).volume(), 1);
  // Saturates instead of overflowing.
  DomainsOnly huge({std::int64_t{1} << 40, std::int64_t{1} << 40});
  EXPECT_EQ(huge.volume(), std::int64_t{1} << 62);
}

}  // namespace
}  // namespace dovado::opt
