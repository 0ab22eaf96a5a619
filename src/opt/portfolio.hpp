// Optimizer portfolio with online algorithm selection (SoberDSE direction;
// see DESIGN.md "Optimizer portfolio & algorithm selection").
//
// A Portfolio owns N member optimizers and routes every ask() through a
// UCB-style bandit: each member's exploitation score is its credited
// hypervolume gain per tool second (normalized by the best member), plus
// the usual sqrt(2 ln T / n_i) exploration bonus. Credit is assigned at
// tell(): the portfolio keeps an incrementally maintained global front
// over normalized objectives and charges the hypervolume delta each answer
// produced to the member that asked for the point — the context-mixing
// idiom of weak predictors: run several cheap searchers, continuously
// shift weight to whichever is currently earning.
//
// The bandit's constants are fixed: exploration weight 0.5, a 1 s floor on
// a member's accumulated tool seconds (members answered mostly by estimates
// or cache hits cannot claim an infinite rate), and kDuplicateRetries
// re-asks when a member proposes a point another member already owns.
//
// Resume: the engine stamps each journal inflight record with
// attributed_to(genome); on --resume it calls reserve_for(genome, member)
// so the replayed tell() is routed back to the member that originally
// asked — exactly once, like any other tell.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/opt/optimizer.hpp"

namespace dovado::opt {

/// Registered as "portfolio" in opt::OptimizerRegistry.
class Portfolio final : public Optimizer {
 public:
  /// Takes ownership of the members (at least one, all non-null, names
  /// unique — resume attribution is by member name).
  explicit Portfolio(std::vector<std::unique_ptr<Optimizer>> members);

  [[nodiscard]] const OptimizerInfo& info() const override;
  [[nodiscard]] Genome ask() override;
  void tell(const Genome& genome, const Objectives& objectives,
            double cost_seconds = 0.0) override;
  void reserve(const Genome& genome) override;
  void reserve_for(const Genome& genome, const std::string& member) override;
  [[nodiscard]] std::string attributed_to(const Genome& genome) const override;
  [[nodiscard]] std::vector<Individual> front() const override { return front_; }
  [[nodiscard]] std::size_t told() const override { return told_; }
  [[nodiscard]] std::vector<MemberStats> member_stats() const override;

  [[nodiscard]] const std::vector<std::unique_ptr<Optimizer>>& members() const {
    return members_;
  }

 private:
  /// The bandit: index of the member the next ask() is routed to. Members
  /// that never asked go first (round robin in member order); afterwards
  /// the highest UCB score wins, first index breaking ties — fully
  /// deterministic given the ask/tell history.
  [[nodiscard]] std::size_t pick() const;

  /// Current UCB scores (exploitation + exploration), for pick() and for
  /// the selection weights reported through member_stats().
  [[nodiscard]] std::vector<double> scores() const;

  /// Update the normalized global front with a told point and return the
  /// hypervolume it added (0 for penalty/failure objectives and for
  /// dominated points).
  double credit_gain(const Genome& genome, const Objectives& objectives);

  OptimizerInfo info_;
  std::vector<std::unique_ptr<Optimizer>> members_;

  // Bandit state, indexed like members_.
  std::vector<std::size_t> asks_;
  std::vector<std::size_t> tells_;
  std::vector<double> gain_;  ///< credited normalized hypervolume gain
  std::vector<double> cost_;  ///< accumulated tool seconds

  std::map<Genome, std::size_t> attribution_;  ///< genome -> asking member
  std::set<Genome> seen_;                      ///< portfolio-level dedup
  std::size_t told_ = 0;

  // Global front over all tells, with running normalization bounds (the
  // hypervolume credit is computed in normalized objective space against a
  // constant 1.1 reference).
  std::vector<Individual> front_;
  Objectives obj_min_;
  Objectives obj_max_;
};

/// Factory behind the "portfolio" registry name: builds the members named
/// in ctx.portfolio_members (default: nsga2, random, local, surrogate) via
/// OptimizerRegistry::create, offsetting each member's seed so their random
/// streams are independent. Throws std::runtime_error on unknown member
/// names (with a did-you-mean hint), duplicate members, or a nested
/// "portfolio" member.
[[nodiscard]] std::unique_ptr<Portfolio> make_portfolio(const OptimizerContext& ctx);

}  // namespace dovado::opt
