// The ask/tell optimizer layer: context, registry and the cheap searchers.
//
// The steady-state engine (core/dse.cpp) drives search through the
// opt::Optimizer seam only (see optimizer_base.hpp): ask() pulls the next
// candidate genome, tell() pushes the evaluated objectives back (with the
// tool seconds the answer cost, so composite optimizers can do
// per-tool-second credit assignment), reserve() marks genomes already
// handed out by a crashed campaign. Mirrors the edatool::EdaBackend
// registry pattern: optimizers are created by name through
// OptimizerRegistry, which throws with a did-you-mean hint on unknown
// names.
//
// Shipped implementations:
//   - "nsga2"      steady-state (mu+1) NSGA-II (opt/nsga2.hpp)
//   - "random"     seeded distinct uniform-random sampling
//   - "local"      integer local search hill-climbing from front members
//   - "surrogate"  random candidates ranked by a surrogate model (the
//                  engine wires in NWM estimates; degrades to random
//                  sampling while no surrogate is available)
//   - "exhaustive" mixed-radix enumeration of the whole space
//   - "portfolio"  UCB bandit over a set of member optimizers
//                  (opt/portfolio.hpp)
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/opt/nsga2.hpp"
#include "src/opt/optimizer_base.hpp"
#include "src/opt/problem.hpp"
#include "src/util/rng.hpp"

namespace dovado::opt {

/// Everything an optimizer factory may need. `problem` is required;
/// `ga` carries the seed, population sizing and warm-start
/// genomes every searcher interprets as it sees fit.
struct OptimizerContext {
  Problem* problem = nullptr;
  Nsga2Config ga;
  SurrogateFn surrogate;
  /// Member names for the "portfolio" optimizer; empty selects the default
  /// set (nsga2, random, local, surrogate).
  std::vector<std::string> portfolio_members;
};

/// Shared machinery of the non-GA searchers: a flat archive of every told
/// individual (front() is its duplicate-free non-dominated subset via
/// nds.hpp), a seen-set duplicate filter shared with reserve(), and seeded
/// warm-start genomes handed out before the searcher's own proposals.
class ArchiveOptimizer : public Optimizer {
 public:
  ArchiveOptimizer(OptimizerInfo info, const OptimizerContext& ctx);

  [[nodiscard]] const OptimizerInfo& info() const override { return info_; }
  [[nodiscard]] Genome ask() final;
  void tell(const Genome& genome, const Objectives& objectives,
            double cost_seconds = 0.0) override;
  void reserve(const Genome& genome) override { seen_.insert(genome); }
  [[nodiscard]] std::vector<Individual> front() const override;
  [[nodiscard]] std::size_t told() const override { return told_; }

 protected:
  /// The searcher's own proposal once seeds are exhausted. ask() records
  /// the returned genome in seen_; propose() must only consult it.
  [[nodiscard]] virtual Genome propose() = 0;

  /// Uniform-random genome distinct from everything seen; gives up and
  /// returns a duplicate after `stale_limit` consecutive known draws (the
  /// space is then effectively exhausted).
  [[nodiscard]] Genome random_distinct(int stale_limit = 1000);

  OptimizerInfo info_;
  Problem& problem_;
  util::Rng rng_;
  std::set<Genome> seen_;            ///< genomes handed out or reserved
  std::vector<Individual> archive_;  ///< every told individual
  std::vector<Genome> seeds_;        ///< warm-start genomes, handed out first
  std::size_t seed_next_ = 0;
  std::size_t told_ = 0;
};

/// Seeded distinct uniform-random search (the random_search baseline as an
/// ask/tell optimizer).
class RandomSearchOptimizer final : public ArchiveOptimizer {
 public:
  explicit RandomSearchOptimizer(const OptimizerContext& ctx);

 protected:
  [[nodiscard]] Genome propose() override;
};

/// Integer local search: hill-climb by perturbing current front members one
/// coordinate at a time (±1 steps, occasionally larger), falling back to
/// random sampling while the front is empty or the neighbourhood is
/// exhausted.
class LocalSearchOptimizer final : public ArchiveOptimizer {
 public:
  explicit LocalSearchOptimizer(const OptimizerContext& ctx);
  void tell(const Genome& genome, const Objectives& objectives,
            double cost_seconds = 0.0) override;

 protected:
  [[nodiscard]] Genome propose() override;

 private:
  /// Incrementally maintained non-dominated set (genomes + objectives) the
  /// climber walks from; round-robin over its members.
  std::vector<Individual> climb_front_;
  std::size_t next_member_ = 0;
};

/// Surrogate-guided sampler: draws a batch of random candidates and asks
/// the surrogate to rank them, proposing the candidate least dominated by
/// the current front (ties broken by the smaller normalized objective sum).
/// Degrades to plain random sampling while no surrogate is wired in or it
/// has nothing to say yet.
class SurrogateSamplerOptimizer final : public ArchiveOptimizer {
 public:
  explicit SurrogateSamplerOptimizer(const OptimizerContext& ctx);
  void tell(const Genome& genome, const Objectives& objectives,
            double cost_seconds = 0.0) override;

 protected:
  [[nodiscard]] Genome propose() override;

 private:
  SurrogateFn surrogate_;
  std::size_t candidates_ = 16;         ///< batch size ranked per proposal
  std::vector<Individual> rank_front_;  ///< incremental front for ranking
  Objectives obj_min_;  ///< per-dimension bounds over valid tells
  Objectives obj_max_;  ///< (for the normalized tie-break sum)
};

/// Mixed-radix enumeration of the whole index space (the exhaustive_search
/// baseline as an ask/tell optimizer). After the space is exhausted it
/// falls back to random duplicates so ask() never blocks.
class ExhaustiveOptimizer final : public ArchiveOptimizer {
 public:
  explicit ExhaustiveOptimizer(const OptimizerContext& ctx);

  /// True once every point of the space has been handed out.
  [[nodiscard]] bool exhausted() const { return exhausted_; }

 protected:
  [[nodiscard]] Genome propose() override;

 private:
  Genome odometer_;
  bool exhausted_ = false;
};

/// Name -> factory registry of optimizers, mirroring edatool::BackendRegistry.
/// The built-ins above are always registered; hosts may add their own.
class OptimizerRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Optimizer>(const OptimizerContext&)>;

  static void register_optimizer(const std::string& name, Factory factory);

  /// Instantiate an optimizer by name; throws std::runtime_error (listing
  /// the known names, with a did-you-mean hint) when the name is unknown,
  /// or when the context is unusable (null problem, bad portfolio members).
  [[nodiscard]] static std::unique_ptr<Optimizer> create(const std::string& name,
                                                         const OptimizerContext& ctx);

  /// Throw the same unknown-name error create() would, without needing a
  /// usable context (CLI/engine validation before a Problem exists).
  static void ensure_known(const std::string& name);

  /// Registered optimizer names, sorted.
  [[nodiscard]] static std::vector<std::string> names();
};

}  // namespace dovado::opt
