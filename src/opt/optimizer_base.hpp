// The pure ask/tell optimizer interface (see optimizer.hpp for the
// registry, the context struct and the shipped implementations).
//
// Split from optimizer.hpp so concrete searchers declared alongside their
// algorithm (SteadyStateNsga2 and GenerationalNsga2 in nsga2.hpp) can
// derive from Optimizer without pulling in the whole optimizer layer.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/opt/problem.hpp"

namespace dovado::opt {

/// Capability flags an optimizer advertises. The engine consults these
/// instead of knowing concrete types.
struct OptimizerInfo {
  std::string name;             ///< registry name ("nsga2", "random", ...)
  bool elitist = false;         ///< keeps a bounded elite population
  bool uses_seeds = false;      ///< consumes Nsga2Config::initial_genomes
  bool uses_surrogate = false;  ///< consults OptimizerContext::surrogate
  bool composite = false;       ///< routes asks to owned member optimizers
};

/// Per-member counters of one optimizer (composite optimizers report one
/// entry per member; plain optimizers report a single entry for themselves).
struct MemberStats {
  std::string name;
  std::size_t asks = 0;       ///< genomes this member produced
  std::size_t tells = 0;      ///< evaluated results routed back to it
  double hv_gain = 0.0;       ///< normalized hypervolume gain credited to it
  double cost_seconds = 0.0;  ///< tool seconds its answers cost
  double weight = 1.0;        ///< current selection weight (bandit share)
};

/// Optional surrogate hook: estimated objective vector (minimized) for a
/// genome, or std::nullopt while no estimate is available.
using SurrogateFn = std::function<std::optional<Objectives>(const Genome&)>;

/// Pure-virtual ask/tell searcher. Implementations must be deterministic
/// for a fixed seed and tell() order, and ask() must never block: it always
/// returns a genome, accepting a duplicate only when the space is
/// exhausted. The one exception is a searcher that reports waiting():
/// it is not asked until it stops waiting.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  [[nodiscard]] virtual const OptimizerInfo& info() const = 0;

  /// Next genome to evaluate.
  [[nodiscard]] virtual Genome ask() = 0;

  /// Report an evaluated genome. `cost_seconds` is the simulated tool time
  /// the answer cost (0 for estimates, cache hits and screen settles);
  /// composite optimizers use it for per-tool-second credit assignment.
  virtual void tell(const Genome& genome, const Objectives& objectives,
                    double cost_seconds = 0.0) = 0;

  /// Register a genome as already handed out (e.g. an inflight point
  /// replayed from a journal on resume) so ask() will not produce it again.
  virtual void reserve(const Genome& genome) = 0;

  /// reserve() plus attribution: the eventual tell() for this genome is
  /// routed to `member` (portfolio resume). Non-composite optimizers
  /// ignore the member name.
  virtual void reserve_for(const Genome& genome, const std::string& member) {
    (void)member;
    reserve(genome);
  }

  /// Name of the member that produced (or will receive the tell for) this
  /// genome — stamped into journal inflight records so --resume can route
  /// the replayed tell back. Non-composite optimizers: info().name.
  [[nodiscard]] virtual std::string attributed_to(const Genome& genome) const {
    (void)genome;
    return info().name;
  }

  /// True while the searcher has nothing to propose until outstanding
  /// asks are told (a generational searcher between generations). The
  /// engine then only completes what is in flight, and ends the run when
  /// nothing is. Steady searchers never wait.
  [[nodiscard]] virtual bool waiting() const { return false; }

  /// Duplicate-free non-dominated subset of everything told so far.
  [[nodiscard]] virtual std::vector<Individual> front() const = 0;

  /// Number of tell() calls so far.
  [[nodiscard]] virtual std::size_t told() const = 0;

  /// Per-member counters. Plain optimizers report one entry (asks == tells
  /// == told(), weight 1); composite optimizers one entry per member.
  [[nodiscard]] virtual std::vector<MemberStats> member_stats() const;
};

}  // namespace dovado::opt
