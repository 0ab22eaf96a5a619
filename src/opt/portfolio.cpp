#include "src/opt/portfolio.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/opt/indicators.hpp"
#include "src/opt/nds.hpp"
#include "src/util/strings.hpp"

namespace dovado::opt {

namespace {

/// UCB exploration constant (scales the sqrt(2 ln T / n) bonus).
constexpr double kExploration = 0.5;
/// Floor on a member's accumulated tool seconds in its gain-per-second rate.
constexpr double kMinCostSeconds = 1.0;

bool objectives_valid(const Objectives& objectives) {
  for (double v : objectives) {
    if (!std::isfinite(v) || std::abs(v) >= 1e17) return false;
  }
  return !objectives.empty();
}

}  // namespace

Portfolio::Portfolio(std::vector<std::unique_ptr<Optimizer>> members)
    : members_(std::move(members)) {
  if (members_.empty()) {
    throw std::runtime_error("portfolio: needs at least one member optimizer");
  }
  std::set<std::string> names;
  for (const auto& member : members_) {
    if (!member) throw std::runtime_error("portfolio: null member optimizer");
    if (!names.insert(member->info().name).second) {
      throw std::runtime_error("portfolio: duplicate member '" + member->info().name +
                               "' (resume attribution is by member name)");
    }
  }
  info_.name = "portfolio";
  info_.elitist = true;
  info_.uses_seeds = true;
  info_.uses_surrogate = true;
  info_.composite = true;
  asks_.assign(members_.size(), 0);
  tells_.assign(members_.size(), 0);
  gain_.assign(members_.size(), 0.0);
  cost_.assign(members_.size(), 0.0);
}

const OptimizerInfo& Portfolio::info() const { return info_; }

std::vector<double> Portfolio::scores() const {
  std::vector<double> rate(members_.size(), 0.0);
  double max_rate = 0.0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    rate[i] = gain_[i] / std::max(cost_[i], kMinCostSeconds);
    max_rate = std::max(max_rate, rate[i]);
  }
  double total_asks = 0.0;
  for (std::size_t n : asks_) total_asks += static_cast<double>(n);
  std::vector<double> out(members_.size(), 0.0);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const double exploit = max_rate > 0.0 ? rate[i] / max_rate : 0.0;
    const double explore =
        kExploration *
        std::sqrt(2.0 * std::log(std::max(total_asks, 1.0)) /
                  static_cast<double>(std::max<std::size_t>(asks_[i], 1)));
    out[i] = exploit + explore;
  }
  return out;
}

std::size_t Portfolio::pick() const {
  // Cold start: every member gets asked once, in member order, before the
  // bandit has anything to compare.
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (asks_[i] == 0) return i;
  }
  const std::vector<double> score = scores();
  std::size_t best = 0;
  for (std::size_t i = 1; i < members_.size(); ++i) {
    if (score[i] > score[best]) best = i;
  }
  return best;
}

Genome Portfolio::ask() {
  const std::size_t member = pick();
  ++asks_[member];
  Genome g = members_[member]->ask();
  // Portfolio-level dedup: members do not see each other's proposals, so
  // re-ask the same member when it lands on a point another member already
  // owns. After the retry budget the duplicate is accepted (tiny or
  // exhausted spaces) — the broker answers it from cache anyway.
  for (int attempt = 0;
       attempt < kDuplicateRetries && seen_.count(g) != 0;
       ++attempt) {
    g = members_[member]->ask();
  }
  seen_.insert(g);
  attribution_[g] = member;
  return g;
}

double Portfolio::credit_gain(const Genome& genome, const Objectives& objectives) {
  if (!objectives_valid(objectives)) return 0.0;
  // Fold the point into the running normalization bounds first, so both
  // hypervolume snapshots below use the same (current) scaling and their
  // difference isolates this point's contribution.
  if (obj_min_.empty()) {
    obj_min_ = objectives;
    obj_max_ = objectives;
  } else {
    for (std::size_t i = 0; i < objectives.size() && i < obj_min_.size(); ++i) {
      obj_min_[i] = std::min(obj_min_[i], objectives[i]);
      obj_max_[i] = std::max(obj_max_[i], objectives[i]);
    }
  }
  auto normalize = [&](const Objectives& o) {
    Objectives out(o.size(), 0.0);
    for (std::size_t i = 0; i < o.size() && i < obj_min_.size(); ++i) {
      const double spread = obj_max_[i] - obj_min_[i];
      out[i] = spread > 0.0 ? (o[i] - obj_min_[i]) / spread : 0.0;
    }
    return out;
  };
  const Objectives reference(objectives.size(), 1.1);
  std::vector<Objectives> normalized;
  normalized.reserve(front_.size() + 1);
  for (const auto& member : front_) normalized.push_back(normalize(member.objectives));
  const double before = hypervolume(normalized, reference);

  Individual ind;
  ind.genome = genome;
  ind.objectives = objectives;
  ind.evaluated = true;
  if (!insert_nondominated(front_, std::move(ind))) return 0.0;

  normalized.clear();
  for (const auto& member : front_) normalized.push_back(normalize(member.objectives));
  const double after = hypervolume(normalized, reference);
  return std::max(0.0, after - before);
}

void Portfolio::tell(const Genome& genome, const Objectives& objectives,
                     double cost_seconds) {
  ++told_;
  std::size_t member = 0;
  if (auto it = attribution_.find(genome); it != attribution_.end()) {
    member = it->second;
  }
  const double gain = credit_gain(genome, objectives);
  ++tells_[member];
  gain_[member] += gain;
  cost_[member] += std::max(0.0, cost_seconds);
  members_[member]->tell(genome, objectives, cost_seconds);
}

void Portfolio::reserve(const Genome& genome) {
  seen_.insert(genome);
  for (auto& member : members_) member->reserve(genome);
}

void Portfolio::reserve_for(const Genome& genome, const std::string& member) {
  reserve(genome);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i]->info().name == member) {
      attribution_[genome] = i;
      return;
    }
  }
  // Unknown attribution (journal written by a different member set, or a
  // pre-v3 journal without the field): the tell routes to member 0.
}

std::string Portfolio::attributed_to(const Genome& genome) const {
  if (auto it = attribution_.find(genome); it != attribution_.end()) {
    return members_[it->second]->info().name;
  }
  return info_.name;
}

std::vector<MemberStats> Portfolio::member_stats() const {
  const std::vector<double> score = scores();
  double total = 0.0;
  for (double s : score) total += s;
  std::vector<MemberStats> out;
  out.reserve(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    MemberStats stats;
    stats.name = members_[i]->info().name;
    stats.asks = asks_[i];
    stats.tells = tells_[i];
    stats.hv_gain = gain_[i];
    stats.cost_seconds = cost_[i];
    stats.weight = total > 0.0 ? score[i] / total
                               : 1.0 / static_cast<double>(members_.size());
    out.push_back(std::move(stats));
  }
  return out;
}

std::unique_ptr<Portfolio> make_portfolio(const OptimizerContext& ctx) {
  std::vector<std::string> names = ctx.portfolio_members;
  if (names.empty()) names = {"nsga2", "random", "local", "surrogate"};
  std::vector<std::unique_ptr<Optimizer>> members;
  members.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "portfolio") {
      throw std::runtime_error("portfolio: cannot nest a portfolio member");
    }
    OptimizerContext member_ctx = ctx;
    // Independent random streams per member; member 0 keeps the campaign
    // seed so a single-member portfolio reproduces that searcher exactly.
    member_ctx.ga.seed = ctx.ga.seed + 7919 * i;
    members.push_back(OptimizerRegistry::create(names[i], member_ctx));
  }
  return std::make_unique<Portfolio>(std::move(members));
}

}  // namespace dovado::opt
