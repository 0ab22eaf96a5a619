// The campaign: the one ask/tell loop every DseEngine campaign runs through
// (see DESIGN.md "Steady-state engine"). The engine holds the searcher, the
// asked points awaiting submission, the submitted ones awaiting answers,
// the budget, the in-flight bound and the deadline/stop rule, and is driven
// by three calls that its driver serializes: take(), complete() and
// done(). Two drivers run it: run_campaign() below (pool runners, answers
// picked by virtual finish) and serve::Server (each take() becomes a job in
// the fair-share scheduler).
#include "src/core/dse.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/opt/optimizer.hpp"
#include "src/util/logging.hpp"

namespace dovado::core {

namespace {

/// Adapts the design space to the optimizer's Problem interface. The
/// searchers only sample and mate in index space; the engine scores their
/// asks through the campaign loop, never through evaluate().
class DovadoProblem final : public opt::Problem {
 public:
  DovadoProblem(const DesignSpace& space, std::size_t n_obj)
      : space_(space), n_obj_(n_obj) {}

  [[nodiscard]] std::size_t n_vars() const override { return space_.size(); }
  [[nodiscard]] std::size_t n_objectives() const override { return n_obj_; }
  [[nodiscard]] std::int64_t cardinality(std::size_t var) const override {
    return space_.params[var].domain.size();
  }

  [[nodiscard]] opt::Objectives evaluate(const opt::Genome& /*genome*/) override {
    throw std::logic_error("DseEngine scores genomes through its campaign loop");
  }

 private:
  const DesignSpace& space_;
  std::size_t n_obj_;
};

}  // namespace

DseResult DseEngine::run(const std::function<bool()>& stop_requested) {
  start_campaign(stop_requested);
  run_campaign();
  return finish_campaign();
}

void DseEngine::start_campaign(std::function<bool()> stop_requested) {
  // A second campaign would explore over the first one's records, dataset
  // and counters.
  if (campaign_started_) throw std::logic_error("DseEngine runs one campaign");
  campaign_started_ = true;
  run_preflight();
  pretrain();

  problem_ = std::make_unique<DovadoProblem>(config_.space, config_.objectives.size());
  stop_requested_ = std::move(stop_requested);

  opt::Nsga2Config ga = config_.ga;
  if (!config_.warm_start.empty() && ga.initial_genomes.empty()) {
    // Continue from the previous session: seed the initial population with
    // the front of the warm-started points.
    ga.initial_genomes = seed_genomes(config_.warm_start);
  }
  if (const store::EvalStore* store = fleet_->store();
      store != nullptr && config_.store_warm_start && ga.initial_genomes.empty()) {
    // No explicit warm-start file: seed from the cross-campaign store
    // instead. Only exact hi-fi answers for *this* backend count — screen
    // estimates and approximate scores never steer the initial population.
    std::vector<ExploredPoint> exact;
    for (const auto& rec : store->live_records()) {
      if (rec.tier != store::EvalStore::kTierHifi) continue;
      if (rec.backend != fleet_->broker().backend_info().name) continue;
      if (!rec.ok || rec.approximate) continue;
      ExploredPoint point{rec.params, EvalMetrics{rec.metrics}};
      if (has_objectives(point.metrics)) exact.push_back(std::move(point));
    }
    ga.initial_genomes = seed_genomes(exact);
    if (!ga.initial_genomes.empty()) {
      {
        util::MutexLock lock(stats_mutex_);
        stats_.store_seeded_points = ga.initial_genomes.size();
      }
      util::Log::info("seeded initial population with " +
                      std::to_string(ga.initial_genomes.size()) +
                      " non-dominated point(s) from the evaluation store");
    }
  }

  // The engine drives every searcher through the ask/tell Optimizer
  // interface only. A steady-state campaign resolves its searcher by name
  // through the registry (nsga2, random, local, surrogate, exhaustive, or
  // the bandit portfolio), so new searchers plug in without touching the
  // loop; the generational campaign runs the paper's generational NSGA-II.
  if (config_.steady_state) {
    opt::OptimizerContext opt_ctx;
    opt_ctx.problem = problem_.get();
    opt_ctx.ga = ga;
    opt_ctx.portfolio_members = config_.portfolio_members;
    // Only an engine that built its own fleet hooks the NWM into the
    // surrogate sampler. With the hook set, each surrogate proposal draws
    // a batch of random candidates to rank instead of one genome, so
    // hooking a daemon campaign would change what it explores.
    if (own_fleet_) {
      opt_ctx.surrogate = [this](const opt::Genome& genome) -> std::optional<opt::Objectives> {
        // NWM estimates back the surrogate-guided sampler; without enough
        // samples the model has nothing to say and the sampler degrades to
        // random search.
        if (!control_ || control_->dataset().size() < 2) return std::nullopt;
        return to_objectives(estimate_metrics(config_.space.decode(genome)));
      };
    }
    searcher_ = opt::OptimizerRegistry::create(config_.optimizer, opt_ctx);
  } else {
    searcher_ = std::make_unique<opt::GenerationalNsga2>(ga, *problem_);
  }

  // The generational searcher is resolved in ask order: its block is the
  // generation, and its completions, estimates and screen-outs settle in
  // submission order, so explored order and NWM dataset growth do not
  // depend on thread timing. A steady searcher's completions resolve as
  // the driver delivers them, and its estimates and screen-outs are told
  // the moment they are asked.
  in_order_ = !config_.steady_state;

  // A steady searcher gets the pop * (gens + 1) completions the generational
  // searcher asks. That one ends the run itself (a cap would let a replayed
  // inflight point cut its last generation).
  budget_ = in_order_                               ? std::numeric_limits<std::size_t>::max()
            : config_.steady_state_evaluations != 0 ? config_.steady_state_evaluations
                                                    : ga.population_size * (ga.max_generations + 1);

  // A steady searcher asks with fresher information the fewer asks are in
  // flight: one per lane. The generational searcher has asked its
  // generation already: without a deadline there is nothing to check
  // between submissions, so the whole generation goes out at once and the
  // lanes drain it without waiting on the driver; with one, two per lane
  // keep the lanes busy and bound the overshoot.
  if (config_.max_inflight != 0) {
    max_inflight_ = config_.max_inflight;
  } else if (in_order_ && std::isinf(config_.deadline_tool_seconds)) {
    max_inflight_ = std::max<std::size_t>(1, ga.population_size);
  } else {
    const std::size_t lanes = fleet_->broker().virtual_lane_count();
    max_inflight_ = std::max<std::size_t>(1, in_order_ ? 2 * lanes : lanes);
  }

  // Screening ranks a population of asks, as it ranks a generation, so
  // ceil(keep x block) forwards about the intended fraction (a lane-sized
  // block of 3 at keep 0.4 would forward 2). Otherwise a steady block is
  // one ask, submitted the moment it is asked.
  block_size_ = screening() || in_order_ ? std::max<std::size_t>(1, ga.population_size) : 1;

  // Resume: inflight points journaled by a crashed campaign are submitted
  // first, exactly once, and directly — the crashed campaign already
  // committed them to high fidelity, so they bypass the ladder (reserve()
  // keeps a steady searcher from regenerating them). reserve_for restores
  // the recorded attribution so the eventual tell() lands on the portfolio
  // member that originally asked.
  std::size_t replayed = 0;
  for (const InflightMark& mark : replayed_inflight_) {
    auto genome = config_.space.encode(mark.params);
    if (!genome) continue;  // the space changed; the point is unreachable now
    searcher_->reserve_for(*genome, mark.optimizer);
    ++replayed;
    if (queue_.size() < budget_) queue_.push_back(Slot{std::move(*genome), mark.params});
  }
  submitted_ = queue_.size();
  util::MutexLock lock(stats_mutex_);
  stats_.inflight_replayed += replayed;
}

bool DseEngine::done() const {
  return pending_.empty() &&
         (stopped_ || (queue_.empty() && (submitted_ >= budget_ || searcher_->waiting())));
}

std::optional<DseEngine::Dispatch> DseEngine::take() {
  const bool has_deadline = !std::isinf(config_.deadline_tool_seconds);
  while (true) {
    while (!stopped_ && inflight_ < max_inflight_ &&
           (!queue_.empty() || (submitted_ < budget_ && !searcher_->waiting()))) {
      const bool deadline = has_deadline && fleet_->broker().deadline_exceeded();
      if (deadline || (stop_requested_ && stop_requested_())) {
        stop(deadline);
        break;
      }
      if (queue_.empty()) ask_block(std::min(block_size_, budget_ - submitted_));
      if (queue_.empty()) continue;  // the whole block was told already
      Slot slot = std::move(queue_.front());
      queue_.pop_front();
      const std::size_t ticket = next_ticket_++;
      if (!slot.rung.forwarded()) {
        // In order only: a ladder answer waits for its turn to be told.
        slot.answered = true;
        pending_.emplace(ticket, std::move(slot));
        continue;
      }
      {
        util::MutexLock lock(stats_mutex_);
        ++stats_.ga_evaluations;
      }
      // The inflight marker makes submission crash-safe: a campaign that
      // dies now re-submits the point exactly once on resume, and the
      // attribution routes the answer to the member that asked for it.
      EvaluationBroker& broker = fleet_->broker();
      if (!config_.journal_path.empty() && !broker.cached(slot.point)) {
        broker.journal_inflight(slot.point, searcher_->attributed_to(slot.genome));
      }
      ++inflight_;
      Dispatch dispatch{ticket, slot.point};
      pending_.emplace(ticket, std::move(slot));
      return dispatch;
    }
    // In order, the oldest outstanding slot is told once it is answered.
    if (in_order_ && !pending_.empty() && pending_.begin()->second.answered) {
      resolve(pending_.begin());
      continue;
    }
    return std::nullopt;
  }
}

void DseEngine::complete(std::size_t ticket, std::optional<EvalResult> result) {
  const auto it = pending_.find(ticket);
  if (it == pending_.end()) return;
  it->second.result = std::move(result);
  it->second.answered = true;
  if (!in_order_ || it == pending_.begin()) resolve(it);
}

// The lanes meet at a barrier before the first block after the searcher
// waited: the generational sync point.
void DseEngine::ask_block(std::size_t n) {
  if (barrier_due_) fleet_->broker().lane_barrier();
  std::vector<opt::Genome> genomes;
  std::vector<DesignPoint> points;
  while (genomes.size() < n && !searcher_->waiting()) {
    genomes.push_back(searcher_->ask());
    points.push_back(config_.space.decode(genomes.back()));
  }
  barrier_due_ = searcher_->waiting();
  submitted_ += genomes.size();
  std::vector<Rung> rungs = ladder(points);
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    Slot slot{std::move(genomes[i]), std::move(points[i]), std::move(rungs[i])};
    if (slot.rung.forwarded() || in_order_) {
      queue_.push_back(std::move(slot));
    } else {
      tell(slot);
    }
  }
}

// Answers the ladder already gave are still told.
void DseEngine::stop(bool deadline) {
  if (deadline) fleet_->broker().mark_deadline_hit();
  stopped_ = true;
  std::size_t skipped = 0;
  for (Slot& slot : queue_) {
    if (slot.rung.forwarded()) {
      ++skipped;
    } else {
      slot.answered = true;
      pending_.emplace(next_ticket_++, std::move(slot));
    }
  }
  queue_.clear();
  if (deadline) {
    util::MutexLock lock(stats_mutex_);
    stats_.deadline_skips += skipped;
  }
}

void DseEngine::resolve(std::map<std::size_t, Slot>::iterator it) {
  Slot slot = std::move(it->second);
  pending_.erase(it);
  if (slot.rung.forwarded()) --inflight_;
  tell(slot);
}

void DseEngine::tell(Slot& slot) {
  if (!slot.rung.forwarded()) {
    searcher_->tell(slot.genome,
                    slot.rung.estimate
                        ? std::move(*slot.rung.estimate)
                        : settle_screen(slot.point, slot.rung.screen->metrics));
    util::MutexLock lock(stats_mutex_);
    ++stats_.ga_evaluations;
    ++stats_.steady_completions;
    return;
  }
  if (!slot.result) return;  // dropped before it ran: nothing to tell
  const EvalResult& result = *slot.result;
  std::optional<EvalResult> hedge;
  if (result.fast_failed) {
    hedge = fleet_->analytic().tool_evaluate(slot.point);
    probes_->push(slot.point);
  }
  const Settled answer = settle(slot.point, result, hedge ? &*hedge : nullptr);
  searcher_->tell(slot.genome, answer.objectives, answer.tell_cost);
  {
    util::MutexLock lock(stats_mutex_);
    ++stats_.steady_completions;
  }
  // Breaker recovery is tested after every completion.
  run_probe_queue();
}

void DseEngine::run_campaign() {
  // One dispatched point: its ticket, and the broker answer a lane wrote
  // before publishing it into Lanes::ready.
  struct Run {
    std::size_t ticket = 0;
    DesignPoint point;
    EvalResult result{};
    std::exception_ptr error{};
  };
  // Shared with the pool's runners, which may outlive this call.
  struct Lanes {
    util::Mutex mu{"DseEngine.campaign"};
    util::CondVar cv;
    std::deque<Run> unstarted DOVADO_GUARDED_BY(mu);
    std::vector<Run> ready DOVADO_GUARDED_BY(mu);
    std::size_t runners DOVADO_GUARDED_BY(mu) = 0;  ///< pool tasks draining `unstarted`
  };
  const auto lanes = std::make_shared<Lanes>();
  // One runner per pool worker drains `unstarted` oldest first; inline
  // (no workers) the one runner runs each point at dispatch.
  const std::size_t max_runners = std::max<std::size_t>(1, config_.workers);

  // Run one point on the calling lane and publish its answer.
  const auto run_point = [this, lanes](Run run) {
    try {
      run.result = fleet_->broker().tool_evaluate(run.point);
    } catch (...) {
      run.error = std::current_exception();
    }
    util::MutexLock lock(lanes->mu);
    lanes->ready.push_back(std::move(run));
    lanes->cv.notify_one();
  };
  const auto runner = [lanes, run_point] {
    while (true) {
      Run run;
      {
        util::MutexLock lock(lanes->mu);
        if (lanes->unstarted.empty()) {
          if (--lanes->runners == 0) lanes->cv.notify_all();
          return;
        }
        run = std::move(lanes->unstarted.front());
        lanes->unstarted.pop_front();
      }
      run_point(std::move(run));
    }
  };

  // On every exit, a rethrown evaluation error included, no runner may
  // still reach into the broker once this call returns: the points not yet
  // started are dropped and the running ones finish first.
  struct Quiesce {
    Lanes& lanes;
    ~Quiesce() {
      util::MutexLock lock(lanes.mu);
      lanes.unstarted.clear();
      while (lanes.runners != 0) lanes.cv.wait(lanes.mu);
    }
  } const quiesce{*lanes};

  // Dispatch what take() hands out, then hand one answer back, until the
  // campaign is done.
  const bool in_order = in_order_;
  while (true) {
    while (std::optional<Dispatch> dispatch = take()) {
      bool start_runner = false;
      {
        util::MutexLock lock(lanes->mu);
        lanes->unstarted.push_back(Run{dispatch->ticket, std::move(dispatch->point)});
        if (lanes->runners < max_runners) {
          ++lanes->runners;
          start_runner = true;
        }
      }
      if (start_runner) fleet_->broker().async(runner);
    }
    if (done()) break;
    Run next;
    {
      util::MutexLock lock(lanes->mu);
      while (true) {
        // In order: the oldest ticket. Otherwise the earliest virtual
        // finish, then ticket. Inline, every dispatch runs at once, so this
        // replays the virtual fleet's completion schedule exactly; under
        // real threads it is the closest deterministic-given-completion-
        // order approximation.
        auto& ready = lanes->ready;
        const auto best = std::min_element(
            ready.begin(), ready.end(), [in_order](const Run& a, const Run& b) {
              if (!in_order && a.result.virtual_finish != b.result.virtual_finish) {
                return a.result.virtual_finish < b.result.virtual_finish;
              }
              return a.ticket < b.ticket;
            });
        if (best != ready.end()) {
          next = std::move(*best);
          ready.erase(best);
          break;
        }
        if (!lanes->unstarted.empty()) {
          // Nothing to hand back yet: the calling thread is a lane too.
          Run run = std::move(lanes->unstarted.front());
          lanes->unstarted.pop_front();
          lock.unlock();
          run_point(std::move(run));
          lock.lock();
          continue;
        }
        lanes->cv.wait(lanes->mu);
      }
    }
    if (next.error) std::rethrow_exception(next.error);
    complete(next.ticket, std::move(next.result));
  }
}

}  // namespace dovado::core
