#include "src/core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace dovado::core {

CampaignLoop::CampaignLoop(DseEngine& engine, std::unique_ptr<opt::Problem> problem,
                           std::unique_ptr<opt::Optimizer> searcher,
                           std::function<bool()> stop_requested)
    : engine_(engine),
      problem_(std::move(problem)),
      searcher_(std::move(searcher)),
      stop_requested_(std::move(stop_requested)) {
  const DseConfig& config = engine_.config_;
  const opt::Nsga2Config& ga = config.ga;
  // The generational searcher is resolved in ask order: its block is the
  // generation, and its completions, estimates and screen-outs settle in
  // submission order, so explored order and NWM dataset growth do not
  // depend on thread timing. A steady searcher's completions resolve as
  // the driver delivers them, and its estimates and screen-outs are told
  // the moment they are asked.
  in_order_ = !config.steady_state;

  // A steady searcher gets the pop * (gens + 1) completions the generational
  // searcher asks. That one ends the run itself (a cap would let a replayed
  // inflight point cut its last generation).
  budget_ = in_order_                              ? std::numeric_limits<std::size_t>::max()
            : config.steady_state_evaluations != 0 ? config.steady_state_evaluations
                                                   : ga.population_size * (ga.max_generations + 1);

  // A steady searcher asks with fresher information the fewer asks are in
  // flight: one per lane. The generational searcher has asked its
  // generation already: without a deadline there is nothing to check
  // between submissions, so the whole generation goes out at once and the
  // lanes drain it without waiting on the driver; with one, two per lane
  // keep the lanes busy and bound the overshoot.
  if (config.max_inflight != 0) {
    max_inflight_ = config.max_inflight;
  } else if (in_order_ && std::isinf(config.deadline_tool_seconds)) {
    max_inflight_ = std::max<std::size_t>(1, ga.population_size);
  } else {
    const std::size_t lanes = engine_.fleet_->broker().virtual_lane_count();
    max_inflight_ = std::max<std::size_t>(1, in_order_ ? 2 * lanes : lanes);
  }

  // Screening ranks a population of asks, as it ranks a generation, so
  // ceil(keep x block) forwards about the intended fraction (a lane-sized
  // block of 3 at keep 0.4 would forward 2). Otherwise a steady block is
  // one ask, submitted the moment it is asked.
  block_size_ = engine_.screening() || in_order_ ? std::max<std::size_t>(1, ga.population_size)
                                                 : 1;

  // Resume: inflight points journaled by a crashed campaign are submitted
  // first, exactly once, and directly — the crashed campaign already
  // committed them to high fidelity, so they bypass the ladder (reserve()
  // keeps a steady searcher from regenerating them). reserve_for restores
  // the recorded attribution so the eventual tell() lands on the portfolio
  // member that originally asked.
  std::size_t replayed = 0;
  for (const InflightMark& mark : engine_.replayed_inflight_) {
    auto genome = config.space.encode(mark.params);
    if (!genome) continue;  // the space changed; the point is unreachable now
    searcher_->reserve_for(*genome, mark.optimizer);
    ++replayed;
    if (queue_.size() < budget_) queue_.push_back(Slot{std::move(*genome), mark.params});
  }
  submitted_ = queue_.size();
  util::MutexLock lock(engine_.stats_mutex_);
  engine_.stats_.inflight_replayed += replayed;
}

bool CampaignLoop::done() const {
  return pending_.empty() &&
         (stopped_ || (queue_.empty() && (submitted_ >= budget_ || searcher_->waiting())));
}

std::optional<CampaignLoop::Dispatch> CampaignLoop::take() {
  const bool has_deadline = !std::isinf(engine_.config_.deadline_tool_seconds);
  while (true) {
    while (!stopped_ && inflight_ < max_inflight_ &&
           (!queue_.empty() || (submitted_ < budget_ && !searcher_->waiting()))) {
      const bool deadline = has_deadline && engine_.fleet_->broker().deadline_exceeded();
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
        util::MutexLock lock(engine_.stats_mutex_);
        ++engine_.stats_.ga_evaluations;
      }
      // The inflight marker makes submission crash-safe: a campaign that
      // dies now re-submits the point exactly once on resume, and the
      // attribution routes the answer to the member that asked for it.
      EvaluationBroker& broker = engine_.fleet_->broker();
      if (!engine_.config_.journal_path.empty() && !broker.cached(slot.point)) {
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

void CampaignLoop::complete(std::size_t ticket, std::optional<EvalResult> result) {
  const auto it = pending_.find(ticket);
  if (it == pending_.end()) return;
  it->second.result = std::move(result);
  it->second.answered = true;
  if (!in_order_ || it == pending_.begin()) resolve(it);
}

// Ask up to `n` proposals (fewer when the searcher starts waiting) and run
// them through the ladder. The lanes meet at a barrier before the first
// block after the searcher waited: the generational sync point.
void CampaignLoop::ask_block(std::size_t n) {
  if (barrier_due_) engine_.fleet_->broker().lane_barrier();
  std::vector<opt::Genome> genomes;
  std::vector<DesignPoint> points;
  while (genomes.size() < n && !searcher_->waiting()) {
    genomes.push_back(searcher_->ask());
    points.push_back(engine_.config_.space.decode(genomes.back()));
  }
  barrier_due_ = searcher_->waiting();
  submitted_ += genomes.size();
  std::vector<DseEngine::Rung> rungs = engine_.ladder(points);
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    Slot slot{std::move(genomes[i]), std::move(points[i]), std::move(rungs[i])};
    if (slot.rung.forwarded() || in_order_) {
      queue_.push_back(std::move(slot));
    } else {
      tell(slot);
    }
  }
}

// Answers the ladder already gave are still told; queued forwarded points
// never reach the tool.
void CampaignLoop::stop(bool deadline) {
  if (deadline) engine_.fleet_->broker().mark_deadline_hit();
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
    util::MutexLock lock(engine_.stats_mutex_);
    engine_.stats_.deadline_skips += skipped;
  }
}

void CampaignLoop::resolve(std::map<std::size_t, Slot>::iterator it) {
  Slot slot = std::move(it->second);
  pending_.erase(it);
  if (slot.rung.forwarded()) --inflight_;
  tell(slot);
}

void CampaignLoop::tell(Slot& slot) {
  // Tell one slot's answer: its estimate or screen-out, or its broker
  // answer through settle(), hedging a fast-fail on the analytic tier.
  if (!slot.rung.forwarded()) {
    searcher_->tell(slot.genome,
                    slot.rung.estimate
                        ? std::move(*slot.rung.estimate)
                        : engine_.settle_screen(slot.point, slot.rung.screen->metrics));
    util::MutexLock lock(engine_.stats_mutex_);
    ++engine_.stats_.ga_evaluations;
    ++engine_.stats_.steady_completions;
    return;
  }
  if (!slot.result) return;  // dropped before it ran: nothing to tell
  const EvalResult& result = *slot.result;
  std::optional<EvalResult> hedge;
  if (result.fast_failed) {
    hedge = engine_.fleet_->analytic().tool_evaluate(slot.point);
    engine_.probes_->push(slot.point);
  }
  const DseEngine::Settled answer =
      engine_.settle(slot.point, result, hedge ? &*hedge : nullptr);
  searcher_->tell(slot.genome, answer.objectives, answer.tell_cost);
  {
    util::MutexLock lock(engine_.stats_mutex_);
    ++engine_.stats_.steady_completions;
  }
  // Breaker recovery is tested after every completion.
  engine_.run_probe_queue();
}

}  // namespace dovado::core
