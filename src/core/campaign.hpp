// The campaign loop: the one ask/tell loop every campaign runs through
// (see DESIGN.md "Steady-state engine"). It holds the searcher, the asked
// points awaiting submission, the submitted ones awaiting answers, the
// budget, the in-flight bound and the deadline/stop rule, and is driven by
// three calls that the caller serializes. Two drivers run it:
// DseEngine::run (pool runners, answers picked by virtual finish) and
// serve::Server (each take() becomes a job in the fair-share scheduler).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/dse.hpp"
#include "src/opt/optimizer_base.hpp"

namespace dovado::core {

class CampaignLoop {
 public:
  /// A point to evaluate on the high-fidelity tier; its answer comes back
  /// through complete(ticket, ...). Tickets count submissions.
  struct Dispatch {
    std::size_t ticket = 0;
    DesignPoint point;
  };

  /// The next point to dispatch, or std::nullopt when none can go now (the
  /// in-flight bound, a waiting searcher, a spent budget or a stop). Asks
  /// a block through the engine's ladder when the queue is empty, and
  /// tells the answers the ladder gave. Checks the stop request, and the
  /// tool deadline when there is one, before every submission.
  [[nodiscard]] std::optional<Dispatch> take();

  /// The answer for a dispatched point, or std::nullopt when it was
  /// dropped without running (nothing is told). Scored through the
  /// engine's settle(), hedged on the analytic tier when it fast-failed,
  /// then told, then the breaker's recovery probes run. In order, an early
  /// answer waits for the ones before it (take() tells those that fall
  /// due).
  void complete(std::size_t ticket, std::optional<EvalResult> result);

  /// True when nothing is outstanding and the budget is spent, the
  /// searcher waits with nothing in flight, or submission stopped.
  [[nodiscard]] bool done() const;

  /// Answers are told in submission order (the generational searcher)
  /// rather than as they arrive.
  [[nodiscard]] bool in_order() const { return in_order_; }

  [[nodiscard]] const opt::Optimizer& searcher() const { return *searcher_; }

 private:
  friend class DseEngine;

  struct Slot {
    opt::Genome genome;
    DesignPoint point;
    DseEngine::Rung rung{};
    std::optional<EvalResult> result{};  ///< the broker answer, once delivered
    bool answered = false;  ///< ready to tell: a ladder answer, a broker answer or a drop
  };

  CampaignLoop(DseEngine& engine, std::unique_ptr<opt::Problem> problem,
               std::unique_ptr<opt::Optimizer> searcher,
               std::function<bool()> stop_requested);

  void ask_block(std::size_t n);
  void stop(bool deadline);
  void resolve(std::map<std::size_t, Slot>::iterator it);
  void tell(Slot& slot);

  DseEngine& engine_;
  std::unique_ptr<opt::Problem> problem_;
  std::unique_ptr<opt::Optimizer> searcher_;
  std::function<bool()> stop_requested_;
  bool in_order_ = false;
  std::size_t budget_ = 0;        ///< asks plus replayed points
  std::size_t max_inflight_ = 1;  ///< forwarded points outstanding at once
  std::size_t block_size_ = 1;    ///< asks per ladder block

  std::deque<Slot> queue_;               ///< asked, awaiting submission
  std::map<std::size_t, Slot> pending_;  ///< submitted, not yet told, by ticket
  std::size_t submitted_ = 0;            ///< against the budget
  std::size_t inflight_ = 0;             ///< forwarded and not yet told
  std::size_t next_ticket_ = 0;
  bool barrier_due_ = false;  ///< the searcher waited since the last block
  bool stopped_ = false;      ///< submission stopped (deadline or stop request)
};

}  // namespace dovado::core
