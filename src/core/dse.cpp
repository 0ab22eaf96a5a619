#include "src/core/dse.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>

#include "src/analysis/analyzer.hpp"
#include "src/analysis/render.hpp"
#include "src/opt/nds.hpp"
#include "src/opt/optimizer.hpp"
#include "src/util/strings.hpp"

namespace dovado::core {

namespace {

constexpr double kFailurePenalty = 1e18;

/// Dataset samples the NWM needs before it scores a quarantined point.
constexpr std::size_t kApproxFallbackMinSamples = 5;

}  // namespace

DseEngine::DseEngine(ProjectConfig project, DseConfig config)
    : DseEngine(std::move(project), std::move(config), nullptr) {}

DseEngine::DseEngine(ProjectConfig project, DseConfig config,
                     std::shared_ptr<EvaluationFleet> fleet)
    : project_(std::move(project)),
      config_(std::move(config)),
      own_fleet_(fleet == nullptr),
      fleet_(std::move(fleet)) {
  if (!own_fleet_ && (!config_.store_path.empty() || !config_.journal_path.empty())) {
    throw std::invalid_argument(
        "DseEngine: a store or journal belongs to the shared fleet's owner");
  }
  if (config_.space.params.empty()) {
    throw std::runtime_error("design space has no parameters");
  }
  if (config_.objectives.empty()) {
    throw std::runtime_error("at least one objective is required");
  }
  for (const auto& derived : config_.derived_metrics) {
    if (derived.name.empty() || !derived.compute) {
      throw std::runtime_error("derived metric needs a name and a compute function");
    }
  }
  if (!(config_.screen_keep_ratio > 0.0) || config_.screen_keep_ratio > 1.0) {
    throw std::runtime_error("screen_keep_ratio must be in (0, 1]");
  }
  // Optimizer selection fails loudly at construction, mirroring the
  // backend/objective-metric validation below (did-you-mean included).
  opt::OptimizerRegistry::ensure_known(config_.optimizer);
  if (config_.optimizer != "nsga2" && !config_.steady_state) {
    throw std::runtime_error("optimizer '" + config_.optimizer +
                             "' requires the steady-state engine (--steady-state); the "
                             "generational searcher is NSGA-II");
  }
  if (!config_.portfolio_members.empty() && config_.optimizer != "portfolio") {
    throw std::runtime_error(
        "portfolio_members is only valid with optimizer \"portfolio\" (got '" +
        config_.optimizer + "')");
  }
  {
    std::set<std::string> member_names;
    for (const auto& member : config_.portfolio_members) {
      opt::OptimizerRegistry::ensure_known(member);
      if (member == "portfolio") {
        throw std::runtime_error("portfolio members cannot nest another portfolio");
      }
      if (!member_names.insert(member).second) {
        throw std::runtime_error("duplicate portfolio member '" + member +
                                 "' (resume attribution is by member name)");
      }
    }
  }
  if (!config_.backend.empty()) project_.backend = config_.backend;

  if (own_fleet_) {
    BrokerConfig hifi;
    hifi.workers = config_.workers;
    hifi.virtual_lanes = config_.virtual_lanes;
    hifi.supervise = config_.supervise;
    hifi.fault_plan = config_.fault_plan;
    hifi.derived_metrics = config_.derived_metrics;
    hifi.deadline_tool_seconds = config_.deadline_tool_seconds;
    hifi.journal_path = config_.journal_path;
    hifi.resume_from_journal = config_.resume_from_journal;
    if (!config_.store_path.empty()) hifi.store = EvaluationFleet::open_store(config_.store_path);
    hifi.campaign_id = config_.campaign_id;
    fleet_ = std::make_shared<EvaluationFleet>(project_, std::move(hifi), config_.breaker);
  }
  EvaluationBroker& broker = fleet_->broker();
  const store::EvalStore* store = fleet_->store();
  if (store != nullptr) stats_.store_quarantined_records = store->stats().quarantined;

  // Validate metric names against what the backend actually reports, with
  // a did-you-mean suggestion — a typo'd objective must fail loudly at
  // construction, not silently optimize a metric that is always zero.
  const std::vector<std::string>& backend_metrics = broker.metric_names();
  const auto is_backend_metric = [&](const std::string& name) {
    return std::find(backend_metrics.begin(), backend_metrics.end(), name) !=
           backend_metrics.end();
  };
  std::vector<std::string> known = backend_metrics;
  for (const auto& derived : config_.derived_metrics) {
    if (is_backend_metric(derived.name)) {
      throw std::runtime_error("derived metric '" + derived.name +
                               "' shadows a tool metric");
    }
    known.push_back(derived.name);
  }
  for (const auto& obj : config_.objectives) {
    if (std::find(known.begin(), known.end(), obj.metric) != known.end()) continue;
    std::string message = "unknown objective metric '" + obj.metric + "'";
    const std::string suggestion = util::closest_match(obj.metric, known);
    if (!suggestion.empty()) message += " (did you mean '" + suggestion + "'?)";
    message += "; backend '" + broker.backend_info().name +
               "' reports: " + util::join(known, ", ");
    throw std::runtime_error(message);
  }

  // Validate that every space parameter exists on the module and is free.
  if (const std::string error = space_parameter_error(config_.space, broker.module());
      !error.empty()) {
    throw std::runtime_error(error);
  }

  // Multi-fidelity screening runs on the analytic tier: build its broker
  // now rather than on the first hedge.
  if (screening()) (void)fleet_->analytic();
  probes_ = std::make_unique<ProbeQueue>(*fleet_);

  if (config_.use_approximation) {
    control_ = std::make_unique<model::ControlModel>(config_.control);
  }

  // Warm start: tool-backed points from a previous session pre-populate the
  // shared evaluation cache (and the approximation dataset), so the resumed
  // exploration treats them as already-paid-for tool runs.
  for (const auto& point : config_.warm_start) {
    if (point.estimated) continue;  // only exact results may seed state
    EvalResult seeded;
    seeded.ok = !point.failed;
    seeded.metrics = point.metrics;
    if (point.failed) seeded.error = "failed in a previous session";
    broker.seed_cache(point.params, seeded);
    record(point.params, point.metrics, false, point.failed);
    if (!point.failed) grow_dataset(point.params, point.metrics);
  }

  // Crash recovery: mirror the fleet's replay into the explored set and the
  // dataset as the original run grew them, so a resumed model-guided run
  // makes the same decisions (empty for a shared fleet: its owner replayed).
  SessionJournal::Replay replay = fleet_->replay_journal();
  for (const JournalRecord& rec : replay.records) {
    record(rec.params, rec.metrics, false, !rec.ok);
    if (rec.ok) grow_dataset(rec.params, rec.metrics);
  }
  replayed_inflight_ = std::move(replay.inflight);
}

void DseEngine::run_probe_queue() {
  probes_->drain([this](const DesignPoint& point, const EvalResult& r) {
    add_side_tool_seconds(r.tool_seconds);
    tally(r);
    if (!r.ok) return;  // breaker handles the re-trip; the point is not recorded
    // A probe success is a paid-for exact answer: record it (superseding
    // any hedged estimate for the point) and grow the dataset.
    record(point, r.metrics, false, false);
    if (!r.cache_hit && !r.joined) grow_dataset(point, r.metrics);
  });
}

void DseEngine::add_side_tool_seconds(double seconds) {
  util::MutexLock lock(stats_mutex_);
  side_tool_seconds_ += seconds;
}

double DseEngine::side_tool_seconds() const {
  util::MutexLock lock(stats_mutex_);
  return side_tool_seconds_;
}

DseStats DseEngine::stats() const {
  DseStats snapshot;
  {
    util::MutexLock lock(stats_mutex_);
    snapshot = stats_;
  }
  const BrokerStats hifi = fleet_->broker().stats();
  snapshot.simulated_tool_seconds = hifi.tool_seconds;
  snapshot.deadline_hit = hifi.deadline_hit;
  snapshot.lease_waits = hifi.lease_waits;
  snapshot.retries = hifi.retries;
  snapshot.transient_failures = hifi.transient_failures;
  snapshot.deterministic_failures = hifi.deterministic_failures;
  snapshot.timeouts = hifi.timeouts;
  snapshot.quarantined = hifi.quarantined;
  snapshot.backoff_tool_seconds = hifi.backoff_tool_seconds;
  snapshot.journal_replays = hifi.journal_replays;
  snapshot.journal_skipped_records = hifi.journal_skipped_records;
  snapshot.store_hits = hifi.store_hits;
  snapshot.store_appends = hifi.store_appends;
  snapshot.faults_injected = hifi.faults_injected;
  snapshot.tool_seconds_utilization = hifi.utilization;
  snapshot.busy_tool_seconds = hifi.busy_tool_seconds;
  snapshot.virtual_makespan_seconds = hifi.virtual_makespan_seconds;
  snapshot.virtual_lanes = hifi.virtual_lanes;
  snapshot.backend_runs[fleet_->broker().backend_info().name] += hifi.fresh_runs;
  if (const EvaluationBroker* analytic = fleet_->built_analytic()) {
    const BrokerStats lofi = analytic->stats();
    if (screening()) {
      snapshot.screen_runs = lofi.fresh_runs;
      snapshot.screen_tool_seconds = lofi.tool_seconds;
    }
    snapshot.backend_runs[analytic->backend_info().name] += lofi.fresh_runs;
    snapshot.store_hits += lofi.store_hits;
    snapshot.store_appends += lofi.store_appends;
  }
  if (const BackendHealthManager* breakers = fleet_->health()) {
    const HealthStats health = breakers->stats();
    snapshot.breaker_trips = health.trips;
    snapshot.breaker_recoveries = health.recoveries;
    snapshot.breaker_fast_fails = health.fast_fails;
    snapshot.probe_runs = health.probe_runs;
  }
  return snapshot;
}

opt::Objectives DseEngine::to_objectives(const EvalMetrics& metrics) const {
  opt::Objectives objs;
  objs.reserve(config_.objectives.size());
  for (const auto& obj : config_.objectives) {
    const double v = metrics.get(obj.metric);
    objs.push_back(obj.maximize ? -v : v);
  }
  return objs;
}

model::Point DseEngine::to_model_point(const DesignPoint& point) const {
  model::Point p;
  p.reserve(config_.space.size());
  for (const auto& spec : config_.space.params) {
    p.push_back(static_cast<double>(point.at(spec.name)));
  }
  return p;
}

bool DseEngine::has_objectives(const EvalMetrics& metrics) const {
  return std::all_of(config_.objectives.begin(), config_.objectives.end(),
                     [&](const Objective& obj) { return metrics.values.count(obj.metric) != 0; });
}

EvalMetrics DseEngine::estimate_metrics(const DesignPoint& point) {
  const model::Values est = control_->estimate(to_model_point(point));
  EvalMetrics metrics;
  for (std::size_t k = 0; k < config_.objectives.size(); ++k) {
    metrics.values[config_.objectives[k].metric] = est[k];
  }
  return metrics;
}

std::optional<opt::Objectives> DseEngine::try_estimate(const DesignPoint& point) {
  if (!control_) return std::nullopt;
  // kCachedTool and kToolAndAdd both invoke the tool; the evaluation cache
  // answers instantly for the former.
  if (control_->decide_and_count(to_model_point(point)) != model::Decision::kEstimate) {
    return std::nullopt;
  }
  const EvalMetrics metrics = estimate_metrics(point);
  {
    util::MutexLock lock(stats_mutex_);
    ++stats_.estimates;
  }
  record(point, metrics, true, false);
  return to_objectives(metrics);
}

void DseEngine::grow_dataset(const DesignPoint& point, const EvalMetrics& metrics) {
  if (!control_ || !has_objectives(metrics)) return;
  // Only points of the current space are usable coordinates, and each
  // coordinate is a sample at most once: session, journal or store points
  // that differ only in a parameter outside the space project onto the
  // same coordinates.
  for (const auto& spec : config_.space.params) {
    if (point.count(spec.name) == 0) return;
  }
  model::Point coords = to_model_point(point);
  if (control_->dataset().find_exact(coords)) return;
  model::Values values;
  values.reserve(config_.objectives.size());
  for (const auto& obj : config_.objectives) values.push_back(metrics.get(obj.metric));
  control_->add_sample(std::move(coords), std::move(values));
}

void DseEngine::tally(const EvalResult& r) {
  util::MutexLock lock(stats_mutex_);
  if (r.cache_hit) ++stats_.cache_hits;
  else if (r.joined) ++stats_.single_flight_joins;
  else if (!r.store_hit) ++stats_.tool_runs;  // store hits counted by the broker
  if (!r.ok) ++stats_.failures;
}

DseEngine::Settled DseEngine::settle(const DesignPoint& point, const EvalResult& r,
                                     const EvalResult* hedge) {
  Settled out;
  if (r.fast_failed) {
    // Breaker open: the hi-fi backend was never touched, so no hi-fi tool
    // seconds are billed. Score from the hedge answer when the analytic tier
    // delivered one; the point is recorded estimated + approximate so front
    // verification re-verifies it hi-fi once (if) the backend recovers.
    if (hedge != nullptr && hedge->ok) {
      out.objectives = to_objectives(hedge->metrics);
      if (!r.joined) {
        util::MutexLock lock(stats_mutex_);
        ++stats_.degraded_evals;
      }
      record(point, hedge->metrics, /*estimated=*/true, /*failed=*/false,
             /*approximate=*/true);
    } else {
      // No hedge answer either: penalize but do not record — the point was
      // never actually evaluated by anything.
      out.objectives.assign(config_.objectives.size(), kFailurePenalty);
      util::MutexLock lock(stats_mutex_);
      ++stats_.failures;
    }
    return out;
  }
  tally(r);
  if (!r.ok) {
    out.tell_cost = r.tool_seconds;
    // Graceful degradation: a quarantined point (the tool kept failing,
    // not a property of the design) is scored with an NWM estimate when
    // the dataset can support one, instead of the +inf penalty that
    // would punch a hole in the front.
    if (r.quarantined && control_ &&
        control_->dataset().size() >= kApproxFallbackMinSamples) {
      const EvalMetrics metrics = estimate_metrics(point);
      out.objectives = to_objectives(metrics);
      {
        util::MutexLock lock(stats_mutex_);
        ++stats_.approx_fallbacks;
      }
      record(point, metrics, false, false, /*approximate=*/true);
    } else {
      out.objectives.assign(config_.objectives.size(), kFailurePenalty);
      if (r.failure == FailureClass::kDeterministic || !hedged(point)) {
        record(point, r.metrics, false, true);
      }
    }
    return out;
  }
  out.objectives = to_objectives(r.metrics);
  record(point, r.metrics, false, false);
  // Only fresh runs grow the dataset and bill the asking searcher; cache
  // hits, joins and store hits were already paid for.
  const bool fresh = !r.cache_hit && !r.joined;
  if (fresh) grow_dataset(point, r.metrics);
  if (fresh && !r.store_hit) out.tell_cost = r.tool_seconds;
  return out;
}

opt::Objectives DseEngine::settle_screen(const DesignPoint& point, const EvalMetrics& metrics) {
  // The screen backend reports the same metric names, so objectives and
  // derived metrics line up. Sticky screen-outs re-settle every time the
  // search resamples the point; only the first settle counts.
  if (record(point, metrics, true, false)) {
    util::MutexLock lock(stats_mutex_);
    ++stats_.screened_out;
  }
  return to_objectives(metrics);
}

std::vector<opt::Genome> DseEngine::seed_genomes(const std::vector<ExploredPoint>& points) const {
  std::vector<opt::Genome> genomes;
  std::vector<opt::Objectives> objs;
  for (const auto& point : points) {
    if (point.estimated || point.failed) continue;
    auto genome = config_.space.encode(point.params);
    if (!genome) continue;  // spaces may differ between sessions and campaigns
    genomes.push_back(std::move(*genome));
    objs.push_back(to_objectives(point.metrics));
  }
  std::vector<opt::Genome> seeds;
  for (std::size_t i : opt::non_dominated_indices(objs)) seeds.push_back(genomes[i]);
  return seeds;
}

bool DseEngine::hedged(const DesignPoint& point) {
  util::MutexLock lock(record_mutex_);
  auto it = explored_index_.find(point);
  return it != explored_index_.end() && explored_[it->second].estimated &&
         explored_[it->second].approximate;
}

bool DseEngine::record(const DesignPoint& point, const EvalMetrics& metrics, bool estimated,
                       bool failed, bool approximate) {
  util::MutexLock lock(record_mutex_);
  auto it = explored_index_.find(point);
  if (it != explored_index_.end()) {
    // A tool-backed answer supersedes an earlier estimate for the same point.
    if (explored_[it->second].estimated && !estimated) {
      explored_[it->second].metrics = metrics;
      explored_[it->second].estimated = false;
      explored_[it->second].failed = failed;
      explored_[it->second].approximate = approximate;
    }
    // An NWM fallback score supersedes the bare failure it degrades.
    if (explored_[it->second].failed && approximate) {
      explored_[it->second].metrics = metrics;
      explored_[it->second].failed = false;
      explored_[it->second].approximate = true;
    }
    return false;
  }
  explored_index_[point] = explored_.size();
  explored_.push_back(ExploredPoint{point, metrics, estimated, failed, approximate});
  return true;
}

void DseEngine::pretrain() {
  if (!control_ || config_.pretrain_samples == 0) return;

  // M *distinct* randomly sampled design points (Sec. III-C). Samples
  // contributed by a warm-started session count toward the budget.
  const std::size_t already = control_->dataset().size();
  if (already >= config_.pretrain_samples) return;
  util::Rng rng(config_.ga.seed ^ 0x9e3779b97f4a7c15ULL);
  std::set<DesignPoint> chosen;
  const std::int64_t volume = config_.space.volume();
  const std::size_t target =
      std::min<std::size_t>(config_.pretrain_samples - already,
                            static_cast<std::size_t>(std::min<std::int64_t>(
                                volume, std::numeric_limits<std::int64_t>::max())));
  int stale = 0;
  while (chosen.size() < target && stale < 10000) {
    std::vector<std::int64_t> genome(config_.space.size());
    for (std::size_t i = 0; i < genome.size(); ++i) {
      genome[i] = rng.uniform_int(0, config_.space.params[i].domain.size() - 1);
    }
    if (chosen.insert(config_.space.decode(genome)).second) stale = 0;
    else ++stale;
  }

  // The deadline is checked per sample, so a too-large pretrain set cannot
  // blow through the budget; pretraining completes before the search starts.
  const std::vector<DesignPoint> points(chosen.begin(), chosen.end());
  const std::vector<std::optional<EvalResult>> results = evaluate_points(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    // A fast-failed pretrain sample never ran: it is neither a pretrain
    // run nor a statement about the point.
    if (!results[i] || results[i]->fast_failed) continue;
    const EvalResult& r = *results[i];
    {
      util::MutexLock lock(stats_mutex_);
      ++stats_.pretrain_runs;
      if (!r.ok) ++stats_.failures;
    }
    record(points[i], r.metrics, false, !r.ok);
    if (r.ok) grow_dataset(points[i], r.metrics);
  }
}

std::vector<std::optional<EvalResult>> DseEngine::evaluate_points(
    const std::vector<DesignPoint>& points) {
  std::vector<std::optional<EvalResult>> results(points.size());
  fleet_->broker().parallel_for(points.size(), [&](std::size_t i) {
    if (fleet_->broker().deadline_exceeded()) return;
    results[i] = fleet_->broker().tool_evaluate(points[i]);
  });
  fleet_->broker().lane_barrier();  // a one-shot fan-out: the set closes together
  if (std::any_of(results.begin(), results.end(),
                  [](const std::optional<EvalResult>& r) { return !r; })) {
    fleet_->broker().mark_deadline_hit();
  }
  return results;
}

std::vector<std::optional<EvalResult>> DseEngine::screen_batch(
    const std::vector<DesignPoint>& unique_points) {
  std::vector<std::optional<EvalResult>> settled(unique_points.size());
  // Only uncached points are screened: anything the high-fidelity cache
  // already answers is forwarded (the hit is free and exact).
  std::vector<std::size_t> fresh;
  for (std::size_t ui = 0; ui < unique_points.size(); ++ui) {
    if (!fleet_->broker().cached(unique_points[ui])) fresh.push_back(ui);
  }
  if (fresh.empty()) return settled;

  // Screen-out decisions are sticky: a point that already holds a cached
  // screen answer lost the forwarding lottery in an earlier batch, and
  // re-entering it every time the GA resamples the point would leak most
  // of the screening savings (attractive points get re-proposed for
  // generations, and each re-ranking is another chance to be forwarded).
  // Such points settle from the cached estimate; only first-seen points
  // compete for the high-fidelity slots.
  EvaluationBroker& screener = fleet_->analytic();
  std::vector<char> sticky(fresh.size(), 0);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    sticky[i] = screener.cached(unique_points[fresh[i]]) ? 1 : 0;
  }

  std::vector<EvalResult> screens(fresh.size());
  screener.parallel_for(fresh.size(), [&](std::size_t i) {
    screens[i] = screener.tool_evaluate(unique_points[fresh[i]]);
  });

  // Rank the successful first-seen screens; failures are always forwarded
  // — the high-fidelity tool has the authoritative verdict on buildability.
  std::vector<std::size_t> ok_local;
  std::vector<opt::Objectives> objs;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (!screens[i].ok) continue;
    if (sticky[i]) {
      settled[fresh[i]] = screens[i];
      continue;
    }
    ok_local.push_back(i);
    objs.push_back(to_objectives(screens[i].metrics));
  }
  if (ok_local.empty()) return settled;
  const std::size_t keep = std::min<std::size_t>(
      ok_local.size(),
      static_cast<std::size_t>(std::ceil(config_.screen_keep_ratio *
                                         static_cast<double>(ok_local.size()))));
  if (keep >= ok_local.size()) return settled;  // nothing to screen out

  // Non-dominated fronts in order; the boundary front is thinned by
  // crowding distance so the kept subset stays spread along the front
  // (the NSGA-II survival rule, applied to the screen estimates).
  std::vector<char> kept(ok_local.size(), 0);
  std::size_t taken = 0;
  for (const auto& front : opt::fast_non_dominated_sort(objs)) {
    if (taken >= keep) break;
    if (taken + front.size() <= keep) {
      for (std::size_t member : front) kept[member] = 1;
      taken += front.size();
      continue;
    }
    const std::vector<double> crowd = opt::crowding_distance(objs, front);
    std::vector<std::size_t> order(front.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return crowd[a] > crowd[b]; });
    for (std::size_t k = 0; k < order.size() && taken < keep; ++k, ++taken) {
      kept[front[order[k]]] = 1;
    }
    break;
  }
  for (std::size_t j = 0; j < ok_local.size(); ++j) {
    if (!kept[j]) settled[fresh[ok_local[j]]] = std::move(screens[ok_local[j]]);
  }
  return settled;
}

std::vector<DseEngine::Rung> DseEngine::ladder(const std::vector<DesignPoint>& block) {
  std::vector<Rung> rungs(block.size());
  // Identical points collapse onto their first occurrence: one screen and
  // one forwarding verdict.
  std::vector<DesignPoint> unique_points;
  std::vector<std::size_t> unique_of(block.size());
  std::map<DesignPoint, std::size_t> unique_index;
  for (std::size_t i = 0; i < block.size(); ++i) {
    rungs[i].estimate = try_estimate(block[i]);
    if (rungs[i].estimate) continue;
    const auto [it, inserted] = unique_index.try_emplace(block[i], unique_points.size());
    if (inserted) unique_points.push_back(block[i]);
    unique_of[i] = it->second;
  }

  // Multi-fidelity screening: pre-rank the block's fresh points on the
  // low-fidelity broker; unpromising ones are settled with their screening
  // answer and never reach the high-fidelity tool. Skipped once the
  // deadline passed — the block is about to be cut anyway.
  if (!screening() || fleet_->broker().deadline_exceeded()) return rungs;
  const std::vector<std::optional<EvalResult>> screened = screen_batch(unique_points);
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (!rungs[i].estimate) rungs[i].screen = screened[unique_of[i]];
  }
  return rungs;
}

std::vector<ExploredPoint> DseEngine::evaluate_set(const std::vector<DesignPoint>& points) {
  const std::vector<std::optional<EvalResult>> answers = evaluate_points(points);
  std::vector<ExploredPoint> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ExploredPoint ep;
    ep.params = points[i];
    if (!answers[i]) {
      // Cut by the deadline: reported as failed, not recorded.
      ep.failed = true;
      out.push_back(std::move(ep));
      util::MutexLock lock(stats_mutex_);
      ++stats_.deadline_skips;
      continue;
    }
    const EvalResult& r = *answers[i];
    if (r.fast_failed) {
      // Breaker open: reported as failed, but not recorded as explored —
      // nothing ever evaluated the point.
      ep.failed = true;
      ep.metrics = r.metrics;
      out.push_back(std::move(ep));
      continue;
    }
    ep.metrics = r.metrics;
    ep.failed = !r.ok;
    out.push_back(std::move(ep));
    record(points[i], r.metrics, false, !r.ok);
  }
  return out;
}

void DseEngine::run_preflight() {
  if (!config_.preflight) return;
  const auto start = std::chrono::steady_clock::now();
  const analysis::LintReport report = analysis::preflight(project_, config_);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  {
    util::MutexLock lock(stats_mutex_);
    stats_.preflight_ms = elapsed_ms;
  }
  if (report.count(analysis::Severity::kError) > 0) {
    throw std::runtime_error("pre-flight lint found " +
                             std::to_string(report.count(analysis::Severity::kError)) +
                             " error(s):\n" + analysis::render_text(report) +
                             "(use --no-preflight to bypass the gate)");
  }
}

DseResult DseEngine::finish_campaign() {
  {
    util::MutexLock lock(stats_mutex_);
    // Generational: survivals, as the paper counts generations. Steady:
    // completions per population.
    const auto* generational = dynamic_cast<const opt::GenerationalNsga2*>(searcher_.get());
    stats_.generations = generational != nullptr ? generational->generations()
                         : config_.ga.population_size != 0
                             ? stats_.steady_completions / config_.ga.population_size
                             : 0;
    stats_.optimizer_name = config_.optimizer;
    stats_.optimizer_members = searcher_->member_stats();
  }

  // Assemble the non-dominated set over everything explored (tool results
  // and surviving estimates), excluding failures.
  auto build_front = [this]() {
    std::vector<std::size_t> candidate_indices;
    std::vector<opt::Objectives> objs;
    for (std::size_t i = 0; i < explored_.size(); ++i) {
      if (explored_[i].failed) continue;
      candidate_indices.push_back(i);
      objs.push_back(to_objectives(explored_[i].metrics));
    }
    std::vector<std::size_t> front;
    for (std::size_t local : opt::non_dominated_indices(objs)) {
      front.push_back(candidate_indices[local]);
    }
    return front;
  };

  std::vector<std::size_t> front = build_front();

  if (control_ || screening() || fleet_->health() != nullptr) {
    // Estimated points that made the front — NWM estimates, screened-out
    // survivors and hedged (breaker-degraded) members alike — get an exact
    // tool evaluation (growing the dataset), then the front is recomputed.
    // Correcting an optimistic estimate can let a previously-dominated
    // *estimated* point back into the front, so iterate until the front is
    // fully exact. With an open breaker a whole pass can fast-fail without
    // converting anything; such zero-progress passes get a bounded number
    // of probe-driven recovery attempts, after which the remaining front
    // members stay estimated (and flagged approximate) — a degraded-but-
    // complete answer beats hammering a dead backend forever.
    std::size_t zero_progress_passes = 0;
    while (zero_progress_passes < 4) {
      std::vector<DesignPoint> to_verify;
      std::vector<char> hedged;  ///< per to_verify: a breaker-degraded estimate
      for (std::size_t i : front) {
        if (!explored_[i].estimated) continue;
        to_verify.push_back(explored_[i].params);
        hedged.push_back(explored_[i].approximate ? 1 : 0);
      }
      if (to_verify.empty()) break;
      // Verification runs even past the deadline: the returned front must
      // be exact (estimated members re-evaluated by the tool, Sec. III-C).
      std::vector<EvalResult> results(to_verify.size());
      fleet_->broker().parallel_for(to_verify.size(), [&](std::size_t i) {
        results[i] = fleet_->broker().tool_evaluate(to_verify[i]);
      });
      std::size_t converted = 0;
      for (std::size_t i = 0; i < to_verify.size(); ++i) {
        add_side_tool_seconds(results[i].tool_seconds);
        if (results[i].fast_failed) {
          // Breaker still open: the hi-fi tier was never consulted, so the
          // hedged estimate stands (neither converted nor failed).
          continue;
        }
        if (hedged[i] && !results[i].ok &&
            results[i].failure != FailureClass::kDeterministic) {
          // A transient failure, typically a failed recovery probe's cached
          // answer, says the backend is still down, not what the point is:
          // the hedged estimate stands.
          continue;
        }
        ++converted;
        tally(results[i]);
        // The tool answer (or failure) supersedes the estimate.
        record(to_verify[i], results[i].metrics, false, !results[i].ok);
        if (results[i].ok && hedged[i]) {
          util::MutexLock lock(stats_mutex_);
          ++stats_.reverified_points;
        }
      }
      if (converted == 0) {
        // Give recovery one more chance per zero-progress pass: a probe
        // success closes the breaker and the next pass verifies for real.
        ++zero_progress_passes;
        run_probe_queue();
        continue;
      }
      zero_progress_passes = 0;
      front = build_front();
    }
  }

  DseResult result;
  for (std::size_t i : front) result.pareto.push_back(explored_[i]);
  // Stable presentation order: sort by the first objective (minimized view).
  std::sort(result.pareto.begin(), result.pareto.end(),
            [this](const ExploredPoint& a, const ExploredPoint& b) {
              return to_objectives(a.metrics) < to_objectives(b.metrics);
            });
  result.explored = explored_;
  result.stats = stats();
  return result;
}

}  // namespace dovado::core
