// Engine-path golden: every way DseEngine scores an evaluation answer, on
// both engines.
//
// Runs small inline (workers = 0) campaigns on the cv32e40p FIFO, once with
// the generational searcher and once with the steady-state one, in seven
// scenarios that between them reach every scoring path:
//   nwm         NWM estimates after pretraining, plus front verification
//               (the steady run uses the portfolio, whose surrogate member
//               asks the NWM too);
//   quarantine  persistent aborts quarantined and scored by the NWM fallback;
//   screening   multi-fidelity screening at keep ratio 0.4;
//   outage      a finite tool outage: breaker trip, hedge, probe, recovery;
//   screened-outage
//               screening at keep ratio 0.4 under the same outage, so the
//               hedges are served by the broker that also screens;
//   deadline    a tool-seconds deadline that cuts the campaign short;
//   resume      a donor campaign banks into a store and a journal; a second
//               campaign resumes the journal (with one orphaned inflight
//               marker), seeds from the store; a third warm-starts from the
//               donor's explored points;
//   duplicates  a generational campaign on a five-point space, whose
//               generations repeat genomes (cache hits), clean and under a
//               permanent outage (repeats of hedged points).
//
// Usage: engine_paths [--json FILE]
//   --json FILE  write every explored point (in engine order), the front and
//                the deterministic DseStats counters (all but preflight_ms),
//                values with %.17g, so tests/golden/engine_paths.json can be
//                compared exactly. Without it the JSON goes to stdout.
//                Scratch journal and store files are made next to FILE (or
//                in the temp directory) and removed afterwards.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/dse.hpp"
#include "src/core/journal.hpp"
#include "src/util/logging.hpp"

using namespace dovado;

namespace {

core::ProjectConfig fifo_project() {
  core::ProjectConfig project;
  project.sources.push_back({std::string(DOVADO_RTL_DIR) + "/cv32e40p_fifo.sv",
                             hdl::HdlLanguage::kSystemVerilog, "work", false});
  project.top_module = "cv32e40p_fifo";
  project.part = "xc7k70t";
  project.target_period_ns = 1.0;
  return project;
}

core::DseConfig base_config(bool steady) {
  core::DseConfig config;
  config.space.params.push_back({"DEPTH", core::ParamDomain::range(8, 200)});
  config.objectives = {{"lut", false}, {"fmax_mhz", true}};
  config.ga.population_size = 10;
  config.ga.max_generations = 5;
  config.ga.seed = 11;
  config.workers = 0;
  config.steady_state = steady;
  return config;
}

edatool::FaultPlan plan_of(const std::string& spec) {
  std::string error;
  const auto plan = edatool::FaultPlan::parse(spec, error);
  if (!plan) {
    std::fprintf(stderr, "engine_paths: bad fault plan '%s': %s\n", spec.c_str(),
                 error.c_str());
    std::exit(2);
  }
  return *plan;
}

void remove_scratch(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* out) : out_(out) {}

  void begin() { std::fprintf(out_, "{\"runs\": [\n"); }
  void end() { std::fprintf(out_, "\n]}\n"); }

  void run(const std::string& scenario, const core::DseConfig& config,
           const core::DseEngine& engine, const core::DseResult& result) {
    std::fprintf(out_, "%s{\"scenario\": \"%s\", \"engine\": \"%s\",\n", first_run_ ? "" : ",\n",
                 scenario.c_str(), config.steady_state ? "steady" : "generational");
    first_run_ = false;
    const auto* model = engine.control_model();
    std::fprintf(out_, " \"model_samples\": %s,\n",
                 num(model != nullptr ? static_cast<double>(model->dataset().size()) : -1.0)
                     .c_str());
    stats(result.stats);
    points("explored", result.explored);
    std::fprintf(out_, ",\n");
    points("front", result.pareto);
    std::fprintf(out_, "}");
  }

 private:
  static std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  static std::string num(std::size_t v) { return num(static_cast<double>(v)); }

  void stats(const core::DseStats& s) {
    std::string line = " \"stats\": {";
    const auto field = [&line](const char* name, const std::string& value) {
      if (line.back() != '{') line += ", ";
      line += "\"" + std::string(name) + "\": " + value;
    };
    field("ga_evaluations", num(s.ga_evaluations));
    field("tool_runs", num(s.tool_runs));
    field("estimates", num(s.estimates));
    field("cache_hits", num(s.cache_hits));
    field("failures", num(s.failures));
    field("pretrain_runs", num(s.pretrain_runs));
    field("simulated_tool_seconds", num(s.simulated_tool_seconds));
    field("deadline_hit", s.deadline_hit ? "true" : "false");
    field("generations", num(s.generations));
    field("single_flight_joins", num(s.single_flight_joins));
    field("lease_waits", num(s.lease_waits));
    field("deadline_skips", num(s.deadline_skips));
    field("screened_out", num(s.screened_out));
    field("screen_runs", num(s.screen_runs));
    field("screen_tool_seconds", num(s.screen_tool_seconds));
    std::string runs = "{";
    for (const auto& [backend, count] : s.backend_runs) {
      if (runs.size() > 1) runs += ", ";
      runs += "\"" + backend + "\": " + num(count);
    }
    field("backend_runs", runs + "}");
    field("retries", num(s.retries));
    field("transient_failures", num(s.transient_failures));
    field("deterministic_failures", num(s.deterministic_failures));
    field("timeouts", num(s.timeouts));
    field("quarantined", num(s.quarantined));
    field("approx_fallbacks", num(s.approx_fallbacks));
    field("journal_replays", num(s.journal_replays));
    field("journal_skipped_records", num(s.journal_skipped_records));
    field("faults_injected", num(s.faults_injected));
    field("backoff_tool_seconds", num(s.backoff_tool_seconds));
    field("store_hits", num(s.store_hits));
    field("store_appends", num(s.store_appends));
    field("store_seeded_points", num(s.store_seeded_points));
    field("store_quarantined_records", num(s.store_quarantined_records));
    field("steady_completions", num(s.steady_completions));
    field("inflight_replayed", num(s.inflight_replayed));
    field("tool_seconds_utilization", num(s.tool_seconds_utilization));
    field("busy_tool_seconds", num(s.busy_tool_seconds));
    field("virtual_makespan_seconds", num(s.virtual_makespan_seconds));
    field("virtual_lanes", num(s.virtual_lanes));
    field("optimizer_name", "\"" + s.optimizer_name + "\"");
    std::string members = "[";
    for (const auto& m : s.optimizer_members) {
      if (members.size() > 1) members += ", ";
      members += "{\"name\": \"" + m.name + "\", \"asks\": " + num(m.asks) +
                 ", \"tells\": " + num(m.tells) + ", \"hv_gain\": " + num(m.hv_gain) +
                 ", \"cost_seconds\": " + num(m.cost_seconds) +
                 ", \"weight\": " + num(m.weight) + "}";
    }
    field("optimizer_members", members + "]");
    field("breaker_trips", num(s.breaker_trips));
    field("breaker_recoveries", num(s.breaker_recoveries));
    field("breaker_fast_fails", num(s.breaker_fast_fails));
    field("probe_runs", num(s.probe_runs));
    field("degraded_evals", num(s.degraded_evals));
    field("reverified_points", num(s.reverified_points));
    std::fprintf(out_, "%s},\n", line.c_str());
  }

  void points(const char* name, const std::vector<core::ExploredPoint>& points) {
    std::fprintf(out_, " \"%s\": [", name);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      std::fprintf(out_, "%s\n  {\"params\": {", i == 0 ? "" : ",");
      const char* sep = "";
      for (const auto& [param, value] : p.params) {
        std::fprintf(out_, "%s\"%s\": %lld", sep, param.c_str(), static_cast<long long>(value));
        sep = ", ";
      }
      std::fprintf(out_, "}, \"metrics\": {");
      sep = "";
      for (const auto& [metric, value] : p.metrics.values) {
        std::fprintf(out_, "%s\"%s\": %s", sep, metric.c_str(), num(value).c_str());
        sep = ", ";
      }
      std::fprintf(out_, "}, \"estimated\": %s, \"failed\": %s, \"approximate\": %s}",
                   p.estimated ? "true" : "false", p.failed ? "true" : "false",
                   p.approximate ? "true" : "false");
    }
    std::fprintf(out_, "\n ]");
  }

  std::FILE* out_;
  bool first_run_ = true;
};

/// Run one campaign and write it; returns the result for chained scenarios.
core::DseResult campaign(JsonWriter& json, const std::string& scenario,
                         const core::DseConfig& config) {
  core::DseEngine engine(fifo_project(), config);
  core::DseResult result = engine.run();
  json.run(scenario, config, engine, result);
  return result;
}

void run_engine(JsonWriter& json, bool steady, const std::string& scratch) {
  {
    core::DseConfig config = base_config(steady);
    config.use_approximation = true;
    config.pretrain_samples = 15;
    if (steady) config.optimizer = "portfolio";
    campaign(json, "nwm", config);
  }
  {
    core::DseConfig config = base_config(steady);
    config.fault_plan = plan_of("seed=6,abort=0.3");
    config.supervise.max_retries = 1;
    config.breaker.enabled = false;
    config.use_approximation = true;
    config.pretrain_samples = 15;
    campaign(json, "quarantine", config);
  }
  {
    core::DseConfig config = base_config(steady);
    config.screen_keep_ratio = 0.4;
    campaign(json, "screening", config);
  }
  {
    core::DseConfig config = base_config(steady);
    config.fault_plan = plan_of("seed=3,outage_start=5,outage_len=10");
    config.supervise.max_retries = 2;
    config.breaker.window = 4;
    config.breaker.failure_threshold = 2;
    config.breaker.cooldown_fast_fails = 1;
    config.breaker.probe_budget = 2;
    config.breaker.probe_quorum = 1;
    campaign(json, "outage", config);
    config.screen_keep_ratio = 0.4;
    campaign(json, "screened-outage", config);
  }
  {
    core::DseConfig config = base_config(steady);
    config.ga.max_generations = 50;
    config.deadline_tool_seconds = 200.0;
    campaign(json, "deadline", config);
  }

  const std::string journal = scratch + (steady ? ".steady" : ".gen") + ".journal.jsonl";
  const std::string store = scratch + (steady ? ".steady" : ".gen") + ".dvstor";
  remove_scratch(journal);
  remove_scratch(store);
  core::DseConfig donor = base_config(steady);
  donor.journal_path = journal;
  donor.store_path = store;
  donor.campaign_id = "donor";
  const core::DseResult banked = campaign(json, "resume-donor", donor);

  // An orphaned inflight marker, as a crash between submission and answer
  // leaves it: the first depth the donor never explored.
  for (std::int64_t depth = 8; depth <= 200; ++depth) {
    const core::DesignPoint candidate{{"DEPTH", depth}};
    const bool explored =
        std::any_of(banked.explored.begin(), banked.explored.end(),
                    [&](const core::ExploredPoint& p) { return p.params == candidate; });
    if (explored) continue;
    std::ofstream out(journal, std::ios::app);
    out << core::inflight_record_to_json(candidate) << "\n";
    break;
  }

  core::DseConfig resumed = donor;
  resumed.resume_from_journal = true;
  resumed.campaign_id = "resumed";
  resumed.ga.seed = 12;
  campaign(json, "resume-journal-store", resumed);

  core::DseConfig warm = base_config(steady);
  warm.warm_start = banked.explored;
  warm.use_approximation = true;
  warm.pretrain_samples = 15;
  warm.ga.seed = 13;
  campaign(json, "resume-warm-start", warm);

  remove_scratch(journal);
  remove_scratch(store);
}

void duplicates(JsonWriter& json) {
  for (const bool outage : {false, true}) {
    core::DseConfig config = base_config(false);
    config.space.params = {{"DEPTH", core::ParamDomain::range(8, 12)}};
    config.ga.max_generations = 3;
    if (outage) {
      config.fault_plan = plan_of("seed=9,outage_start=1");  // never recovers
      config.supervise.max_retries = 1;
      config.breaker.window = 4;
      config.breaker.failure_threshold = 2;
      config.breaker.cooldown_fast_fails = 2;
      config.breaker.probe_budget = 1;
      config.breaker.probe_quorum = 1;
    }
    campaign(json, outage ? "duplicates-outage" : "duplicates", config);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: engine_paths [--json FILE]\n");
      return 2;
    }
  }
  util::Log::set_level(util::LogLevel::kError);

  std::FILE* out = json_path != nullptr ? std::fopen(json_path, "w") : stdout;
  if (out == nullptr) {
    std::fprintf(stderr, "engine_paths: cannot write %s\n", json_path);
    return 1;
  }
  const std::string scratch =
      json_path != nullptr
          ? std::string(json_path)
          : (std::filesystem::temp_directory_path() / "dovado_engine_paths").string();

  JsonWriter json(out);
  json.begin();
  run_engine(json, /*steady=*/false, scratch);
  run_engine(json, /*steady=*/true, scratch);
  duplicates(json);
  json.end();
  if (out != stdout && std::fclose(out) != 0) {
    std::fprintf(stderr, "engine_paths: cannot write %s\n", json_path);
    return 1;
  }
  return 0;
}
