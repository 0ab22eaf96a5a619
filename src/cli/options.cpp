#include "src/cli/options.hpp"

#include <algorithm>
#include <cstdlib>

#include "src/opt/optimizer.hpp"
#include "src/util/strings.hpp"

namespace dovado::cli {

namespace {

bool parse_i64(const std::string& s, std::int64_t& out) {
  long long v = 0;
  if (!util::parse_int(s, v)) return false;
  out = v;
  return true;
}

/// Find (or create) the serve-tenant spec a --tenant/--quota/--request-rate
/// flag is talking about, so the three flags compose in any order.
ServeTenantSpec& tenant_spec_for(Options& opt, const std::string& name) {
  for (auto& spec : opt.serve_tenants) {
    if (spec.name == name) return spec;
  }
  opt.serve_tenants.push_back(ServeTenantSpec{});
  opt.serve_tenants.back().name = name;
  return opt.serve_tenants.back();
}

/// Parse "name:a[:b]" into (name, a, optional b); used by the serve tenant
/// flags. Returns false with `error` set on a malformed spec.
bool parse_tenant_numbers(const std::string& flag, const std::string& spec,
                          std::string& name, double& first, double& second,
                          bool& has_second, std::string& error) {
  const auto parts = util::split(spec, ':');
  if (parts.size() < 2 || parts.size() > 3 || parts[0].empty()) {
    error = flag + " expects NAME:NUMBER[:NUMBER]: " + spec;
    return false;
  }
  name = parts[0];
  if (!util::parse_double(parts[1], first)) {
    error = flag + ": invalid number in '" + spec + "'";
    return false;
  }
  has_second = parts.size() == 3;
  if (has_second && !util::parse_double(parts[2], second)) {
    error = flag + ": invalid number in '" + spec + "'";
    return false;
  }
  return true;
}

}  // namespace

std::optional<core::ParamSpec> parse_param_spec(const std::string& spec,
                                                std::string& error) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    error = "param spec must be NAME=<domain>: " + spec;
    return std::nullopt;
  }
  const std::string name = spec.substr(0, eq);
  const std::string domain = spec.substr(eq + 1);
  const auto parts = util::split(domain, ':');

  try {
    if (parts.size() == 1 && parts[0] == "bool") {
      return core::ParamSpec{name, core::ParamDomain::boolean()};
    }
    if (parts[0] == "pow2") {
      if (parts.size() != 3) {
        error = "pow2 domain must be NAME=pow2:minexp:maxexp: " + spec;
        return std::nullopt;
      }
      std::int64_t lo = 0;
      std::int64_t hi = 0;
      if (!parse_i64(parts[1], lo) || !parse_i64(parts[2], hi)) {
        error = "invalid pow2 exponents: " + spec;
        return std::nullopt;
      }
      return core::ParamSpec{
          name, core::ParamDomain::power_of_two(static_cast<int>(lo), static_cast<int>(hi))};
    }
    if (parts[0] == "vals") {
      if (parts.size() != 2) {
        error = "value-list domain must be NAME=vals:v1,v2,...: " + spec;
        return std::nullopt;
      }
      std::vector<std::int64_t> values;
      for (const auto& item : util::split(parts[1], ',')) {
        std::int64_t v = 0;
        if (!parse_i64(item, v)) {
          error = "invalid value '" + item + "' in: " + spec;
          return std::nullopt;
        }
        values.push_back(v);
      }
      return core::ParamSpec{name, core::ParamDomain::values(std::move(values))};
    }
    // Arithmetic range lo:hi[:step].
    if (parts.size() < 2 || parts.size() > 3) {
      error = "range domain must be NAME=lo:hi[:step]: " + spec;
      return std::nullopt;
    }
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    std::int64_t step = 1;
    if (!parse_i64(parts[0], lo) || !parse_i64(parts[1], hi) ||
        (parts.size() == 3 && !parse_i64(parts[2], step))) {
      error = "invalid range bounds: " + spec;
      return std::nullopt;
    }
    return core::ParamSpec{name, core::ParamDomain::range(lo, hi, step)};
  } catch (const std::exception& e) {
    error = std::string(e.what()) + ": " + spec;
    return std::nullopt;
  }
}

std::optional<std::pair<std::string, bool>> parse_objective_spec(const std::string& spec,
                                                                 std::string& error) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    error = "objective must be metric:min or metric:max: " + spec;
    return std::nullopt;
  }
  const std::string metric = spec.substr(0, colon);
  const std::string dir = util::to_lower(spec.substr(colon + 1));
  if (dir != "min" && dir != "max") {
    error = "objective direction must be min or max: " + spec;
    return std::nullopt;
  }
  return std::make_pair(metric, dir == "max");
}

std::optional<KernelSpec> parse_kernel_spec(const std::string& spec, std::string& error) {
  const auto parts = util::split(spec, ':');
  if (parts.size() < 3 || parts.size() > 4) {
    error = "kernel must be name:ops:bytes[:gops]: " + spec;
    return std::nullopt;
  }
  KernelSpec kernel;
  kernel.name = parts[0];
  if (!util::parse_double(parts[1], kernel.ops) ||
      !util::parse_double(parts[2], kernel.bytes)) {
    error = "invalid kernel numbers: " + spec;
    return std::nullopt;
  }
  if (parts.size() == 4 && !util::parse_double(parts[3], kernel.achieved_gops)) {
    error = "invalid achieved gops: " + spec;
    return std::nullopt;
  }
  if (kernel.name.empty() || kernel.ops <= 0.0 || kernel.bytes <= 0.0) {
    error = "kernel needs a name and positive ops/bytes: " + spec;
    return std::nullopt;
  }
  return kernel;
}

std::string usage() {
  return R"(dovado - design automation and design space exploration for RTL designs

usage: dovado <command> [options]

commands:
  parse      print the parsed interface of the top module
  evaluate   evaluate one design point (parse -> box -> flow -> metrics)
  explore    run the multi-objective NSGA-II design space exploration
  sensitivity  one-at-a-time parameter sensitivity sweep around a base point
  roofline   render a roofline chart for a device
  lint       static pre-flight analysis of RTL, generated TCL and the
             design space (exit 0 = clean, 1 = warnings, 2 = errors)
  db         inspect or maintain a cross-campaign evaluation store:
             db stats|query|compact|export --store FILE
  serve      long-running multi-tenant evaluation daemon on a Unix socket
             (shared broker/cache/store, per-tenant admission control,
             weighted fair-share scheduling, graceful drain on SIGTERM)
  client     submit one evaluation (or a ping) to a running daemon
  top        print a running daemon's per-tenant scheduling statistics
  help       show this text

project options (parse/evaluate/explore):
  --source FILE           RTL source (repeatable; .vhd/.v/.sv)
  --top NAME              module under exploration
  --part PART             target device (e.g. xc7k70tfbv676-1)
  --period NS             target clock period, default 1.0 (1 GHz)
  --synth-directive D     synthesis directive (Default, AreaOptimized_high, ...)
  --place-directive D     placement directive
  --route-directive D     routing directive
  --no-impl               synthesis-only flow
  --incremental           enable the incremental synthesis/implementation flow
  --backend NAME          evaluation backend: vivado-sim (default, the
                          simulated tool) or analytic (fast low-fidelity
                          cost-model estimator)

evaluate options:
  --set NAME=VALUE        parameter assignment (repeatable)

explore options:
  --param NAME=lo:hi[:s]  arithmetic-range parameter (repeatable)
  --param NAME=pow2:a:b   power-of-two parameter 2^a..2^b
  --param NAME=vals:...   explicit value list
  --param NAME=bool       boolean parameter {0,1}
  --objective M:min|max   optimization metric (repeatable; lut, ff, bram,
                          dsp, uram, fmax_mhz, ...)
  --pop N                 population size (default 24)
  --gens N                generations (default 15)
  --seed N                RNG seed (default 1)
  --approximate           enable the Nadaraya-Watson fitness approximation
  --pretrain M            synthetic dataset size (default 100)
  --deadline-hours H      soft deadline on simulated tool time
  --workers N             parallel tool sessions (default 0 = inline)
  --screen-ratio R        multi-fidelity screening: pre-rank each block of
                          proposals (a generation, or a population of
                          steady-state asks) on the analytic backend and
                          send only the top fraction R to the full flow
                          (default 1.0 = screening off)
  --steady-state          steady-state searcher: offspring are submitted
                          one at a time as evaluator lanes free up (no
                          generational barrier); survival runs per
                          completion
  --max-inflight N        evaluations in flight at once (default 0 = a
                          generation, two per lane under a deadline; one
                          per lane with --steady-state)
  --optimizer NAME        steady-state searcher: nsga2 (default), random,
                          local, surrogate, exhaustive, or portfolio (a
                          UCB bandit routing each ask to whichever member
                          is earning the most hypervolume per tool second)
  --portfolio-members L   comma-separated members of --optimizer portfolio,
                          e.g. nsga2,random,local (default: nsga2, random,
                          local, surrogate)
  --resume FILE           warm-start from a saved session (tool results are
                          not re-paid for); a missing file starts fresh, a
                          corrupt file is a hard error
  --save-session FILE     save the explored points for later --resume

robustness options (explore):
  --max-retries N         tool attempts after a transient failure (default 3;
                          exhausted points are quarantined)
  --attempt-timeout S     per-attempt budget in simulated tool seconds; hung
                          runs are killed and classified as timeouts (0 = off)
  --journal FILE          append every paid-for evaluation (fsync'd JSONL);
                          with --resume an existing journal is replayed so a
                          crashed run repays for nothing
  --fault-plan SPEC       inject tool faults for robustness drills, e.g.
                          seed=7,crash=0.2,hang=0.05,corrupt=0.1,abort=0.02,
                          outage_start=20,outage_len=30 (backend outage) or
                          flap_up=10,flap_down=15 (flapping backend)
                          (also read from DOVADO_FAULT_PLAN)

evaluation store options (explore):
  --store FILE            durable cross-campaign evaluation store (also read
                          from DOVADO_STORE): exact prior answers are served
                          for free, every paid-for evaluation is appended,
                          and the search warm-starts from the stored front
  --no-store              run without a store (overrides DOVADO_STORE)
  --campaign ID           label recorded on this run's appended evaluations
  --no-warm-start         keep the store for hits/appends but do not seed
                          the initial population from it

db options (db stats|query|compact|export --store FILE):
  --store FILE            the store file to operate on (or DOVADO_STORE)
  --tier hifi|screen      query/export: only records of one fidelity tier
  --backend NAME          query/export: only records of one backend
  --json FILE             export: write records as JSON (default: stdout)
  --csv FILE              export: write records as CSV

availability options (explore):
  --no-breaker            disable the per-backend circuit breaker
  --breaker-window N      rolling window of final outcomes per backend
                          (default 12)
  --breaker-threshold N   failures within the window that trip the breaker
                          open; while open, evaluations fast-fail and are
                          hedged on the analytic backend (default 6)
  --probe-budget N        recovery probes per half-open episode; a quorum of
                          successes closes the breaker again (default 3)

lint options (lint/explore):
  --lint-format F         lint report format: text (default) or json
  --lint-rules SPEC       enable/disable rules, e.g. -net-undriven,+all
                          (unknown names get a did-you-mean suggestion)
  --no-preflight          explore only: skip the mandatory pre-flight lint
                          gate (a lint error normally aborts before the
                          first tool run)

output options:
  --csv FILE              write explored points as CSV
  --json FILE             write the full result as JSON

serve options (plus the project/robustness/store/availability options):
  --socket PATH           Unix-domain socket to listen on (required)
  --tenant N:W[:Q]        register tenant N with fair-share weight W and
                          queue depth Q (repeatable; default weight 1,
                          queue 64; unknown tenants get the defaults)
  --request-rate N:R[:B]  admit at most R requests/second from tenant N
                          (token bucket of depth B; default B = max(1, R));
                          over-limit requests are shed with retry_after_ms
  --quota N:R[:B]         tool-second quota for tenant N: R tool-seconds of
                          budget accrue per second up to burst B (post-paid;
                          an exhausted tenant sheds until the refill covers
                          its debt)
  --max-connections N     concurrent client connections (default 64)
  --deadline S            default per-request tool-second deadline when the
                          request names none (0 = unbounded)
  --workers N             evaluator threads of the shared broker
  --max-inflight N        evaluations in flight at once (default: one per
                          virtual lane)

client options:
  --socket PATH           the daemon's socket (required)
  --tenant NAME           tenant to bill the request to (default "default")
  --set NAME=VALUE        design-point assignment (repeatable; with no --set
                          the client just pings the daemon)
  --deadline S            per-request tool-second deadline (0 = unbounded)

top options:
  --socket PATH           the daemon's socket (required)

sensitivity options:
  --param NAME=...        parameters to sweep (same domain syntax as explore)
  --set NAME=VALUE        base-point override (default: domain centers)
  --samples N             sweep points per parameter (default 7)

roofline options:
  --part PART             device
  --clock MHZ             clock for the machine model (default 100)
  --kernel n:ops:bytes[:gops]   kernel to place (repeatable)
)";
}

ParseOutcome parse_args(const std::vector<std::string>& args) {
  ParseOutcome outcome;
  Options& opt = outcome.options;
  if (args.empty()) {
    outcome.error = "missing command";
    return outcome;
  }

  const std::string& command = args[0];
  if (command == "help" || command == "--help" || command == "-h") {
    opt.command = Command::kHelp;
    outcome.ok = true;
    return outcome;
  }
  if (command == "parse") opt.command = Command::kParse;
  else if (command == "evaluate") opt.command = Command::kEvaluate;
  else if (command == "explore") opt.command = Command::kExplore;
  else if (command == "sensitivity") opt.command = Command::kSensitivity;
  else if (command == "roofline") opt.command = Command::kRoofline;
  else if (command == "lint") opt.command = Command::kLint;
  else if (command == "db") opt.command = Command::kDb;
  else if (command == "serve") opt.command = Command::kServe;
  else if (command == "client") opt.command = Command::kClient;
  else if (command == "top") opt.command = Command::kTop;
  else {
    outcome.error = "unknown command '" + command + "'";
    return outcome;
  }

  auto need_value = [&](std::size_t i, const std::string& flag) -> bool {
    if (i + 1 >= args.size()) {
      outcome.error = flag + " requires a value";
      return false;
    }
    return true;
  };

  // db takes a positional action before its flags: dovado db stats --store F
  std::size_t first_flag = 1;
  if (opt.command == Command::kDb) {
    if (args.size() < 2 || args[1].rfind("--", 0) == 0) {
      outcome.error = "db requires an action: stats, query, compact or export";
      return outcome;
    }
    opt.db_action = args[1];
    if (opt.db_action != "stats" && opt.db_action != "query" &&
        opt.db_action != "compact" && opt.db_action != "export") {
      outcome.error = "unknown db action '" + opt.db_action +
                      "' (expected stats, query, compact or export)";
      return outcome;
    }
    first_flag = 2;
  }

  for (std::size_t i = first_flag; i < args.size(); ++i) {
    const std::string& a = args[i];
    std::string error;
    if (a == "--source") {
      if (!need_value(i, a)) return outcome;
      opt.sources.push_back(args[++i]);
    } else if (a == "--top") {
      if (!need_value(i, a)) return outcome;
      opt.top = args[++i];
    } else if (a == "--part") {
      if (!need_value(i, a)) return outcome;
      opt.part = args[++i];
    } else if (a == "--period") {
      if (!need_value(i, a)) return outcome;
      if (!util::parse_double(args[++i], opt.period_ns) || opt.period_ns <= 0.0) {
        outcome.error = "invalid --period";
        return outcome;
      }
    } else if (a == "--synth-directive") {
      if (!need_value(i, a)) return outcome;
      opt.synth_directive = args[++i];
    } else if (a == "--place-directive") {
      if (!need_value(i, a)) return outcome;
      opt.place_directive = args[++i];
    } else if (a == "--route-directive") {
      if (!need_value(i, a)) return outcome;
      opt.route_directive = args[++i];
    } else if (a == "--no-impl") {
      opt.run_implementation = false;
    } else if (a == "--incremental") {
      opt.incremental = true;
    } else if (a == "--backend") {
      if (!need_value(i, a)) return outcome;
      opt.backend = args[++i];
      // For db the default backend must not act as a filter; only an
      // explicit --backend narrows query/export.
      if (opt.command == Command::kDb) opt.db_backend = opt.backend;
    } else if (a == "--screen-ratio") {
      if (!need_value(i, a)) return outcome;
      if (!util::parse_double(args[++i], opt.screen_ratio) || opt.screen_ratio <= 0.0 ||
          opt.screen_ratio > 1.0) {
        outcome.error = "invalid --screen-ratio (must be in (0, 1])";
        return outcome;
      }
    } else if (a == "--set") {
      if (!need_value(i, a)) return outcome;
      const std::string& assignment = args[++i];
      const auto eq = assignment.find('=');
      std::int64_t value = 0;
      if (eq == std::string::npos || eq == 0 ||
          !parse_i64(assignment.substr(eq + 1), value)) {
        outcome.error = "--set expects NAME=INTEGER: " + assignment;
        return outcome;
      }
      opt.assignments[assignment.substr(0, eq)] = value;
    } else if (a == "--param") {
      if (!need_value(i, a)) return outcome;
      opt.raw_param_specs.push_back(args[i + 1]);
      auto spec = parse_param_spec(args[++i], error);
      if (!spec) {
        outcome.error = error;
        return outcome;
      }
      opt.params.push_back(std::move(*spec));
    } else if (a == "--objective") {
      if (!need_value(i, a)) return outcome;
      auto obj = parse_objective_spec(args[++i], error);
      if (!obj) {
        outcome.error = error;
        return outcome;
      }
      opt.objectives.push_back(std::move(*obj));
    } else if (a == "--pop") {
      if (!need_value(i, a)) return outcome;
      std::int64_t v = 0;
      if (!parse_i64(args[++i], v) || v <= 0) {
        outcome.error = "invalid --pop";
        return outcome;
      }
      opt.population = static_cast<std::size_t>(v);
    } else if (a == "--gens") {
      if (!need_value(i, a)) return outcome;
      std::int64_t v = 0;
      if (!parse_i64(args[++i], v) || v < 0) {
        outcome.error = "invalid --gens";
        return outcome;
      }
      opt.generations = static_cast<std::size_t>(v);
    } else if (a == "--seed") {
      if (!need_value(i, a)) return outcome;
      std::int64_t v = 0;
      if (!parse_i64(args[++i], v)) {
        outcome.error = "invalid --seed";
        return outcome;
      }
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (a == "--approximate") {
      opt.approximate = true;
    } else if (a == "--pretrain") {
      if (!need_value(i, a)) return outcome;
      std::int64_t v = 0;
      if (!parse_i64(args[++i], v) || v < 0) {
        outcome.error = "invalid --pretrain";
        return outcome;
      }
      opt.pretrain = static_cast<std::size_t>(v);
    } else if (a == "--deadline-hours") {
      if (!need_value(i, a)) return outcome;
      if (!util::parse_double(args[++i], opt.deadline_hours) || opt.deadline_hours < 0.0) {
        outcome.error = "invalid --deadline-hours";
        return outcome;
      }
    } else if (a == "--workers") {
      if (!need_value(i, a)) return outcome;
      std::int64_t v = 0;
      if (!parse_i64(args[++i], v) || v < 0) {
        outcome.error = "invalid --workers";
        return outcome;
      }
      opt.workers = static_cast<std::size_t>(v);
    } else if (a == "--steady-state") {
      opt.steady_state = true;
    } else if (a == "--optimizer") {
      if (!need_value(i, a)) return outcome;
      opt.optimizer = args[++i];
    } else if (a == "--portfolio-members") {
      if (!need_value(i, a)) return outcome;
      opt.portfolio_members = util::split(args[++i], ',');
      if (opt.portfolio_members.empty()) {
        outcome.error = "--portfolio-members expects a comma-separated list of "
                        "optimizer names";
        return outcome;
      }
    } else if (a == "--max-inflight") {
      if (!need_value(i, a)) return outcome;
      std::int64_t v = 0;
      // 0 is not "default" here: the flag's whole point is to bound
      // concurrency, and a zero bound would deadlock the submit loop. Omit
      // the flag entirely for the one-per-lane default.
      if (!parse_i64(args[++i], v) || v <= 0) {
        outcome.error =
            "invalid --max-inflight: must be a positive integer (omit the "
            "flag to default to one evaluation per virtual lane)";
        return outcome;
      }
      opt.max_inflight = static_cast<std::size_t>(v);
    } else if (a == "--socket") {
      if (!need_value(i, a)) return outcome;
      opt.socket_path = args[++i];
    } else if (a == "--tenant") {
      if (!need_value(i, a)) return outcome;
      const std::string& spec = args[++i];
      if (opt.command == Command::kServe) {
        std::string name;
        double weight = 1.0;
        double queue = 0.0;
        bool has_queue = false;
        if (!parse_tenant_numbers("--tenant", spec, name, weight, queue,
                                  has_queue, error)) {
          outcome.error = error;
          return outcome;
        }
        if (weight <= 0.0) {
          outcome.error = "--tenant weight must be positive: " + spec;
          return outcome;
        }
        if (has_queue && queue < 1.0) {
          outcome.error = "--tenant queue depth must be >= 1: " + spec;
          return outcome;
        }
        ServeTenantSpec& tenant = tenant_spec_for(opt, name);
        tenant.weight = weight;
        if (has_queue) tenant.queue_cap = static_cast<std::size_t>(queue);
      } else {
        if (spec.empty()) {
          outcome.error = "--tenant expects a name";
          return outcome;
        }
        opt.tenant = spec;
      }
    } else if (a == "--request-rate") {
      if (!need_value(i, a)) return outcome;
      std::string name;
      double rate = 0.0;
      double burst = 0.0;
      bool has_burst = false;
      if (!parse_tenant_numbers("--request-rate", args[++i], name, rate, burst,
                                has_burst, error)) {
        outcome.error = error;
        return outcome;
      }
      if (rate < 0.0 || (has_burst && burst <= 0.0)) {
        outcome.error = "--request-rate needs rate >= 0 and burst > 0: " + args[i];
        return outcome;
      }
      ServeTenantSpec& tenant = tenant_spec_for(opt, name);
      tenant.request_rate = rate;
      if (has_burst) tenant.request_burst = burst;
    } else if (a == "--quota") {
      if (!need_value(i, a)) return outcome;
      std::string name;
      double rate = 0.0;
      double burst = 0.0;
      bool has_burst = false;
      if (!parse_tenant_numbers("--quota", args[++i], name, rate, burst,
                                has_burst, error)) {
        outcome.error = error;
        return outcome;
      }
      if (rate < 0.0 || (has_burst && burst <= 0.0)) {
        outcome.error = "--quota needs rate >= 0 and burst > 0: " + args[i];
        return outcome;
      }
      ServeTenantSpec& tenant = tenant_spec_for(opt, name);
      tenant.tool_seconds_rate = rate;
      if (has_burst) tenant.tool_seconds_burst = burst;
    } else if (a == "--max-connections") {
      if (!need_value(i, a)) return outcome;
      std::int64_t v = 0;
      if (!parse_i64(args[++i], v) || v <= 0) {
        outcome.error = "invalid --max-connections (must be a positive integer)";
        return outcome;
      }
      opt.max_connections = static_cast<std::size_t>(v);
    } else if (a == "--deadline") {
      if (!need_value(i, a)) return outcome;
      if (!util::parse_double(args[++i], opt.deadline_tool_seconds) ||
          opt.deadline_tool_seconds < 0.0) {
        outcome.error = "invalid --deadline (tool seconds, >= 0)";
        return outcome;
      }
    } else if (a == "--samples") {
      if (!need_value(i, a)) return outcome;
      std::int64_t v = 0;
      if (!parse_i64(args[++i], v) || v <= 0) {
        outcome.error = "invalid --samples";
        return outcome;
      }
      opt.samples_per_param = static_cast<std::size_t>(v);
    } else if (a == "--resume") {
      if (!need_value(i, a)) return outcome;
      opt.resume_path = args[++i];
    } else if (a == "--fault-plan") {
      if (!need_value(i, a)) return outcome;
      opt.fault_plan = args[++i];
    } else if (a == "--max-retries") {
      if (!need_value(i, a)) return outcome;
      std::int64_t v = 0;
      if (!parse_i64(args[++i], v) || v < 0) {
        outcome.error = "invalid --max-retries";
        return outcome;
      }
      opt.max_retries = static_cast<int>(v);
    } else if (a == "--attempt-timeout") {
      if (!need_value(i, a)) return outcome;
      if (!util::parse_double(args[++i], opt.attempt_timeout) || opt.attempt_timeout < 0.0) {
        outcome.error = "invalid --attempt-timeout";
        return outcome;
      }
    } else if (a == "--journal") {
      if (!need_value(i, a)) return outcome;
      opt.journal_path = args[++i];
    } else if (a == "--store") {
      if (!need_value(i, a)) return outcome;
      opt.store_path = args[++i];
    } else if (a == "--no-store") {
      opt.use_store = false;
    } else if (a == "--campaign") {
      if (!need_value(i, a)) return outcome;
      opt.campaign_id = args[++i];
    } else if (a == "--no-warm-start") {
      opt.store_warm_start = false;
    } else if (a == "--tier") {
      if (!need_value(i, a)) return outcome;
      opt.db_tier = args[++i];
      if (opt.db_tier != "hifi" && opt.db_tier != "screen") {
        outcome.error = "--tier must be hifi or screen";
        return outcome;
      }
    } else if (a == "--lint-format") {
      if (!need_value(i, a)) return outcome;
      opt.lint_format = args[++i];
      if (opt.lint_format != "text" && opt.lint_format != "json") {
        outcome.error = "--lint-format must be text or json";
        return outcome;
      }
    } else if (a == "--lint-rules") {
      if (!need_value(i, a)) return outcome;
      opt.lint_rules = args[++i];
    } else if (a == "--no-preflight") {
      opt.preflight = false;
    } else if (a == "--no-breaker") {
      opt.breaker = false;
    } else if (a == "--breaker-window") {
      if (!need_value(i, a)) return outcome;
      std::int64_t v = 0;
      if (!parse_i64(args[++i], v) || v <= 0) {
        outcome.error = "invalid --breaker-window (must be a positive integer)";
        return outcome;
      }
      opt.breaker_window = static_cast<std::size_t>(v);
    } else if (a == "--breaker-threshold") {
      if (!need_value(i, a)) return outcome;
      std::int64_t v = 0;
      if (!parse_i64(args[++i], v) || v <= 0) {
        outcome.error = "invalid --breaker-threshold (must be a positive integer)";
        return outcome;
      }
      opt.breaker_threshold = static_cast<std::size_t>(v);
    } else if (a == "--probe-budget") {
      if (!need_value(i, a)) return outcome;
      std::int64_t v = 0;
      if (!parse_i64(args[++i], v) || v <= 0) {
        outcome.error = "invalid --probe-budget (must be a positive integer)";
        return outcome;
      }
      opt.probe_budget = static_cast<std::size_t>(v);
    } else if (a == "--save-session") {
      if (!need_value(i, a)) return outcome;
      opt.session_path = args[++i];
    } else if (a == "--csv") {
      if (!need_value(i, a)) return outcome;
      opt.csv_path = args[++i];
    } else if (a == "--json") {
      if (!need_value(i, a)) return outcome;
      opt.json_path = args[++i];
    } else if (a == "--clock") {
      if (!need_value(i, a)) return outcome;
      if (!util::parse_double(args[++i], opt.clock_mhz) || opt.clock_mhz <= 0.0) {
        outcome.error = "invalid --clock";
        return outcome;
      }
    } else if (a == "--kernel") {
      if (!need_value(i, a)) return outcome;
      auto kernel = parse_kernel_spec(args[++i], error);
      if (!kernel) {
        outcome.error = error;
        return outcome;
      }
      opt.kernels.push_back(std::move(*kernel));
    } else {
      // Did-you-mean: suggest the closest known flag for typos like
      // --screen-ration or --breaker-treshold.
      static const std::vector<std::string> kKnownFlags = {
          "--source", "--top", "--part", "--period", "--synth-directive",
          "--place-directive", "--route-directive", "--no-impl", "--incremental",
          "--backend", "--screen-ratio", "--set", "--param", "--objective", "--pop",
          "--gens", "--seed", "--approximate", "--pretrain", "--deadline-hours",
          "--workers", "--steady-state", "--max-inflight", "--optimizer",
          "--portfolio-members", "--samples",
          "--resume", "--fault-plan", "--max-retries",
          "--attempt-timeout", "--journal", "--no-breaker", "--breaker-window",
          "--breaker-threshold", "--probe-budget", "--save-session", "--csv",
          "--json", "--clock", "--kernel", "--lint-format", "--lint-rules",
          "--no-preflight", "--store", "--no-store", "--campaign",
          "--no-warm-start", "--tier", "--socket", "--tenant", "--quota",
          "--request-rate", "--max-connections", "--deadline"};
      outcome.error = "unknown option '" + a + "'";
      const std::string suggestion = util::closest_match(a, kKnownFlags);
      if (!suggestion.empty()) outcome.error += " (did you mean '" + suggestion + "'?)";
      return outcome;
    }
  }

  // Per-command requirement checks.
  if (opt.command == Command::kServe) {
    if (opt.socket_path.empty()) {
      outcome.error = "serve requires --socket PATH (the Unix socket to listen on)";
      return outcome;
    }
  }
  if (opt.command == Command::kClient || opt.command == Command::kTop) {
    if (opt.socket_path.empty()) {
      outcome.error = "this command requires --socket PATH (the daemon's socket)";
      return outcome;
    }
  }
  if (opt.command == Command::kParse || opt.command == Command::kEvaluate ||
      opt.command == Command::kExplore || opt.command == Command::kSensitivity ||
      opt.command == Command::kLint || opt.command == Command::kServe) {
    if (opt.sources.empty()) {
      outcome.error = "at least one --source is required";
      return outcome;
    }
    if (opt.top.empty()) {
      outcome.error = "--top is required";
      return outcome;
    }
  }
  if (opt.command == Command::kEvaluate || opt.command == Command::kExplore ||
      opt.command == Command::kSensitivity || opt.command == Command::kRoofline ||
      opt.command == Command::kServe) {
    if (opt.part.empty()) {
      outcome.error = "--part is required";
      return outcome;
    }
  }
  if (opt.max_inflight != 0 && opt.steady_state) {
    // One virtual lane per worker (one lane total when inline): for a
    // steady searcher a bound above that only deepens the queue without
    // adding concurrency.
    const std::size_t lanes = std::max<std::size_t>(1, opt.workers);
    if (opt.max_inflight > lanes) {
      outcome.warnings.push_back(util::format(
          "--max-inflight %zu exceeds the %zu virtual lane(s) (one per "
          "worker); the extra in-flight slots only queue behind busy lanes",
          opt.max_inflight, lanes));
    }
  }
  if (opt.command == Command::kExplore || opt.command == Command::kSensitivity) {
    if (opt.params.empty()) {
      outcome.error = "at least one --param is required";
      return outcome;
    }
  }
  if (opt.command == Command::kExplore && opt.objectives.empty()) {
    outcome.error = "explore requires at least one --objective";
    return outcome;
  }
  // Optimizer selection is validated at parse time (mirroring the backend
  // registry's did-you-mean at engine construction): a typo'd searcher name
  // must not survive to the first tool run.
  {
    const std::vector<std::string> known_optimizers = opt::OptimizerRegistry::names();
    auto check_optimizer = [&](const std::string& name, const char* flag) {
      if (std::find(known_optimizers.begin(), known_optimizers.end(), name) !=
          known_optimizers.end()) {
        return true;
      }
      outcome.error = std::string(flag) + ": unknown optimizer '" + name + "'";
      const std::string suggestion = util::closest_match(name, known_optimizers);
      if (!suggestion.empty()) outcome.error += " (did you mean '" + suggestion + "'?)";
      outcome.error += "; known optimizers: " + util::join(known_optimizers, ", ");
      return false;
    };
    if (!check_optimizer(opt.optimizer, "--optimizer")) return outcome;
    for (const auto& member : opt.portfolio_members) {
      if (!check_optimizer(member, "--portfolio-members")) return outcome;
      if (member == "portfolio") {
        outcome.error = "--portfolio-members cannot nest another portfolio";
        return outcome;
      }
    }
    if (!opt.portfolio_members.empty() && opt.optimizer != "portfolio") {
      outcome.error = "--portfolio-members requires --optimizer portfolio (got '" +
                      opt.optimizer + "')";
      return outcome;
    }
    if (opt.command == Command::kExplore && opt.optimizer != "nsga2" &&
        !opt.steady_state) {
      outcome.error = "--optimizer " + opt.optimizer +
                      " requires --steady-state (the generational engine is "
                      "NSGA-II-specific)";
      return outcome;
    }
  }
  if (opt.backend == "analytic" && opt.screen_ratio < 1.0) {
    outcome.error =
        "--screen-ratio screens on the analytic backend, but --backend analytic "
        "already evaluates there (screening against itself saves nothing); drop "
        "--screen-ratio or use --backend vivado-sim";
    return outcome;
  }
  if (opt.command == Command::kDb) {
    if (opt.store_path.empty()) {
      const char* env = std::getenv("DOVADO_STORE");
      if (env != nullptr && *env != '\0') opt.store_path = env;
    }
    if (opt.store_path.empty()) {
      outcome.error = "db requires --store FILE (or the DOVADO_STORE env var)";
      return outcome;
    }
  } else if (opt.command == Command::kExplore && opt.use_store &&
             opt.store_path.empty()) {
    // Like DOVADO_FAULT_PLAN: an env var supplies the site-wide default
    // store; --no-store opts a single run out of it.
    const char* env = std::getenv("DOVADO_STORE");
    if (env != nullptr && *env != '\0') opt.store_path = env;
  }
  if (!opt.use_store) opt.store_path.clear();
  if (opt.breaker_threshold > opt.breaker_window) {
    outcome.error = "--breaker-threshold (" + std::to_string(opt.breaker_threshold) +
                    ") cannot exceed --breaker-window (" +
                    std::to_string(opt.breaker_window) +
                    "): the breaker could never trip";
    return outcome;
  }
  outcome.ok = true;
  return outcome;
}

}  // namespace dovado::cli
