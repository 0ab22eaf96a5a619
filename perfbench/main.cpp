// The end-to-end benchmark binary (run it through perfbench/run.py,
// which builds it, prepares the serve store and passes the calibration).
//
//   dovado_e2e run --workload NAME --seed N --seconds S --trace 0|1
//                  --rtl DIR --work DIR --store FILE --nominal-map SECONDS
//                  --nominal-fp SECONDS --fp-weight SHARE --nominal-io SECONDS
//                  --hv-ref A,B [--trace-out FILE]
//                  [--perturb-metric METRIC] [--busy-thread]
//   dovado_e2e prebuild-store --rtl DIR --out FILE
//   dovado_e2e calibrate --io FILE [--windows N]
//
// `run` prints one JSON object as its last line of output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and exits 3 without a result when the calibration guard tripped.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/refkernel.hpp"
#include "perfbench/workloads.hpp"

namespace {

using perfbench::Options;

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument '" + key + "'");
    key = key.substr(2);
    if (key == "busy-thread") {
      flags[key] = "1";
    } else if (i + 1 < argc) {
      flags[key] = argv[++i];
    } else {
      throw std::runtime_error("flag --" + key + " needs a value");
    }
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out;
}

int run(const std::map<std::string, std::string>& flags) {
  Options o;
  o.workload = need(flags, "workload");
  o.seed = std::stoull(need(flags, "seed"));
  o.seconds = std::stod(need(flags, "seconds"));
  o.trace = need(flags, "trace") == "1";
  o.rtl_dir = need(flags, "rtl");
  o.work_dir = need(flags, "work");
  o.store_path = need(flags, "store");
  o.reference.map_s = std::stod(need(flags, "nominal-map"));
  o.reference.fp_s = std::stod(need(flags, "nominal-fp"));
  o.reference.fp_weight = std::stod(need(flags, "fp-weight"));
  o.reference.io_s = std::stod(need(flags, "nominal-io"));
  const std::string hv = need(flags, "hv-ref");
  for (std::size_t pos = 0; pos <= hv.size();) {
    const std::size_t comma = hv.find(',', pos);
    o.hv_ref.push_back(std::stod(hv.substr(pos, comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (flags.count("trace-out")) o.trace_path = flags.at("trace-out");
  if (flags.count("perturb-metric")) o.perturb_metric = flags.at("perturb-metric");
  o.busy_thread = flags.count("busy-thread") > 0;
  const perfbench::Reference& r = o.reference;
  if (!(r.map_s > 0.0) || !(r.fp_s > 0.0) || !(r.io_s > 0.0) || !(r.fp_weight >= 0.0) ||
      r.fp_weight > 1.0 || o.hv_ref.size() != 2) {
    throw std::runtime_error(
        "nominal times must be positive, --fp-weight in [0, 1] and --hv-ref two numbers");
  }

  const perfbench::Outcome out = perfbench::run_workload(o);
  for (const auto& p : out.problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  if (out.guard_tripped) {
    std::fprintf(stderr,
                 "run rejected: another thread of the process was busy during a "
                 "calibration window, so the host-speed reference is invalid\n");
    return 3;
  }
  std::string metrics;
  for (const auto& m : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + json_escape(m.name) + "\": {\"value\": " + value + ", \"unit\": \"" +
               json_escape(m.unit) + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed, metrics.c_str());
  return 0;
}

int calibrate(const std::map<std::string, std::string>& flags) {
  const int windows = flags.count("windows") ? std::stoi(flags.at("windows")) : 200;
  std::vector<double> map;
  std::vector<double> fp;
  std::vector<double> io;
  {
    perfbench::Normalizer norm(perfbench::Reference{}, need(flags, "io"));
    for (int i = 0; i < windows; ++i) {
      const perfbench::RefSample& s = norm.calibrate();
      map.push_back(s.map_s);
      fp.push_back(s.fp_s);
      io.push_back(s.io_s);
    }
  }
  std::printf("{\"windows\": %d, \"map_median_s\": %.9g, \"fp_median_s\": %.9g, "
              "\"io_median_s\": %.9g}\n",
              windows, perfbench::median(map), perfbench::median(fp), perfbench::median(io));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: dovado_e2e run|prebuild-store|calibrate [flags]\n");
    return 2;
  }
  try {
    const std::string command = argv[1];
    const auto flags = parse_flags(argc, argv, 2);
    if (command == "run") return run(flags);
    if (command == "prebuild-store") {
      perfbench::prebuild_store(need(flags, "rtl"), need(flags, "out"));
      return 0;
    }
    if (command == "calibrate") return calibrate(flags);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dovado_e2e: %s\n", e.what());
    return 1;
  }
}
