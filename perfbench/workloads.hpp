// The benchmark's three workloads (see perfbench/README.md for why each
// exists and which layers it stresses).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/refkernel.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rtl_dir;        ///< the shipped RTL (rtl/ of the checkout)
  std::string work_dir;       ///< this run's private scratch directory
  std::string store_path;     ///< pre-built serve store; each run opens a copy
  std::string trace_path;     ///< span dump of a traced run
  Reference reference;        ///< nominal kernel times and this workload's mix
  std::vector<double> hv_ref; ///< hypervolume reference point (minimized)
  /// Self-test hooks: campaigns and serve run on a wrapper backend that adds
  /// one to this metric in every utilization report (must be caught by the
  /// output checks), and a thread that spins through every calibration
  /// window (must trip the guard).
  std::string perturb_metric;
  bool busy_thread = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool guard_tripped = false;
  std::vector<std::string> problems;  ///< first few failed checks, for stderr
  std::vector<Metric> metrics;
};

/// Run one workload. Throws std::runtime_error on a set-up failure.
Outcome run_workload(const Options& options);

/// Build the serve workload's store: one genuine evaluation of every point
/// of the store domain (see README.md), written to `out_path`.
void prebuild_store(const std::string& rtl_dir, const std::string& out_path);

}  // namespace perfbench
