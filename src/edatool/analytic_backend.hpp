// The low-fidelity backend: a fast analytic estimator for multi-fidelity
// screening (see DESIGN.md "Backend abstraction & multi-fidelity
// screening").
//
// Instead of executing the TCL flow, it elaborates the design straight
// through the netlist generators, technology-maps it and runs one
// post-synthesis timing pass — no interpreter, no opt/place/route, and a
// near-zero simulated tool cost. The answers are *deliberately* perturbed
// by a deterministic, design-point-keyed noise so they behave like a cheap
// proxy model: rank-correlated with the high-fidelity backend but never
// byte-identical to it. It emits the same textual report tables as the
// simulated Vivado, so the core's checked report parsing is shared
// unchanged, and it honors the same fault-injection semantics (crash,
// hang, corrupt report, persistent abort) so robustness drills can target
// either backend.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/edatool/backend.hpp"
#include "src/hdl/ast.hpp"

namespace dovado::edatool {

class AnalyticBackend final : public EdaBackend {
 public:
  AnalyticBackend();

  [[nodiscard]] const BackendInfo& info() const override { return info_; }
  void add_virtual_file(const std::string& path, std::string content) override {
    vfs_[path] = std::move(content);
  }
  void set_fault_injector(std::shared_ptr<const FaultInjector> injector) override {
    faults_ = std::move(injector);
  }
  void set_fault_context(std::uint64_t point_key, int attempt) override {
    fault_point_key_ = point_key;
    fault_attempt_ = attempt;
  }
  [[nodiscard]] FlowOutcome run_flow(const FlowRequest& request) override;
  [[nodiscard]] double total_seconds() const override { return total_seconds_; }
  [[nodiscard]] std::uint64_t flows_run() const override { return flows_run_; }
  [[nodiscard]] std::vector<std::string> metric_names() const override {
    return standard_metric_names();
  }

  /// Relative amplitude of the deterministic estimation noise applied to
  /// resource counts and path delay (default 0.08). Exposed for property
  /// tests; 0 makes the estimator exact w.r.t. the synthesis-stage models.
  void set_noise_amplitude(double amplitude) { noise_amplitude_ = amplitude; }
  [[nodiscard]] double noise_amplitude() const { return noise_amplitude_; }

 private:
  /// A parsed module plus the tokens of its file (for box-instantiation
  /// lookup), shared by every module of that file.
  struct SourceEntry {
    hdl::Module module;
    std::shared_ptr<const std::vector<hdl::Token>> tokens;
  };

  /// vfs first, then disk; empty optional when the file cannot be read.
  [[nodiscard]] std::optional<std::string> read_file(const std::string& path) const;
  /// Parse `path` into modules_ (disk files are parsed once per session).
  [[nodiscard]] bool ingest_source(const std::string& path, hdl::HdlLanguage lang,
                                   std::string& error);
  [[nodiscard]] const SourceEntry* find_module(const std::string& name) const;

  BackendInfo info_;
  std::map<std::string, std::string> vfs_;
  std::map<std::string, SourceEntry> modules_;  ///< keyed by lower-cased name
  std::map<std::string, bool> parsed_paths_;    ///< disk parse memo (path -> ok)

  double noise_amplitude_ = 0.08;
  double total_seconds_ = 0.0;
  std::uint64_t flows_run_ = 0;

  std::shared_ptr<const FaultInjector> faults_;
  std::uint64_t fault_point_key_ = 0;
  int fault_attempt_ = 0;
};

}  // namespace dovado::edatool
