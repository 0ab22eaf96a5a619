// The high-fidelity backend: SimVivado driven through the generated TCL
// flow script, wrapped behind the EdaBackend interface. Behavior-identical
// to the pre-interface pipeline — the script is executed verbatim and the
// captured report output is handed back untouched (moved out of the
// session, whose interp().output() then reads empty).
#pragma once

#include "src/edatool/backend.hpp"
#include "src/edatool/vivado_sim.hpp"

namespace dovado::edatool {

class VivadoSimBackend final : public EdaBackend {
 public:
  VivadoSimBackend();

  [[nodiscard]] const BackendInfo& info() const override { return info_; }
  void add_virtual_file(const std::string& path, std::string content) override {
    sim_.add_virtual_file(path, std::move(content));
  }
  void set_fault_injector(std::shared_ptr<const FaultInjector> injector) override {
    sim_.set_fault_injector(std::move(injector));
  }
  void set_fault_context(std::uint64_t point_key, int attempt) override {
    sim_.set_fault_context(point_key, attempt);
  }
  [[nodiscard]] FlowOutcome run_flow(const FlowRequest& request) override;
  [[nodiscard]] double total_seconds() const override { return sim_.total_seconds(); }
  [[nodiscard]] std::uint64_t flows_run() const override { return flows_run_; }
  [[nodiscard]] std::vector<std::string> metric_names() const override {
    return standard_metric_names();
  }

  /// The underlying tool session (tests and ablations inspect it).
  [[nodiscard]] const VivadoSim& sim() const { return sim_; }
  [[nodiscard]] VivadoSim& sim() { return sim_; }

 private:
  BackendInfo info_;
  VivadoSim sim_;
  std::uint64_t flows_run_ = 0;
};

}  // namespace dovado::edatool
