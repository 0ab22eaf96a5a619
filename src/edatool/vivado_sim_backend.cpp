#include "src/edatool/vivado_sim_backend.hpp"

namespace dovado::edatool {

VivadoSimBackend::VivadoSimBackend() {
  info_.name = "vivado-sim";
  info_.fidelity = BackendFidelity::kHigh;
  info_.supports_implementation = true;
  info_.supports_incremental = true;
  info_.supports_fault_injection = true;
}

FlowOutcome VivadoSimBackend::run_flow(const FlowRequest& request) {
  ++flows_run_;
  FlowOutcome outcome;
  const tcl::EvalResult run = sim_.run_script(request.script);
  outcome.tool_seconds = sim_.last_run_seconds();
  if (!run.ok) {
    outcome.error = run.error;
    return outcome;
  }
  // Nothing reads the session's copy after a run: hand the chunks over.
  outcome.reports = sim_.interp().take_output();
  outcome.ok = true;
  return outcome;
}

}  // namespace dovado::edatool
