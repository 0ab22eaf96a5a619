// SimVivado: a simulated Vivado batch session driven through TCL.
//
// This is the substitute for the paper's Vivado 2019.2 dependency. Dovado's
// code path is preserved exactly: the core writes a box + XDC + TCL flow
// script, "launches the tool", and parses the textual reports the tool
// prints. Only the engine behind synth_design/place_design/route_design is
// synthetic — it elaborates the design through the netlist generators,
// technology-maps it onto the device model and runs the analytic timing
// engine. Tool runtime is *simulated* and accounted per command so the DSE
// deadline logic works without real hours of wall-clock.
//
// Supported commands: read_vhdl, read_verilog [-sv], read_xdc, create_clock,
// get_ports/get_nets/set_property (constraint support), synth_design
// [-incremental], opt_design, place_design, route_design, read_checkpoint
// [-incremental], write_checkpoint, report_utilization, report_timing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/edatool/faults.hpp"
#include "src/edatool/report.hpp"
#include "src/edatool/techmap.hpp"
#include "src/edatool/timing.hpp"
#include "src/fpga/device.hpp"
#include "src/hdl/ast.hpp"
#include "src/hdl/lexer.hpp"
#include "src/tcl/interp.hpp"

namespace dovado::edatool {

/// A module instantiation found inside a wrapper (the Dovado box): the
/// instantiated module plus its generic/parameter overrides.
struct Instantiation {
  bool ok = false;
  std::string error;
  std::string module;
  util::FlatMap<std::int64_t> params;
};

/// Extract the single instantiation from the tokens of a box source. Works
/// on the VHDL ("entity work.<m> generic map (...)") and Verilog
/// ("<m> #(...) inst (...)") shapes Dovado's boxing step generates.
[[nodiscard]] Instantiation extract_instantiation(std::span<const hdl::Token> tokens,
                                                  hdl::HdlLanguage lang);

/// The same, lexing `source` first.
[[nodiscard]] Instantiation extract_instantiation(std::string_view source,
                                                  hdl::HdlLanguage lang);

class VivadoSim {
 public:
  VivadoSim();

  // The TCL interpreter holds command closures that capture `this`, so a
  // session must never move or copy.
  VivadoSim(const VivadoSim&) = delete;
  VivadoSim& operator=(const VivadoSim&) = delete;
  VivadoSim(VivadoSim&&) = delete;
  VivadoSim& operator=(VivadoSim&&) = delete;

  /// The TCL interpreter with all tool commands registered. Hosts may add
  /// their own commands or variables before running scripts.
  [[nodiscard]] tcl::Interp& interp() { return interp_; }

  /// Register an in-memory source file (e.g. the generated box). Virtual
  /// files shadow the filesystem.
  void add_virtual_file(const std::string& path, std::string content);

  /// Run a flow script. Captured tool/report output is available via
  /// interp().output(); the previous run's output is cleared first.
  [[nodiscard]] tcl::EvalResult run_script(const std::string& script);

  /// Attach a fault injector (nullptr = faults off). May be shared across
  /// sessions; see edatool/faults.hpp. Faults fire per run_script call
  /// according to the context set by set_fault_context.
  void set_fault_injector(std::shared_ptr<const FaultInjector> injector) {
    faults_ = std::move(injector);
  }
  [[nodiscard]] const std::shared_ptr<const FaultInjector>& fault_injector() const {
    return faults_;
  }

  /// Identify the next run for the injector: the design point's stable key
  /// (fault_point_key) and the 0-based retry attempt. Remains in effect
  /// until the next call.
  void set_fault_context(std::uint64_t point_key, int attempt) {
    fault_point_key_ = point_key;
    fault_attempt_ = attempt;
  }

  /// Fault injected by the most recent run_script call (kNone when clean).
  [[nodiscard]] FaultKind last_fault() const { return last_fault_; }

  /// Simulated tool runtime of the last run_script call / of the session.
  [[nodiscard]] double last_run_seconds() const { return last_run_seconds_; }
  [[nodiscard]] double total_seconds() const { return total_seconds_; }

  /// Number of synth_design invocations in this session's lifetime.
  [[nodiscard]] int synthesis_runs() const { return synthesis_runs_; }

  /// Number of source texts lexed and parsed in this session's lifetime.
  /// A read_* of a path whose language and text are unchanged since its
  /// last read reuses that parse and does not count.
  [[nodiscard]] int source_parses() const { return source_parses_; }

  /// Introspection for tests: the currently mapped design (after
  /// synth_design), and whether route_design has completed on it.
  [[nodiscard]] const std::optional<MappedDesign>& mapped() const { return mapped_; }
  [[nodiscard]] bool routed() const { return routed_; }
  [[nodiscard]] const TimingResult& last_timing() const { return timing_; }
  [[nodiscard]] double period_ns() const { return period_ns_; }

 private:
  struct Checkpoint {
    std::string top;
    std::string part;
    std::int64_t luts = 0;
    bool routed = false;
  };

  /// One source file as last read at its path: the text, its tokens (for
  /// box-instantiation lookup) and their parse. Parsed once per distinct
  /// text: a later read reuses it only if language and text are unchanged.
  struct ParsedSource {
    hdl::HdlLanguage language = hdl::HdlLanguage::kVhdl;
    std::string text;
    hdl::LexedSource lexed;
    hdl::ParseResult parsed;
  };

  /// A module registered by a read_* command.
  struct SourceEntry {
    std::shared_ptr<const ParsedSource> source;  ///< keeps `module` alive
    const hdl::Module* module = nullptr;
  };

  void register_tool_commands();
  /// A file's text: the virtual file if there is one, else the file on
  /// disk. The view is valid until the next read_file call.
  std::string_view read_file(const std::string& path);
  void read_source(const std::string& path, hdl::HdlLanguage lang);
  const SourceEntry* find_module(const std::string& name) const;

  void cmd_synth_design(const std::vector<std::string>& args);
  void cmd_place_design(const std::vector<std::string>& args);
  void cmd_route_design(const std::vector<std::string>& args);
  void cmd_report_utilization();
  void cmd_report_timing();

  /// Resolve the elaboration target: if `top` itself has a netlist
  /// generator use it directly, otherwise treat it as a wrapper and follow
  /// its single instantiation.
  void elaborate(const std::string& top, const DirectiveEffect& synth_effect);

  void charge(double seconds) {
    // An injected hang inflates every command's simulated runtime, the same
    // way a wedged real tool burns wall-clock across the whole flow.
    last_run_seconds_ += seconds * charge_factor_;
    total_seconds_ += seconds * charge_factor_;
  }

  /// Garble report text for an injected kCorruptReport fault: digits become
  /// '#' and the tail is cut, so no parser can extract metrics from it.
  [[nodiscard]] static std::string corrupt_report_text(std::string text);

  tcl::Interp interp_;
  std::map<std::string, std::string> vfs_;
  std::map<std::string, std::shared_ptr<const ParsedSource>> parsed_;  // keyed by path
  std::map<std::string, SourceEntry> sources_;  // keyed by lower-cased module name
  std::map<std::string, Checkpoint> checkpoints_;
  std::string file_buffer_;  ///< the last file read_file read from disk

  std::optional<fpga::Device> device_;
  std::optional<MappedDesign> mapped_;
  TimingResult timing_;
  DirectiveEffect synth_effect_;
  double period_ns_ = 10.0;  ///< default when no create_clock ran
  bool routed_ = false;
  bool incremental_synth_hit_ = false;
  bool incremental_impl_hit_ = false;
  std::uint64_t design_hash_ = 0;
  std::int64_t pre_map_luts_ = 0;

  double last_run_seconds_ = 0.0;
  double total_seconds_ = 0.0;
  int synthesis_runs_ = 0;
  int source_parses_ = 0;

  // Fault injection (see faults.hpp). The decision for a run is made once
  // at run_script entry from (injector seed, point key, attempt).
  std::shared_ptr<const FaultInjector> faults_;
  std::uint64_t fault_point_key_ = 0;
  int fault_attempt_ = 0;
  double charge_factor_ = 1.0;     ///< >1 while an injected hang is active
  bool corrupt_reports_ = false;   ///< garble report output this run
  FaultKind last_fault_ = FaultKind::kNone;
};

}  // namespace dovado::edatool
