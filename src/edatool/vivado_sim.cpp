#include "src/edatool/vivado_sim.hpp"

#include "src/edatool/backend.hpp"
#include "src/edatool/power.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>

#include "src/fpga/board.hpp"
#include "src/hdl/expr.hpp"
#include "src/hdl/frontend.hpp"
#include "src/hdl/lexer.hpp"
#include "src/netlist/ir.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"

namespace dovado::edatool {

namespace {

using tcl::Interp;

/// Find `-flag value` in an argument list; empty when absent. The value is
/// the caller's word, valid while the command runs.
const std::string& option_value(const std::vector<std::string>& args, std::string_view flag) {
  static const std::string kNone;
  for (std::size_t i = 1; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return kNone;
}

bool has_flag(const std::vector<std::string>& args, std::string_view flag) {
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == flag) return true;
  }
  return false;
}

/// Options that take a value: last_positional skips the word after them.
constexpr std::array<std::string_view, 8> kValueFlags = {
    "-library", "-top", "-part", "-directive", "-incremental", "-name", "-period", "-work"};

/// Last positional (non-option) argument — used for paths. Empty when
/// there is none.
const std::string& last_positional(const std::vector<std::string>& args) {
  static const std::string kNone;
  const std::string* result = &kNone;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (!args[i].empty() && args[i][0] == '-') {
      if (std::find(kValueFlags.begin(), kValueFlags.end(), args[i]) != kValueFlags.end()) {
        ++i;  // skip the flag's value
      }
      continue;
    }
    result = &args[i];
  }
  return *result;
}

}  // namespace

Instantiation extract_instantiation(std::string_view source, hdl::HdlLanguage lang) {
  return extract_instantiation(hdl::lex_source(source, lang).tokens, lang);
}

Instantiation extract_instantiation(std::span<const hdl::Token> tokens, hdl::HdlLanguage lang) {
  Instantiation inst;
  hdl::TokenStream ts(tokens);

  auto parse_int_token = [&](const hdl::Token& t, std::int64_t& out) {
    long long v = 0;
    if (t.is_punct("-") || !util::parse_int(t.text, v)) return false;
    out = v;
    return true;
  };

  if (lang == hdl::HdlLanguage::kVhdl) {
    // Look for: <label> : entity [lib.]name [generic map ( n => v, ... )]
    while (!ts.at_eof()) {
      if (ts.peek().is_keyword("end")) {
        // Skip "end entity <name>;" so it is not mistaken for an
        // instantiation.
        ts.next();
        ts.accept_keyword("entity");
        ts.accept_keyword("architecture");
        continue;
      }
      if (!ts.peek().is_keyword("entity")) {
        ts.next();
        continue;
      }
      ts.next();
      // Must be an instantiation (entity followed by a possibly-dotted name
      // and NOT the "is" of a declaration).
      std::string name;
      while (ts.peek().kind == hdl::TokenKind::kIdentifier) {
        name = ts.next().text;
        if (!ts.accept_punct(".")) break;
      }
      if (name.empty() || ts.peek().is_keyword("is")) continue;
      inst.module = name;
      if (ts.peek().is_keyword("generic")) {
        ts.next();
        inst.params.reserve(8);
        if (!ts.accept_keyword("map") || !ts.accept_punct("(")) {
          inst.error = "malformed generic map";
          return inst;
        }
        while (!ts.at_eof() && !ts.peek().is_punct(")")) {
          if (ts.peek().kind != hdl::TokenKind::kIdentifier) {
            inst.error = "expected generic name in generic map";
            return inst;
          }
          const std::string pname = ts.next().text;
          if (!ts.accept_punct("=>")) {
            inst.error = "expected '=>' in generic map";
            return inst;
          }
          bool neg = ts.accept_punct("-");
          std::int64_t value = 0;
          if (ts.peek().kind != hdl::TokenKind::kNumber ||
              !parse_int_token(ts.next(), value)) {
            inst.error = "generic '" + pname + "' is not an integer literal";
            return inst;
          }
          inst.params[pname] = neg ? -value : value;
          ts.accept_punct(",");
        }
      }
      inst.ok = true;
      return inst;
    }
    inst.error = "no entity instantiation found";
    return inst;
  }

  // Verilog/SV: <module> [#( .N(V), ... )] <inst> ( ... );  — skip the
  // wrapper's own header first (tokens up to the first ';').
  static constexpr std::array<std::string_view, 20> kNotModuleNames = {
      "module", "endmodule", "input",  "output", "inout", "wire",  "reg",
      "logic",  "assign",    "always", "initial", "begin", "end",   "parameter",
      "localparam", "genvar", "generate", "endgenerate", "if", "else"};
  const auto is_keyword = [](const hdl::Token& t) {
    return std::any_of(kNotModuleNames.begin(), kNotModuleNames.end(),
                       [&](std::string_view kw) { return t.is_keyword(kw); });
  };
  while (!ts.at_eof() && !ts.peek().is_punct(";")) ts.next();
  while (!ts.at_eof()) {
    const hdl::Token& t = ts.peek();
    if (t.kind != hdl::TokenKind::kIdentifier || is_keyword(t)) {
      ts.next();
      continue;
    }
    const std::size_t mark = ts.position();
    const std::string name = ts.next().text;
    util::FlatMap<std::int64_t> params;
    if (ts.peek().is_punct("#")) {
      params.reserve(8);
      ts.next();
      if (!ts.accept_punct("(")) {
        ts.rewind(mark);
        ts.next();
        continue;
      }
      bool bad = false;
      while (!ts.at_eof() && !ts.peek().is_punct(")")) {
        if (!ts.accept_punct(".")) { bad = true; break; }
        if (ts.peek().kind != hdl::TokenKind::kIdentifier) { bad = true; break; }
        const std::string pname = ts.next().text;
        if (!ts.accept_punct("(")) { bad = true; break; }
        bool neg = ts.accept_punct("-");
        std::int64_t value = 0;
        if (ts.peek().kind != hdl::TokenKind::kNumber ||
            !parse_int_token(ts.next(), value)) {
          bad = true;
          break;
        }
        params[pname] = neg ? -value : value;
        if (!ts.accept_punct(")")) { bad = true; break; }
        ts.accept_punct(",");
      }
      if (bad || !ts.accept_punct(")")) {
        ts.rewind(mark);
        ts.next();
        continue;
      }
    }
    // Instance name followed by '(' confirms an instantiation.
    if (ts.peek().kind == hdl::TokenKind::kIdentifier) {
      const std::string instance = ts.next().text;
      (void)instance;
      if (ts.peek().is_punct("(")) {
        inst.module = name;
        inst.params = std::move(params);
        inst.ok = true;
        return inst;
      }
    }
    ts.rewind(mark);
    ts.next();
  }
  inst.error = "no module instantiation found";
  return inst;
}

VivadoSim::VivadoSim() { register_tool_commands(); }

void VivadoSim::add_virtual_file(const std::string& path, std::string content) {
  vfs_[path] = std::move(content);
}

std::string_view VivadoSim::read_file(const std::string& path) {
  auto it = vfs_.find(path);
  if (it != vfs_.end()) return it->second;
  // Plain POSIX reads into a buffer the session keeps: once it has grown to
  // the largest source, re-reading a file allocates nothing.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) Interp::fail("ERROR: [Common 17-55] file not found: " + path);
  struct stat info {};
  const std::size_t hint = ::fstat(fd, &info) == 0 && info.st_size > 0
                               ? static_cast<std::size_t>(info.st_size)
                               : 0;
  // The size is a hint: read to end of file, growing the buffer if the
  // file grew. A read error ends the text where it stopped.
  file_buffer_.resize(hint + 1);
  std::size_t length = 0;
  while (true) {
    if (length == file_buffer_.size()) file_buffer_.resize(2 * file_buffer_.size());
    const ssize_t got = ::read(fd, file_buffer_.data() + length, file_buffer_.size() - length);
    if (got > 0) {
      length += static_cast<std::size_t>(got);
    } else if (got == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fd);
  file_buffer_.resize(length);
  return file_buffer_;
}

void VivadoSim::read_source(const std::string& path, hdl::HdlLanguage lang) {
  const std::string_view text = read_file(path);
  std::shared_ptr<const ParsedSource>& slot = parsed_[path];
  if (!slot || slot->language != lang || slot->text != text) {
    auto source = std::make_shared<ParsedSource>();
    source->language = lang;
    source->text = std::string(text);
    source->lexed = hdl::lex_source(source->text, lang);
    source->parsed = hdl::parse_source(source->lexed, lang, path);
    slot = std::move(source);
    ++source_parses_;
  }
  const hdl::ParseResult& parsed = slot->parsed;
  if (!parsed.ok) {
    std::string detail = parsed.diagnostics.empty()
                             ? "no modules found"
                             : parsed.diagnostics.front().message;
    Interp::fail("ERROR: [Synth 8-???] cannot parse '" + path + "': " + detail);
  }
  for (const auto& m : parsed.file.modules) {
    sources_[util::to_lower(m.name)] = SourceEntry{slot, &m};
  }
  // File I/O + parse, charged per read whether or not the parse was reused.
  charge(0.3 + 1e-6 * static_cast<double>(slot->text.size()));
}

const VivadoSim::SourceEntry* VivadoSim::find_module(const std::string& name) const {
  auto it = sources_.find(util::to_lower(name));
  return it == sources_.end() ? nullptr : &it->second;
}

void VivadoSim::elaborate(const std::string& top, const DirectiveEffect& synth_effect) {
  const SourceEntry* entry = find_module(top);
  if (entry == nullptr) {
    Interp::fail("ERROR: [Synth 8-3348] cannot find top module '" + top + "'");
  }

  std::string target_name = entry->module->name;
  util::FlatMap<std::int64_t> overrides;

  if (!netlist::GeneratorRegistry::find(target_name).has_value()) {
    // Treat as a wrapper (the Dovado box): follow its instantiation.
    Instantiation inst =
        extract_instantiation(entry->source->lexed.tokens, entry->module->language);
    if (!inst.ok) {
      Interp::fail("ERROR: [Synth 8-439] module '" + target_name +
                   "' has no architecture model and no resolvable instantiation (" +
                   inst.error + ")");
    }
    target_name = inst.module;
    overrides = std::move(inst.params);
  }

  const SourceEntry* target = find_module(target_name);
  if (target == nullptr) {
    Interp::fail("ERROR: [Synth 8-439] module '" + target_name +
                 "' referenced but its source was not read");
  }
  auto generator = netlist::GeneratorRegistry::find(target_name);
  if (!generator.has_value()) {
    Interp::fail("ERROR: [Synth 8-439] no architecture model registered for '" +
                 target_name + "'");
  }

  const hdl::ExprEnv env = hdl::build_param_env(*target->module, overrides);
  netlist::Netlist nl = (*generator)(env);

  // Synthesis directive shapes area before mapping.
  nl.luts = static_cast<std::int64_t>(std::llround(
      static_cast<double>(nl.luts) * synth_effect.area_factor));
  pre_map_luts_ = nl.luts;

  mapped_ = technology_map(nl, *device_);
  mapped_->top = entry->module->name;

  // Design-point hash: part + target + all parameter values reachable in
  // the environment (drives deterministic placement noise).
  std::uint64_t h = std::hash<std::string>{}(device_->part);
  h = util::hash_combine(h, std::hash<std::string>{}(target_name));
  for (const auto& p : target->module->parameters) {
    if (auto v = env.get(p.name)) {
      h = util::hash_combine(h, static_cast<std::uint64_t>(*v));
    }
  }
  design_hash_ = h;
}

void VivadoSim::cmd_synth_design(const std::vector<std::string>& args) {
  const std::string& top = option_value(args, "-top");
  const std::string& part = option_value(args, "-part");
  const std::string& directive = option_value(args, "-directive");
  const std::string& incremental = option_value(args, "-incremental");
  if (top.empty()) Interp::fail("ERROR: [Synth 8-3347] synth_design requires -top");
  if (part.empty()) Interp::fail("ERROR: [Synth 8-3347] synth_design requires -part");

  // Accept part names, display names and board names (paper: the flow can
  // be tailored "for a given board or parts"). The session resolves a part
  // once and again only when a run names another.
  if (!device_ || part != device_request_) {
    device_ = fpga::resolve_device(part);
    device_request_ = part;
  }
  if (!device_) Interp::fail("ERROR: [Common 17-69] invalid part '" + part + "'");

  synth_effect_ = directive_effects(directive.empty() ? "Default" : directive);
  elaborate(top, synth_effect_);
  routed_ = false;
  incremental_impl_hit_ = false;
  ++synthesis_runs_;

  // Runtime model: base cost + LUT-proportional mapping cost, scaled by the
  // directive; incremental reuse cuts the cost by the unchanged fraction
  // (paper Sec. III-B.2: checkpoints avoid re-exploring unaffected parts).
  double seconds = 18.0 + 0.004 * static_cast<double>(mapped_->util.lut_total()) +
                   2e-6 * static_cast<double>(mapped_->util.ff);
  incremental_synth_hit_ = false;
  if (!incremental.empty()) {
    auto cp = checkpoints_.find(incremental);
    if (cp != checkpoints_.end() && cp->second.top == mapped_->top &&
        cp->second.part == device_->part) {
      const double a = static_cast<double>(cp->second.luts);
      const double b = static_cast<double>(mapped_->util.lut_total());
      const double changed = std::min(1.0, std::fabs(a - b) / std::max(1.0, std::max(a, b)));
      seconds *= 0.35 + 0.65 * changed;
      incremental_synth_hit_ = true;
    }
  }
  charge(seconds * synth_effect_.runtime_factor);

  timing_ = analyze_timing(*mapped_, *device_, period_ns_, TimingStage::kPostSynthesis,
                           synth_effect_.delay_factor, design_hash_);
  interp_.emit(util::format("INFO: [Synth 8-256] done synthesizing module '%s' (%d LUTs)",
                            mapped_->top.c_str(),
                            static_cast<int>(mapped_->util.lut_total())));
}

void VivadoSim::cmd_place_design(const std::vector<std::string>& args) {
  if (!mapped_ || !device_) {
    Interp::fail("ERROR: [Place 30-51] place_design before synth_design");
  }
  if (mapped_->over_utilized(*device_)) {
    Interp::fail("ERROR: [Place 30-640] place failed: " +
                 mapped_->over_utilization_reason(*device_));
  }
  const std::string& directive = option_value(args, "-directive");
  const DirectiveEffect eff = directive_effects(directive.empty() ? "Default" : directive);
  double seconds = 14.0 + 0.005 * static_cast<double>(mapped_->util.lut_total());
  if (incremental_impl_hit_) seconds *= 0.45;
  charge(seconds * eff.runtime_factor);
}

void VivadoSim::cmd_route_design(const std::vector<std::string>& args) {
  if (!mapped_ || !device_) {
    Interp::fail("ERROR: [Route 35-9] route_design before synth_design");
  }
  const std::string& directive = option_value(args, "-directive");
  const DirectiveEffect eff =
      directive_effects(directive.empty() ? "Default" : directive);

  const double congestion = congestion_factor(*device_, mapped_->lut_pressure(*device_));
  double seconds = (12.0 + 0.006 * static_cast<double>(mapped_->util.lut_total())) *
                   congestion;
  if (incremental_impl_hit_) seconds *= 0.5;
  charge(seconds * eff.runtime_factor);

  timing_ = analyze_timing(*mapped_, *device_, period_ns_, TimingStage::kPostRoute,
                           synth_effect_.delay_factor * eff.delay_factor, design_hash_);
  routed_ = true;
  interp_.emit("INFO: [Route 35-16] router completed successfully");
}

void VivadoSim::cmd_report_utilization() {
  if (!mapped_ || !device_) {
    Interp::fail("ERROR: [Common 17-53] report_utilization before synth_design");
  }
  UtilizationReport report;
  report.rows.reserve(7);
  const auto& r = device_->resources;
  const auto& u = mapped_->util;
  auto pct = [](std::int64_t used, std::int64_t avail) {
    return avail > 0 ? 100.0 * static_cast<double>(used) / static_cast<double>(avail) : 0.0;
  };
  report.rows.push_back({"Slice LUTs", u.lut_total(), r.lut, pct(u.lut_total(), r.lut)});
  report.rows.push_back({"LUT as Logic", u.lut_logic, r.lut, pct(u.lut_logic, r.lut)});
  report.rows.push_back({"LUT as Memory", u.lut_mem, r.lut, pct(u.lut_mem, r.lut)});
  report.rows.push_back({"Slice Registers", u.ff, r.ff, pct(u.ff, r.ff)});
  report.rows.push_back({"Block RAM Tile", u.bram36, r.bram36, pct(u.bram36, r.bram36)});
  report.rows.push_back({"DSPs", u.dsp, r.dsp, pct(u.dsp, r.dsp)});
  // URAM is device-dependent: "reported only if present" (paper
  // Sec. III-A.4).
  if (device_->has_uram()) {
    report.rows.push_back({"URAM", u.uram, r.uram, pct(u.uram, r.uram)});
  }
  interp_.emit(corrupt_reports_ ? corrupt_report_text(report.to_text()) : report.to_text());
}

void VivadoSim::cmd_report_timing() {
  if (!mapped_ || !device_) {
    Interp::fail("ERROR: [Common 17-53] report_timing before synth_design");
  }
  TimingReport report;
  report.requirement_ns = period_ns_;
  report.slack_ns = timing_.slack_ns;
  report.data_path_ns = timing_.data_path_ns;
  report.logic_levels = timing_.logic_levels;
  report.path_group = timing_.path_group;
  interp_.emit(corrupt_reports_ ? corrupt_report_text(report.to_text()) : report.to_text());
}

void VivadoSim::register_tool_commands() {
  interp_.register_command(
      "read_vhdl", [this](Interp&, const std::vector<std::string>& a) -> std::string {
        const std::string& path = last_positional(a);
        if (path.empty()) Interp::fail("read_vhdl: missing file");
        read_source(path, hdl::HdlLanguage::kVhdl);
        return {};
      });

  interp_.register_command(
      "read_verilog", [this](Interp&, const std::vector<std::string>& a) -> std::string {
        const std::string& path = last_positional(a);
        if (path.empty()) Interp::fail("read_verilog: missing file");
        read_source(path, has_flag(a, "-sv") ? hdl::HdlLanguage::kSystemVerilog
                                             : hdl::HdlLanguage::kVerilog);
        return {};
      });

  interp_.register_command(
      "read_xdc", [this](Interp& in, const std::vector<std::string>& a) -> std::string {
        const std::string& path = last_positional(a);
        if (path.empty()) Interp::fail("read_xdc: missing file");
        in.eval_or_throw(read_file(path));
        return {};
      });

  interp_.register_command(
      "create_clock", [this](Interp&, const std::vector<std::string>& a) -> std::string {
        const std::string& period = option_value(a, "-period");
        double p = 0.0;
        if (period.empty() || !util::parse_double(period, p) || p <= 0.0) {
          Interp::fail("create_clock: invalid -period");
        }
        period_ns_ = p;
        return {};
      });

  // Constraint plumbing used inside XDC files.
  interp_.register_command("get_ports",
                           [](Interp&, const std::vector<std::string>& a) -> std::string {
                             return a.size() > 1 ? a.back() : std::string();
                           });
  interp_.register_command("get_nets",
                           [](Interp&, const std::vector<std::string>& a) -> std::string {
                             return a.size() > 1 ? a.back() : std::string();
                           });
  interp_.register_command("set_property",
                           [](Interp&, const std::vector<std::string>&) -> std::string {
                             return {};
                           });

  interp_.register_command(
      "synth_design", [this](Interp&, const std::vector<std::string>& a) -> std::string {
        cmd_synth_design(a);
        return {};
      });
  interp_.register_command(
      "opt_design", [this](Interp&, const std::vector<std::string>&) -> std::string {
        if (!mapped_) Interp::fail("ERROR: [Opt 31-1] opt_design before synth_design");
        charge(4.0 + 0.001 * static_cast<double>(mapped_->util.lut_total()));
        return {};
      });
  interp_.register_command(
      "place_design", [this](Interp&, const std::vector<std::string>& a) -> std::string {
        cmd_place_design(a);
        return {};
      });
  interp_.register_command(
      "route_design", [this](Interp&, const std::vector<std::string>& a) -> std::string {
        cmd_route_design(a);
        return {};
      });

  interp_.register_command(
      "write_checkpoint", [this](Interp&, const std::vector<std::string>& a) -> std::string {
        if (!mapped_ || !device_) {
          Interp::fail("ERROR: [Common 17-53] write_checkpoint before synth_design");
        }
        const std::string& path = last_positional(a);
        if (path.empty()) Interp::fail("write_checkpoint: missing file");
        checkpoints_[path] =
            Checkpoint{mapped_->top, device_->part, mapped_->util.lut_total(), routed_};
        charge(1.5);
        return {};
      });

  interp_.register_command(
      "read_checkpoint", [this](Interp&, const std::vector<std::string>& a) -> std::string {
        // `read_checkpoint -incremental <dcp>` takes the path as the flag's
        // value; the plain form takes it positionally.
        const std::string& path = has_flag(a, "-incremental")
                                      ? option_value(a, "-incremental")
                                      : last_positional(a);
        if (path.empty()) Interp::fail("read_checkpoint: missing file");
        auto it = checkpoints_.find(path);
        if (it == checkpoints_.end()) {
          // Vivado warns and continues flat when the reference checkpoint
          // is missing.
          interp_.emit("WARNING: [Project 1-588] reference checkpoint not found: " + path);
          return {};
        }
        if (has_flag(a, "-incremental") && mapped_ && it->second.top == mapped_->top) {
          incremental_impl_hit_ = true;
        }
        charge(1.0);
        return {};
      });

  interp_.register_command(
      "report_utilization", [this](Interp&, const std::vector<std::string>&) -> std::string {
        cmd_report_utilization();
        return {};
      });
  interp_.register_command(
      "report_timing", [this](Interp&, const std::vector<std::string>&) -> std::string {
        cmd_report_timing();
        return {};
      });
  interp_.register_command(
      "report_power", [this](Interp&, const std::vector<std::string>&) -> std::string {
        if (!mapped_ || !device_) {
          Interp::fail("ERROR: [Common 17-53] report_power before synth_design");
        }
        // Analyze at the achieved clock (1000/critical-path MHz), the rate
        // the design can actually sustain.
        const double clock_mhz =
            timing_.data_path_ns > 0.0 ? 1000.0 / timing_.data_path_ns : 0.0;
        const PowerEstimate estimate = estimate_power(*mapped_, *device_, clock_mhz);
        charge(3.0);
        const std::string text = power_report_text(estimate, clock_mhz);
        interp_.emit(corrupt_reports_ ? corrupt_report_text(text) : text);
        return {};
      });
}

std::string VivadoSim::corrupt_report_text(std::string text) {
  // Shared with every fault-capable backend so the supervisor classifies
  // the damage identically (see edatool/backend.hpp).
  return edatool::corrupt_report_text(std::move(text));
}

tcl::EvalResult VivadoSim::run_script(const std::string& script) {
  interp_.clear_output();
  last_run_seconds_ = 0.0;
  charge_factor_ = 1.0;
  corrupt_reports_ = false;
  last_fault_ = FaultKind::kNone;

  if (faults_) {
    const FaultInjector::Decision fault = faults_->decide(fault_point_key_, fault_attempt_);
    last_fault_ = fault.kind;
    switch (fault.kind) {
      case FaultKind::kCrash: {
        // The process dies partway through the flow: a deterministic
        // fraction of a typical synthesis run is charged, then the script
        // fails the way a vanished subprocess does.
        charge(5.0 + 20.0 * (static_cast<double>(util::mix64(fault_point_key_ ^
                                                             static_cast<std::uint64_t>(
                                                                 fault_attempt_)) >>
                                                 11) *
                             0x1.0p-53));
        tcl::EvalResult crashed;
        crashed.error =
            "ERROR: [Common 17-179] Vivado process terminated abnormally (simulated "
            "transient crash)";
        return crashed;
      }
      case FaultKind::kPersistentAbort: {
        charge(3.0);
        tcl::EvalResult aborted;
        aborted.error =
            "ERROR: [Common 17-179] Vivado process terminated abnormally (simulated "
            "persistent abort)";
        return aborted;
      }
      case FaultKind::kHang:
        charge_factor_ = fault.hang_factor;
        break;
      case FaultKind::kCorruptReport:
        corrupt_reports_ = true;
        break;
      case FaultKind::kNone:
        break;
    }
  }
  return interp_.eval(script);
}

}  // namespace dovado::edatool
