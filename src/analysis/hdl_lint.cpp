#include "src/analysis/hdl_lint.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "src/hdl/expr.hpp"
#include "src/hdl/structure.hpp"
#include "src/util/strings.hpp"

namespace dovado::analysis {

namespace {

/// Number of bits needed to represent `value` as an unsigned quantity
/// (negative values report the width of their magnitude plus a sign bit).
int bits_needed(std::int64_t value) {
  if (value < 0) value = -(value + 1);
  int bits = 0;
  while (value > 0) {
    ++bits;
    value >>= 1;
  }
  return bits == 0 ? 1 : bits;
}

/// Iterative Tarjan SCC over the continuous-assign net graph. Returns the
/// components with more than one node, plus self-loop singletons.
std::vector<std::vector<std::string>> comb_cycles(
    const std::map<std::string, std::vector<std::string>>& edges) {
  std::map<std::string, int> index;
  std::map<std::string, int> low;
  std::map<std::string, bool> on_stack;
  std::vector<std::string> stack;
  std::vector<std::vector<std::string>> cycles;
  int counter = 0;

  struct Frame {
    std::string node;
    std::size_t next_edge = 0;
  };

  for (const auto& [start, _] : edges) {
    if (index.count(start) > 0) continue;
    std::vector<Frame> frames;
    frames.push_back({start, 0});
    index[start] = low[start] = counter++;
    stack.push_back(start);
    on_stack[start] = true;

    while (!frames.empty()) {
      Frame& frame = frames.back();
      const auto it = edges.find(frame.node);
      bool descended = false;
      while (it != edges.end() && frame.next_edge < it->second.size()) {
        const std::string& next = it->second[frame.next_edge++];
        if (edges.count(next) == 0) continue;  // leaf: cannot close a cycle
        if (index.count(next) == 0) {
          index[next] = low[next] = counter++;
          stack.push_back(next);
          on_stack[next] = true;
          frames.push_back({next, 0});
          descended = true;
          break;
        }
        if (on_stack[next]) low[frame.node] = std::min(low[frame.node], index[next]);
      }
      if (descended) continue;
      if (low[frame.node] == index[frame.node]) {
        std::vector<std::string> component;
        for (;;) {
          const std::string node = stack.back();
          stack.pop_back();
          on_stack[node] = false;
          component.push_back(node);
          if (node == frame.node) break;
        }
        const bool self_loop =
            component.size() == 1 && it != edges.end() &&
            std::find(it->second.begin(), it->second.end(), frame.node) != it->second.end();
        if (component.size() > 1 || self_loop) {
          std::sort(component.begin(), component.end());
          cycles.push_back(std::move(component));
        }
      }
      const std::string done = frame.node;
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().node] = std::min(low[frames.back().node], low[done]);
      }
    }
  }
  return cycles;
}

/// Evaluated bit width of a declared net/port range; nullopt when the
/// bounds do not evaluate against the default parameter environment.
std::optional<std::int64_t> range_width(const std::string& left, const std::string& right,
                                        hdl::HdlLanguage lang, const hdl::ExprEnv& env) {
  const hdl::ExprResult l = hdl::eval_expr(left, lang, env);
  const hdl::ExprResult r = hdl::eval_expr(right, lang, env);
  if (!l.ok() || !r.ok()) return std::nullopt;
  const std::int64_t diff = *l.value - *r.value;
  return (diff < 0 ? -diff : diff) + 1;
}

void lint_interface(const hdl::Module& module, const std::string& path, bool is_top,
                    LintReport& report) {
  const bool vhdl = module.language == hdl::HdlLanguage::kVhdl;
  const auto same_name = [&](const std::string& a, const std::string& b) {
    return vhdl ? util::iequals(a, b) : a == b;
  };

  for (std::size_t i = 0; i < module.ports.size(); ++i) {
    for (std::size_t j = i + 1; j < module.ports.size(); ++j) {
      if (same_name(module.ports[i].name, module.ports[j].name)) {
        report.add(Severity::kError, "hdl-duplicate-port", path, module.ports[j].loc,
                   "port '" + module.ports[j].name + "' of module '" + module.name +
                       "' is declared twice");
      }
    }
  }
  for (std::size_t i = 0; i < module.parameters.size(); ++i) {
    for (std::size_t j = i + 1; j < module.parameters.size(); ++j) {
      if (same_name(module.parameters[i].name, module.parameters[j].name)) {
        report.add(Severity::kError, "hdl-duplicate-param", path, module.parameters[j].loc,
                   "parameter '" + module.parameters[j].name + "' of module '" +
                       module.name + "' is declared twice");
      }
    }
  }

  if (is_top && hdl::find_clock_port(module) == nullptr) {
    report.add(Severity::kWarning, "hdl-no-clock-port", path, {},
               "module '" + module.name + "' has no detectable clock input",
               "the box and the XDC constraint need a clock; name one port clk/clock");
  }

  const hdl::ExprEnv env = hdl::build_param_env(module, {});

  // VHDL range-direction contradiction: (0 downto N-1) or (N-1 to 0) is a
  // null range — the entity elaborates to zero-width ports.
  if (vhdl) {
    for (const auto& port : module.ports) {
      if (!port.is_vector) continue;
      const auto [l, r] = hdl::eval_port_bounds(port, module.language, env);
      if (!l.ok() || !r.ok()) continue;
      if ((port.downto && *l.value < *r.value) || (!port.downto && *l.value > *r.value)) {
        report.add(Severity::kWarning, "hdl-port-range-reversed", path, port.loc,
                   "port '" + port.name + "' has a null range (" + port.left_expr +
                       (port.downto ? " downto " : " to ") + port.right_expr + ")");
      }
    }
  }

  // Parameter defaults that overflow their own declared packed width
  // silently truncate at elaboration.
  for (const auto& param : module.parameters) {
    if (param.range_left_expr.empty() || param.default_expr.empty()) continue;
    const auto width =
        range_width(param.range_left_expr, param.range_right_expr, module.language, env);
    const hdl::ExprResult value = hdl::eval_expr(param.default_expr, module.language, env);
    if (!width || !value.ok() || *width <= 0 || *width >= 63) continue;
    if (*value.value >= 0 && bits_needed(*value.value) > *width) {
      report.add(Severity::kWarning, "hdl-param-width-overflow", path, param.loc,
                 "default of parameter '" + param.name + "' (" + param.default_expr +
                     ") does not fit its declared [" + param.range_left_expr + ":" +
                     param.range_right_expr + "] width of " + std::to_string(*width) +
                     " bit(s)");
    }
  }
}

}  // namespace

void lint_module_structure(const hdl::Module& module, const std::string& path,
                           std::span<const hdl::Token> tokens, LintReport& report) {
  const hdl::ModuleStructure structure =
      hdl::scan_structure(tokens, module.language, module.name);
  if (!structure.found) return;

  const hdl::ExprEnv env = hdl::build_param_env(module, {});
  const auto port_of = [&](const std::string& name) -> const hdl::Port* {
    return module.find_port(name);
  };

  for (const auto& [name, net] : structure.nets) {
    const hdl::Port* port = port_of(name);
    const bool is_input = port != nullptr && port->dir != hdl::PortDir::kOut;

    // Undriven: something reads the net, nothing can possibly drive it.
    if (net.declared && net.read && net.drivers() == 0 && !is_input &&
        port == nullptr) {
      report.add(Severity::kWarning, "net-undriven", path, net.loc,
                 "net '" + name + "' in module '" + module.name +
                     "' is read but never driven");
    }

    // Multiply-driven: two whole-net continuous assigns always conflict, as
    // does a continuous assign against a procedural driver. Multiple
    // *procedural* assignments are legal (the default-then-override idiom
    // inside always_comb), slice drivers may cover disjoint bits, and
    // instance connections are ambiguous — none of those count.
    const bool conflict =
        net.whole_cont_drivers >= 2 ||
        (net.whole_cont_drivers >= 1 && net.whole_proc_drivers >= 1);
    if (conflict && !net.instance_connected && net.slice_cont_drivers == 0 &&
        net.slice_proc_drivers == 0) {
      report.add(Severity::kError, "net-multiply-driven", path, net.loc,
                 "net '" + name + "' in module '" + module.name + "' has " +
                     std::to_string(net.whole_cont_drivers + net.whole_proc_drivers) +
                     " conflicting whole-net drivers");
    }
  }

  // Dangling outputs: an output port nothing in the body ever drives.
  for (const auto& port : module.ports) {
    if (port.dir != hdl::PortDir::kOut) continue;
    const auto it = structure.nets.find(port.name);
    const bool driven = it != structure.nets.end() && it->second.drivers() > 0;
    if (!driven) {
      report.add(Severity::kWarning, "net-dangling-output", path, port.loc,
                 "output '" + port.name + "' of module '" + module.name +
                     "' is never driven");
    }
  }

  // Combinational loops through continuous assigns (always blocks are
  // excluded: registered feedback through an edge-triggered process is the
  // normal shape of sequential logic).
  std::map<std::string, std::vector<std::string>> edges;  // rhs -> [lhs...]
  std::map<std::string, hdl::SourceLoc> assign_loc;
  for (const auto& assign : structure.assigns) {
    if (!assign.whole) continue;
    assign_loc.emplace(assign.lhs, assign.loc);
    for (const auto& rhs : assign.rhs) {
      edges[rhs].push_back(assign.lhs);
    }
    edges[assign.lhs];  // ensure the node exists even with constant RHS
  }
  for (const auto& cycle : comb_cycles(edges)) {
    // Only report cycles made entirely of assigned nets (an identifier that
    // is merely read cannot close a combinational path by itself).
    bool all_assigned = true;
    for (const auto& name : cycle) {
      if (assign_loc.count(name) == 0) all_assigned = false;
    }
    if (!all_assigned) continue;
    report.add(Severity::kError, "net-comb-loop", path, assign_loc[cycle.front()],
               "combinational loop through continuous assigns in module '" +
                   module.name + "': " + util::join(cycle, " -> "));
  }

  // Width mismatch on the simplest, unambiguous shape: whole-net assign of
  // one bare identifier to another, both widths known at default params.
  for (const auto& assign : structure.assigns) {
    if (!assign.whole || !assign.rhs_single_ident) continue;
    const auto width_of = [&](const std::string& name) -> std::optional<std::int64_t> {
      const auto it = structure.nets.find(name);
      if (it != structure.nets.end() && it->second.declared) {
        if (it->second.is_array) return std::nullopt;
        if (!it->second.is_vector) return 1;
        return range_width(it->second.left_expr, it->second.right_expr, module.language,
                           env);
      }
      if (const hdl::Port* port = port_of(name)) {
        if (port->multi_packed) return std::nullopt;
        return hdl::port_width(*port, module.language, env);
      }
      return std::nullopt;
    };
    const auto lhs_width = width_of(assign.lhs);
    const auto rhs_width = width_of(assign.rhs.front());
    if (lhs_width && rhs_width && *lhs_width != *rhs_width) {
      report.add(Severity::kWarning, "net-width-mismatch", path, assign.loc,
                 "assign connects '" + assign.lhs + "' (" + std::to_string(*lhs_width) +
                     " bits) to '" + assign.rhs.front() + "' (" +
                     std::to_string(*rhs_width) + " bits) in module '" + module.name +
                     "'");
    }
  }
}

void lint_hdl_file(const hdl::ParseResult& parsed, const std::string& path,
                   std::span<const hdl::Token> tokens, const std::string& top_module,
                   LintReport& report) {
  for (const auto& diag : parsed.diagnostics) {
    report.add(Severity::kError, "hdl-parse", path, diag.loc, diag.message);
  }
  for (const auto& module : parsed.file.modules) {
    const bool is_top =
        !top_module.empty() &&
        (parsed.file.language == hdl::HdlLanguage::kVhdl
             ? util::iequals(module.name, top_module)
             : module.name == top_module);
    lint_interface(module, path, is_top, report);
    if (module.language != hdl::HdlLanguage::kVhdl) {
      lint_module_structure(module, path, tokens, report);
    }
  }
}

}  // namespace dovado::analysis
