#include "tests/boxing/reference_box.hpp"

#include <set>

#include "src/util/strings.hpp"
#include "tests/hdl/reference_expr.hpp"

namespace dovado::boxing::reference {

namespace {

using hdl::HdlLanguage;
using hdl::Module;
using hdl::Port;

/// The bounds of a vector port, evaluated from their text.
std::pair<hdl::ExprResult, hdl::ExprResult> port_bounds(const Port& port, HdlLanguage lang,
                                                        const hdl::ExprEnv& env) {
  return {hdl::reference::eval_expr(port.left_expr, lang, env),
          hdl::reference::eval_expr(port.right_expr, lang, env)};
}

std::string validate_parameters(const Module& module,
                                const util::FlatMap<std::int64_t>& params) {
  for (const auto& [name, value] : params) {
    (void)value;
    bool found = false;
    for (const auto& p : module.parameters) {
      const bool match = module.language == HdlLanguage::kVhdl
                             ? util::iequals(p.name, name)
                             : p.name == name;
      if (!match) continue;
      if (p.is_local) {
        return "parameter '" + name + "' is a localparam/constant and cannot be overridden";
      }
      found = true;
      break;
    }
    if (!found) {
      return "module '" + module.name + "' has no parameter '" + name + "'";
    }
  }
  return {};
}

std::string vhdl_signal_type(const Port& port, const hdl::ExprEnv& env, std::string& error) {
  if (!port.is_vector) {
    return port.type_name.empty() ? "std_logic" : port.type_name;
  }
  const auto [left, right] = port_bounds(port, HdlLanguage::kVhdl, env);
  if (!left.ok() || !right.ok()) {
    error = "cannot evaluate bounds of port '" + port.name + "': " +
            (left.ok() ? right.error : left.error);
    return {};
  }
  const char* dir = port.downto ? "downto" : "to";
  return util::format("%s(%lld %s %lld)", port.type_name.c_str(),
                      static_cast<long long>(*left.value), dir,
                      static_cast<long long>(*right.value));
}

BoxResult generate_vhdl_box(const Module& module, const BoxConfig& config,
                            const std::string& clock_name) {
  BoxResult result;
  result.language = HdlLanguage::kVhdl;
  result.top_name = config.box_name;

  const hdl::ExprEnv env = hdl::reference::build_param_env(module, config.parameters);

  std::string src;
  std::set<std::string> libs{"ieee"};
  for (const auto& l : module.libraries) libs.insert(l);
  std::set<std::string> uses{"ieee.std_logic_1164.all"};
  for (const auto& u : module.use_clauses) uses.insert(u);
  for (const auto& l : libs) {
    if (l == "work" || l == "std") continue;
    src += "library " + l + ";\n";
  }
  for (const auto& u : uses) src += "use " + u + ";\n";
  src += "\n";

  src += "entity " + config.box_name + " is\n";
  src += "  port (\n";
  src += "    clk : in std_logic\n";
  src += "  );\n";
  src += "end entity " + config.box_name + ";\n\n";

  src += "architecture " + config.box_name + "_arch of " + config.box_name + " is\n";
  src += "  attribute DONT_TOUCH : string;\n";
  src += "  attribute DONT_TOUCH of BOXED : label is \"TRUE\";\n";

  for (const auto& port : module.ports) {
    if (util::iequals(port.name, clock_name)) continue;
    std::string error;
    const std::string type = vhdl_signal_type(port, env, error);
    if (!error.empty()) {
      result.error = error;
      return result;
    }
    src += "  signal s_" + util::to_lower(port.name) + " : " + type + ";\n";
  }

  src += "begin\n";
  src += "  BOXED: entity work." + module.name + "\n";

  if (!config.parameters.empty()) {
    src += "    generic map (\n";
    std::size_t i = 0;
    for (const auto& [name, value] : config.parameters) {
      src += "      " + name + " => " + std::to_string(value);
      src += (++i < config.parameters.size()) ? ",\n" : "\n";
    }
    src += "    )\n";
  }

  src += "    port map (\n";
  std::size_t i = 0;
  for (const auto& port : module.ports) {
    const bool is_clk = util::iequals(port.name, clock_name);
    src += "      " + port.name + " => " +
           (is_clk ? "clk" : "s_" + util::to_lower(port.name));
    src += (++i < module.ports.size()) ? ",\n" : "\n";
  }
  src += "    );\n";
  src += "end architecture " + config.box_name + "_arch;\n";

  result.box_source = std::move(src);
  result.xdc = generate_xdc("clk", config.target_period_ns);
  result.ok = true;
  return result;
}

std::string verilog_signal_decl(const Port& port, HdlLanguage lang, const hdl::ExprEnv& env,
                                std::string& error) {
  std::string decl = "  wire ";
  if (port.is_vector) {
    const auto [left, right] = port_bounds(port, lang, env);
    if (!left.ok() || !right.ok()) {
      error = "cannot evaluate bounds of port '" + port.name + "': " +
              (left.ok() ? right.error : left.error);
      return {};
    }
    decl += util::format("[%lld:%lld] ", static_cast<long long>(*left.value),
                         static_cast<long long>(*right.value));
  }
  decl += "s_" + port.name + ";";
  return decl;
}

BoxResult generate_verilog_box(const Module& module, const BoxConfig& config,
                               const std::string& clock_name) {
  BoxResult result;
  result.language = module.language;
  result.top_name = config.box_name;

  const hdl::ExprEnv env = hdl::reference::build_param_env(module, config.parameters);

  std::string src;
  src += "module " + config.box_name + " (\n";
  src += "  input wire clk\n";
  src += ");\n\n";

  for (const auto& port : module.ports) {
    if (port.name == clock_name) continue;
    std::string error;
    const std::string decl = verilog_signal_decl(port, module.language, env, error);
    if (!error.empty()) {
      result.error = error;
      return result;
    }
    src += decl + "\n";
  }

  src += "\n  (* DONT_TOUCH = \"TRUE\" *)\n";
  src += "  " + module.name + " ";
  if (!config.parameters.empty()) {
    src += "#(\n";
    std::size_t i = 0;
    for (const auto& [name, value] : config.parameters) {
      src += "    ." + name + "(" + std::to_string(value) + ")";
      src += (++i < config.parameters.size()) ? ",\n" : "\n";
    }
    src += "  ) ";
  }
  src += "BOXED (\n";
  std::size_t i = 0;
  for (const auto& port : module.ports) {
    const bool is_clk = port.name == clock_name;
    src += "    ." + port.name + "(" + (is_clk ? "clk" : "s_" + port.name) + ")";
    src += (++i < module.ports.size()) ? ",\n" : "\n";
  }
  src += "  );\n\n";
  src += "endmodule\n";

  result.box_source = std::move(src);
  result.xdc = generate_xdc("clk", config.target_period_ns);
  result.ok = true;
  return result;
}

}  // namespace

BoxResult generate_box(const hdl::Module& module, const BoxConfig& config) {
  BoxResult result;
  if (module.name.empty()) {
    result.error = "module has no name";
    return result;
  }
  if (config.box_name.empty()) {
    result.error = "box name must not be empty";
    return result;
  }
  if (util::iequals(config.box_name, module.name)) {
    result.error = "box name collides with the boxed module's name";
    return result;
  }
  const std::string param_error = validate_parameters(module, config.parameters);
  if (!param_error.empty()) {
    result.error = param_error;
    return result;
  }
  if (config.target_period_ns <= 0.0) {
    result.error = "target period must be positive";
    return result;
  }

  std::string clock_name = config.clock_port;
  if (clock_name.empty()) {
    const Port* clk = hdl::find_clock_port(module);
    if (clk != nullptr) clock_name = clk->name;
  } else if (module.find_port(clock_name) == nullptr) {
    result.error = "module has no port '" + clock_name + "' to use as clock";
    return result;
  }

  if (module.language == hdl::HdlLanguage::kVhdl) {
    return generate_vhdl_box(module, config, clock_name);
  }
  return generate_verilog_box(module, config, clock_name);
}

}  // namespace dovado::boxing::reference
