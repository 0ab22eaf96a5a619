#include "src/boxing/box.hpp"

#include <set>

#include "src/hdl/expr.hpp"
#include "src/util/strings.hpp"

namespace dovado::boxing {

using hdl::HdlLanguage;
using hdl::Module;
using hdl::Port;

BoxTemplate::BoxTemplate(const Module& module, const BoxConfig& config)
    : module_(&module), box_name_(config.box_name) {
  if (module.name.empty()) {
    error_ = "module has no name";
    return;
  }
  if (config.box_name.empty()) {
    error_ = "box name must not be empty";
    return;
  }
  if (util::iequals(config.box_name, module.name)) {
    error_ = "box name collides with the boxed module's name";
    return;
  }
  if (config.target_period_ns <= 0.0) {
    late_error_ = "target period must be positive";
    return;
  }
  std::string clock_name = config.clock_port;
  if (clock_name.empty()) {
    const Port* clk = hdl::find_clock_port(module);
    if (clk != nullptr) clock_name = clk->name;
  } else if (module.find_port(clock_name) == nullptr) {
    late_error_ = "module has no port '" + clock_name + "' to use as clock";
    return;
  }
  xdc_ = generate_xdc("clk", config.target_period_ns);

  // The fixed text is laid out in `text`; each vector port cuts it into a
  // slot, since its bounds are the point's.
  const std::string& box = config.box_name;
  const bool vhdl = module.language == HdlLanguage::kVhdl;
  const auto is_clock = [&](const Port& port) {
    return vhdl ? util::iequals(port.name, clock_name) : port.name == clock_name;
  };
  const auto signal_name = [&](const Port& port) {
    return "s_" + (vhdl ? util::to_lower(port.name) : port.name);
  };
  std::string text;
  if (vhdl) {
    // Library/use clauses: always ieee.std_logic_1164 (for the clk port
    // type) plus everything the boxed entity needs.
    std::set<std::string> libs{"ieee"};
    libs.insert(module.libraries.begin(), module.libraries.end());
    std::set<std::string> uses{"ieee.std_logic_1164.all"};
    uses.insert(module.use_clauses.begin(), module.use_clauses.end());
    for (const auto& l : libs) {
      if (l == "work" || l == "std") continue;
      text += "library " + l + ";\n";
    }
    for (const auto& u : uses) text += "use " + u + ";\n";
    text += "\nentity " + box + " is\n  port (\n    clk : in std_logic\n  );\nend entity " + box +
            ";\n\narchitecture " + box + "_arch of " + box +
            " is\n  attribute DONT_TOUCH : string;\n"
            "  attribute DONT_TOUCH of BOXED : label is \"TRUE\";\n";
  } else {
    text += "module " + box + " (\n  input wire clk\n);\n\n";
  }

  // One internal signal per non-clock port so the tool cannot trim the
  // interface and no pin is required at the device level.
  for (const auto& port : module.ports) {
    if (is_clock(port)) continue;
    if (vhdl) {
      text += "  signal " + signal_name(port) + " : ";
      if (port.is_vector) {
        text += port.type_name;
        slots_.push_back({std::move(text), &port, port.downto ? " downto " : " to "});
        text.clear();
      } else {
        text += port.type_name.empty() ? "std_logic" : port.type_name;
      }
      text += ";\n";
    } else {
      text += "  wire ";
      if (port.is_vector) {
        slots_.push_back({std::move(text), &port, nullptr});
        text.clear();
      }
      text += signal_name(port) + ";\n";
    }
  }
  middle_ = vhdl ? text + "begin\n  BOXED: entity work." + module.name + "\n"
                 : text + "\n  (* DONT_TOUCH = \"TRUE\" *)\n  " + module.name + " ";

  tail_ = vhdl ? "    port map (\n" : "BOXED (\n";
  for (std::size_t i = 0; i < module.ports.size(); ++i) {
    const Port& port = module.ports[i];
    const std::string target = is_clock(port) ? "clk" : signal_name(port);
    tail_ += vhdl ? "      " + port.name + " => " + target
                  : "    ." + port.name + "(" + target + ")";
    tail_ += i + 1 < module.ports.size() ? ",\n" : "\n";
  }
  tail_ += vhdl ? "    );\nend architecture " + box + "_arch;\n" : "  );\n\nendmodule\n";

  fixed_size_ = middle_.size() + tail_.size();
  for (const Slot& slot : slots_) fixed_size_ += slot.before.size();
}

std::string BoxTemplate::check(const util::FlatMap<std::int64_t>& parameters) const {
  if (!error_.empty()) return error_;
  // Validate the design point against the module interface.
  const Module& module = *module_;
  for (const auto& [name, value] : parameters) {
    (void)value;
    bool found = false;
    for (const auto& p : module.parameters) {
      const bool match = module.language == HdlLanguage::kVhdl ? util::iequals(p.name, name)
                                                               : p.name == name;
      if (!match) continue;
      if (p.is_local) {
        return "parameter '" + name + "' is a localparam/constant and cannot be overridden";
      }
      found = true;
      break;
    }
    if (!found) return "module '" + module.name + "' has no parameter '" + name + "'";
  }
  return late_error_;
}

std::string BoxTemplate::render_checked(const util::FlatMap<std::int64_t>& parameters,
                                        std::string& source) const {
  const hdl::ExprEnv env = hdl::build_param_env(*module_, parameters);
  const bool vhdl = module_->language == HdlLanguage::kVhdl;

  // Room for the fixed text, at most 50 bytes per slot ("(", two 20-byte
  // bounds, " downto ", ")"), the map's 24 bytes of header and footer and
  // at most 32 per parameter besides its name: one allocation.
  std::size_t size = fixed_size_ + 50 * slots_.size() + 24;
  for (const auto& [name, value] : parameters) size += name.size() + 32;
  source.clear();
  source.reserve(size);

  for (const Slot& slot : slots_) {
    source += slot.before;
    const hdl::PortBounds bounds = hdl::eval_port_bounds(*slot.port, module_->language, env);
    if (!bounds.left.ok() || !bounds.right.ok()) {
      return "cannot evaluate bounds of port '" + slot.port->name +
             "': " + (bounds.left.ok() ? bounds.right.error : bounds.left.error);
    }
    source += slot.direction != nullptr ? '(' : '[';
    util::append_int(source, *bounds.left.value);
    if (slot.direction != nullptr) {
      source += slot.direction;
    } else {
      source += ':';
    }
    util::append_int(source, *bounds.right.value);
    source += slot.direction != nullptr ? ")" : "] ";
  }
  source += middle_;

  // Generic/parameter map: only the overridden parameters (defaults cover
  // the rest).
  if (!parameters.empty()) {
    source += vhdl ? "    generic map (\n" : "#(\n";
    std::size_t i = 0;
    for (const auto& [name, value] : parameters) {
      source += vhdl ? "      " : "    .";
      source += name;
      source += vhdl ? " => " : "(";
      util::append_int(source, value);
      if (!vhdl) source += ')';
      source += ++i < parameters.size() ? ",\n" : "\n";
    }
    source += vhdl ? "    )\n" : "  ) ";
  }
  source += tail_;
  return {};
}

std::string BoxTemplate::render(const util::FlatMap<std::int64_t>& parameters,
                                std::string& source) const {
  std::string error = check(parameters);
  if (!error.empty()) return error;
  return render_checked(parameters, source);
}

BoxResult BoxTemplate::generate(const util::FlatMap<std::int64_t>& parameters) const {
  BoxResult result;
  result.error = check(parameters);
  if (!result.error.empty()) return result;
  result.language = module_->language;
  result.top_name = box_name_;
  result.error = render_checked(parameters, result.box_source);
  if (!result.error.empty()) {
    result.box_source.clear();
    return result;
  }
  result.xdc = xdc_;
  result.ok = true;
  return result;
}

std::string generate_xdc(const std::string& clock_pin, double period_ns) {
  // Matches the constraint Dovado's TCL frame emits: one clock on the box
  // pin at the user's target period.
  return util::format(
      "create_clock -period %.3f -name dovado_clk [get_ports %s]\n"
      "set_property CLOCK_DEDICATED_ROUTE FALSE [get_nets %s]\n",
      period_ns, clock_pin.c_str(), clock_pin.c_str());
}

BoxResult generate_box(const hdl::Module& module, const BoxConfig& config) {
  return BoxTemplate(module, config).generate(config.parameters);
}

}  // namespace dovado::boxing
