#include "src/tcl/frames.hpp"

#include "src/util/strings.hpp"

namespace dovado::tcl {

std::vector<std::string> validate_frame(const FrameConfig& config) {
  std::vector<std::string> problems;
  if (config.part.empty()) problems.push_back("no target part specified");
  if (config.top.empty()) problems.push_back("no top module specified");
  for (const auto& s : config.sources) {
    if (s.path.empty()) {
      problems.push_back("source file with empty path");
      continue;
    }
    if (s.language == hdl::HdlLanguage::kVhdl && !s.library.empty() && s.library != "work") {
      // Paper Sec. III-A.3: "we apply some naming constraints for VHDL
      // libraries (i.e., one subfolder per library with the same name)".
      if (!util::contains(s.path, "/" + s.library + "/")) {
        problems.push_back("VHDL source '" + s.path + "' is assigned to library '" +
                           s.library + "' but does not live in a '" + s.library +
                           "/' subfolder");
      }
    }
    if (s.is_package && s.language == hdl::HdlLanguage::kVhdl) {
      problems.push_back("source '" + s.path +
                         "' marked as SV package but declared as VHDL");
    }
  }
  return problems;
}

std::vector<SourceFile> reading_order(const FrameConfig& config) {
  std::vector<SourceFile> ordered;
  ordered.reserve(config.sources.size() + 1);
  for (const auto& s : config.sources) {
    if (s.is_package) ordered.push_back(s);
  }
  for (const auto& s : config.sources) {
    if (!s.is_package) ordered.push_back(s);
  }
  SourceFile box;
  box.path = config.box_path;
  box.language = config.box_language;
  box.library = "work";
  ordered.push_back(box);
  return ordered;
}

std::string read_command(const SourceFile& source) {
  switch (source.language) {
    case hdl::HdlLanguage::kVhdl: {
      std::string cmd = "read_vhdl";
      if (!source.library.empty() && source.library != "work") {
        cmd += " -library " + source.library;
      }
      return cmd + " {" + source.path + "}";
    }
    case hdl::HdlLanguage::kVerilog:
      return "read_verilog {" + source.path + "}";
    case hdl::HdlLanguage::kSystemVerilog:
      return "read_verilog -sv {" + source.path + "}";
  }
  return {};
}

std::string generate_flow_script(const FrameConfig& config) {
  std::string s;
  s += "# Dovado flow script (generated)\n";
  s += "set part {" + config.part + "}\n";
  s += "set top {" + config.top + "}\n";

  for (const auto& src : reading_order(config)) {
    s += read_command(src) + "\n";
  }
  s += "read_xdc {" + config.xdc_path + "}\n";

  s += "synth_design -top $top -part $part -directive {" + config.synth_directive + "}";
  if (config.incremental_synth) {
    // Vivado reuses the previous run's checkpoint when present; the tool
    // simply warns and runs flat when it is missing, so the frame can
    // reference it unconditionally.
    s += std::string(" -incremental {") + kSynthCheckpoint + "}";
  }
  s += "\n";
  s += std::string("write_checkpoint -force {") + kSynthCheckpoint + "}\n";

  if (config.run_implementation) {
    s += "opt_design\n";
    if (config.incremental_impl) {
      s += std::string("read_checkpoint -incremental {") + kImplCheckpoint + "}\n";
    }
    s += "place_design -directive {" + config.place_directive + "}\n";
    s += "route_design -directive {" + config.route_directive + "}\n";
    s += std::string("write_checkpoint -force {") + kImplCheckpoint + "}\n";
  }

  s += "report_utilization\n";
  s += "report_timing\n";
  s += "report_power\n";
  return s;
}

}  // namespace dovado::tcl
