#include "src/hdl/frontend.hpp"

#include <fstream>
#include <sstream>

#include "src/hdl/verilog_parser.hpp"
#include "src/hdl/vhdl_parser.hpp"
#include "src/util/strings.hpp"

namespace dovado::hdl {

std::optional<HdlLanguage> language_from_path(std::string_view path) {
  const auto dot = path.rfind('.');
  if (dot == std::string_view::npos) return std::nullopt;
  const std::string ext = util::to_lower(path.substr(dot + 1));
  if (ext == "vhd" || ext == "vhdl") return HdlLanguage::kVhdl;
  if (ext == "v" || ext == "vh") return HdlLanguage::kVerilog;
  if (ext == "sv" || ext == "svh") return HdlLanguage::kSystemVerilog;
  return std::nullopt;
}

std::optional<HdlLanguage> language_from_content(std::string_view text) {
  const std::string lower = util::to_lower(text);
  const bool vhdlish = util::contains(lower, "entity") &&
                       (util::contains(lower, "architecture") || util::contains(lower, " is"));
  const bool verilogish =
      util::contains(lower, "module") && util::contains(lower, "endmodule");
  if (verilogish && !vhdlish) {
    return util::contains(lower, "logic") || util::contains(lower, "always_ff")
               ? HdlLanguage::kSystemVerilog
               : HdlLanguage::kVerilog;
  }
  if (vhdlish) return HdlLanguage::kVhdl;
  if (verilogish) return HdlLanguage::kVerilog;
  return std::nullopt;
}

ParseResult parse_source(const LexedSource& lexed, HdlLanguage lang, std::string_view path) {
  if (lang == HdlLanguage::kVhdl) return parse_vhdl(lexed, path);
  return parse_verilog(lexed, lang, path);
}

ParseResult parse_source(std::string_view text, HdlLanguage lang, std::string_view path) {
  return parse_source(lex_source(text, lang), lang, path);
}

ParseResult parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ParseResult r;
    r.file.path = path;
    r.diagnostics.push_back({{}, "cannot open file: " + path});
    return r;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  auto lang = language_from_path(path);
  if (!lang) lang = language_from_content(text);
  if (!lang) {
    ParseResult r;
    r.file.path = path;
    r.diagnostics.push_back({{}, "cannot detect HDL language of: " + path});
    return r;
  }
  return parse_source(text, *lang, path);
}

}  // namespace dovado::hdl
