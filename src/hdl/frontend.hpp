// Front door of the HDL substrate: language detection and file parsing.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "src/hdl/ast.hpp"
#include "src/hdl/lexer.hpp"

namespace dovado::hdl {

/// Infer the HDL from a file extension: .vhd/.vhdl -> VHDL, .v -> Verilog,
/// .sv/.svh -> SystemVerilog. std::nullopt for anything else.
[[nodiscard]] std::optional<HdlLanguage> language_from_path(std::string_view path);

/// Heuristic content sniffing for extension-less sources: looks for
/// entity/architecture vs module/endmodule markers.
[[nodiscard]] std::optional<HdlLanguage> language_from_content(std::string_view text);

/// Parse in-memory source text in the given language.
[[nodiscard]] ParseResult parse_source(std::string_view text, HdlLanguage lang,
                                       std::string_view path = "<memory>");

/// Parse a source lexed with lex_source(text, lang): the same result as
/// parse_source(text, lang, path), for callers that keep the tokens.
[[nodiscard]] ParseResult parse_source(const LexedSource& lexed, HdlLanguage lang,
                                       std::string_view path = "<memory>");

/// Read a file from disk, detect its language (extension first, content as
/// fallback) and parse it. A missing file or undetectable language yields a
/// ParseResult with ok=false and a diagnostic.
[[nodiscard]] ParseResult parse_file(const std::string& path);

}  // namespace dovado::hdl
