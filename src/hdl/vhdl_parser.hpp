// VHDL-2008 declaration parser.
//
// Parses library/use clauses, entity declarations (generic and port
// clauses, all declaration styles: grouped identifiers, default modes,
// constrained subtypes, default expressions) and records architecture names.
// Architecture/package bodies are skipped — only the interface matters for
// Dovado's boxing step.
#pragma once

#include <string_view>

#include "src/hdl/ast.hpp"
#include "src/hdl/lexer.hpp"

namespace dovado::hdl {

/// Parse VHDL source text. `path` is only used for diagnostics/bookkeeping.
[[nodiscard]] ParseResult parse_vhdl(std::string_view text, std::string_view path = "<memory>");

/// Parse an already-lexed VHDL source (same result as the text form).
[[nodiscard]] ParseResult parse_vhdl(const LexedSource& lexed, std::string_view path = "<memory>");

}  // namespace dovado::hdl
