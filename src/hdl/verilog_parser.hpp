// Verilog-2005 / SystemVerilog module-header parser.
//
// Handles ANSI headers (`module m #(parameter W = 8)(input wire clk, ...)`),
// non-ANSI headers with body-level parameter/input/output declarations, and
// SV flavours (typed parameters, localparam, logic ports). Module bodies are
// scanned only to recover non-ANSI declarations; functions/tasks/generate
// blocks are skipped so their locals cannot be mistaken for ports.
#pragma once

#include <string_view>

#include "src/hdl/ast.hpp"
#include "src/hdl/lexer.hpp"

namespace dovado::hdl {

/// Parse Verilog/SV source text. The `lang` flag only affects bookkeeping
/// (the grammar subset accepted is the SV superset either way).
[[nodiscard]] ParseResult parse_verilog(std::string_view text, HdlLanguage lang,
                                        std::string_view path = "<memory>");

/// Parse an already-lexed Verilog/SV source (same result as the text form).
[[nodiscard]] ParseResult parse_verilog(const LexedSource& lexed, HdlLanguage lang,
                                        std::string_view path = "<memory>");

}  // namespace dovado::hdl
