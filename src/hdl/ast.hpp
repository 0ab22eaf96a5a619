// Abstract syntax for HDL module *declarations*.
//
// Dovado's parsing step (paper Sec. III-A.1) extracts exactly the hardware
// module interface: module name, parameter/generic declarations and port
// declarations — VHDL and (System)Verilog are regular in this declaration
// region even though the full languages are context-free. Everything below
// the interface (architecture/module bodies) is scanned but not modelled.
//
// Expression-valued fields (parameter defaults, port bounds) are kept twice:
// as source text for printing and diagnostics, and compiled (lexed once at
// parse time) for evaluation per design point.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/strings.hpp"

namespace dovado::hdl {

enum class HdlLanguage { kVhdl, kVerilog, kSystemVerilog };

/// Printable name of a language ("VHDL", "Verilog", "SystemVerilog").
[[nodiscard]] const char* language_name(HdlLanguage lang);

/// 1-based position inside a source file.
struct SourceLoc {
  std::uint32_t line = 1;
  std::uint32_t col = 1;
};

enum class TokenKind {
  kIdentifier,
  kNumber,   ///< numeric literal, original text preserved
  kString,   ///< "..." with quotes stripped
  kChar,     ///< VHDL character literal, e.g. '0'
  kPunct,    ///< operator/punctuation, longest-match
  kEof,
};

/// One lexical token (see lexer.hpp).
struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string text;
  SourceLoc loc;

  [[nodiscard]] bool is_punct(std::string_view p) const {
    return kind == TokenKind::kPunct && text == p;
  }
  /// Case-insensitive keyword check (VHDL keywords are case-insensitive;
  /// V/SV keywords are lower case so the check is equivalent there).
  [[nodiscard]] bool is_keyword(std::string_view kw) const {
    return kind == TokenKind::kIdentifier && text.size() == kw.size() && util::iequals(text, kw);
  }
};

/// What compile_expr decides about a token once, so that evaluating the
/// expression per design point switches on codes instead of comparing text
/// (see expr.cpp). kNone marks a token that is no operator: a literal, an
/// identifier that names a parameter or function, the end.
enum class ExprOp : std::uint8_t {
  kNone,
  kLParen, kRParen, kComma, kQuestion, kColon,
  kNot,                      ///< `!`, `not`
  kTrue, kFalse,             ///< the identifiers true/false (any case)
  kOrOr, kAndAnd,            ///< `||` `or`, `&&` `and`
  kEq, kNe,                  ///< `==` `=`, `!=` `/=`
  kLt, kGt, kLe, kGe,
  kShl, kShr,                ///< `<<` `sll`, `>>` `srl`
  kAdd, kSub, kBitAnd, kBitOr, kXor,
  kMul, kDiv, kPercent, kMod, kRem,
  kPow,
};

/// The built-in function an identifier names when it is called (`$` and
/// case ignored).
enum class ExprFn : std::uint8_t { kNone, kClog2, kAbs, kMax, kMin, kBits };

/// One token of a compiled expression: the lexer's token plus what
/// compile_expr worked out about it.
struct ExprToken {
  TokenKind kind = TokenKind::kEof;
  ExprOp op = ExprOp::kNone;
  std::uint8_t binding = 0;  ///< infix binding power; 0 = not an infix operator
  ExprFn fn = ExprFn::kNone;
  bool has_value = false;    ///< a number or character literal with an integer value
  std::int64_t value = 0;    ///< that value
  std::string text;          ///< as written (error messages)
  std::string folded;        ///< identifiers: lower-cased, the parameter-lookup key
};

/// A constant expression lexed and classified once (see
/// hdl::compile_expr): exactly the tokens the lexer makes of the
/// expression's text, or the reason the text does not lex.
/// Default-constructed = not compiled.
struct CompiledExpr {
  HdlLanguage language = HdlLanguage::kVhdl;
  std::vector<ExprToken> tokens;  ///< ends with kEof when compiled cleanly
  std::string error;              ///< empty expression / lexer diagnostic

  [[nodiscard]] bool compiled() const { return !tokens.empty() || !error.empty(); }
};

/// A parse problem. Parsers collect diagnostics instead of throwing so that
/// a file with one malformed module still yields the others.
struct Diagnostic {
  SourceLoc loc;
  std::string message;
};

/// A module generic (VHDL) or parameter (V/SV). Default expressions are
/// evaluated per design point against a parameter environment (see
/// expr.hpp) because defaults may reference earlier parameters.
struct Parameter {
  std::string name;
  std::string type_name;     ///< declared type ("integer", "int", "natural", ...); may be empty in Verilog
  std::string default_expr;  ///< source text of the default; empty if none
  bool is_local = false;     ///< SV localparam / VHDL constant: not user-tunable
  /// Packed range of the parameter itself (`parameter [3:0] P = ...`),
  /// kept as source text; both empty when the parameter is unranged.
  std::string range_left_expr;
  std::string range_right_expr;
  SourceLoc loc;
  CompiledExpr default_code{};  ///< default_expr, compiled by the parser
};

enum class PortDir { kIn, kOut, kInout };

/// Printable name of a direction ("in", "out", "inout").
[[nodiscard]] const char* port_dir_name(PortDir dir);

/// A port declaration. Vector bounds are stored as expression text
/// (e.g. left="WIDTH-1", right="0") so widths parametrized by generics can
/// be evaluated per design point.
struct Port {
  std::string name;
  PortDir dir = PortDir::kIn;
  std::string type_name;  ///< "std_logic", "std_logic_vector", "wire", "logic", ...
  bool is_vector = false;
  std::string left_expr;   ///< empty for scalar ports
  std::string right_expr;  ///< empty for scalar ports
  bool downto = true;      ///< VHDL "downto" vs "to"; Verilog [l:r] maps to downto
  /// More than one packed dimension (`[A-1:0][B-1:0]`): left/right hold the
  /// outermost range only, so single-range width math does not apply.
  bool multi_packed = false;
  SourceLoc loc;
  CompiledExpr left_code{};   ///< left_expr, compiled by the parser (vectors only)
  CompiledExpr right_code{};  ///< right_expr, compiled by the parser (vectors only)
};

/// One parsed module/entity interface.
struct Module {
  std::string name;
  HdlLanguage language = HdlLanguage::kVhdl;
  std::vector<std::string> libraries;    ///< VHDL library clauses (e.g. "ieee")
  std::vector<std::string> use_clauses;  ///< VHDL use clauses / SV imports
  std::vector<Parameter> parameters;
  std::vector<Port> ports;
  std::vector<std::string> architectures;  ///< VHDL architecture names seen for this entity

  /// User-tunable parameters (excludes localparams/constants).
  [[nodiscard]] std::vector<Parameter> free_parameters() const {
    std::vector<Parameter> out;
    for (const auto& p : parameters)
      if (!p.is_local) out.push_back(p);
    return out;
  }

  /// Find a port by name (case-insensitive for VHDL, sensitive otherwise).
  [[nodiscard]] const Port* find_port(const std::string& name) const;
};

/// All modules found in one source file.
struct DesignFile {
  std::string path;
  HdlLanguage language = HdlLanguage::kVhdl;
  std::vector<Module> modules;

  [[nodiscard]] const Module* find_module(const std::string& name) const;
};

/// Result of parsing one file. `ok` is true when at least one module was
/// recovered and no fatal diagnostics occurred.
struct ParseResult {
  DesignFile file;
  std::vector<Diagnostic> diagnostics;
  bool ok = false;
};

/// Heuristic clock-port detection: a 1-bit input whose name contains
/// "clk" or "clock" (Dovado needs the clock to wire the box and the XDC
/// constraint). Returns nullptr when no candidate exists.
[[nodiscard]] const Port* find_clock_port(const Module& module);

}  // namespace dovado::hdl
