// Shared tokenizer for the VHDL and (System)Verilog declaration parsers and
// for the constant-expression evaluator.
//
// Language differences handled here: comment syntax (VHDL "--" vs V/SV
// "//" and "/* */"), based literals (VHDL 16#ff#, Verilog 8'hff), character
// literals ('0' is a value in VHDL), and escaped identifiers (\foo in
// Verilog, \foo\ in VHDL).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/hdl/ast.hpp"

namespace dovado::hdl {

/// Tokenize a full source text. Comments and whitespace are skipped; an
/// explicit kEof token terminates the stream. Unterminated strings/comments
/// produce a diagnostic and lexing continues at the next line.
class Lexer {
 public:
  Lexer(std::string_view text, HdlLanguage language);

  /// Run the lexer; diagnostics are appended to `diags`.
  [[nodiscard]] std::vector<Token> tokenize(std::vector<Diagnostic>& diags);

 private:
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  char advance();
  void skip_to_line_end();
  void skip_trivia(std::vector<Diagnostic>& diags);
  Token lex_identifier();
  Token lex_number();
  Token lex_string(std::vector<Diagnostic>& diags);
  Token lex_punct();
  [[nodiscard]] SourceLoc here() const { return {line_, col_}; }

  std::string_view text_;
  HdlLanguage language_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t col_ = 1;
};

/// A source text lexed once: every pass over it (parse, instantiation
/// lookup, structure scan) reads these tokens instead of lexing again.
struct LexedSource {
  std::vector<Token> tokens;  ///< ends with kEof
  std::vector<Diagnostic> diagnostics;
};

/// Lex a whole source text.
[[nodiscard]] LexedSource lex_source(std::string_view text, HdlLanguage language);

/// A token cursor with the lookahead helpers both parsers share. It views
/// tokens kept elsewhere (a lexed source, a compiled expression), which
/// must end with kEof and outlive the cursor.
class TokenStream {
 public:
  explicit TokenStream(std::span<const Token> tokens) : tokens_(tokens) {}
  TokenStream(std::vector<Token>&&) = delete;  // would view a dead temporary

  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& next() {
    const Token& t = peek();
    if (pos_ < tokens_.size() - 1) ++pos_;
    return t;
  }
  [[nodiscard]] bool at_eof() const { return peek().kind == TokenKind::kEof; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  void rewind(std::size_t pos) { pos_ = pos; }

  /// Consume a punct token if it matches; returns whether it did.
  bool accept_punct(std::string_view p) {
    if (peek().is_punct(p)) {
      next();
      return true;
    }
    return false;
  }
  /// Consume a keyword (case-insensitive identifier) if it matches.
  bool accept_keyword(std::string_view kw) {
    if (peek().is_keyword(kw)) {
      next();
      return true;
    }
    return false;
  }

 private:
  std::span<const Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace dovado::hdl
