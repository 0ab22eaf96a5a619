#include "src/hdl/lexer.hpp"

#include <algorithm>

#include "src/util/strings.hpp"

namespace dovado::hdl {

namespace {

// ASCII character classes. The program never leaves the "C" locale, where
// these are exactly <cctype>'s answers, without a library call per byte.
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) {
  const char lower = static_cast<char>(c | 0x20);
  return lower >= 'a' && lower <= 'z';
}
constexpr bool is_alnum(char c) { return is_digit(c) || is_alpha(c); }
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

const char* language_name(HdlLanguage lang) {
  switch (lang) {
    case HdlLanguage::kVhdl: return "VHDL";
    case HdlLanguage::kVerilog: return "Verilog";
    case HdlLanguage::kSystemVerilog: return "SystemVerilog";
  }
  return "?";
}

const char* port_dir_name(PortDir dir) {
  switch (dir) {
    case PortDir::kIn: return "in";
    case PortDir::kOut: return "out";
    case PortDir::kInout: return "inout";
  }
  return "?";
}

const Port* Module::find_port(const std::string& port_name) const {
  for (const auto& p : ports) {
    if (language == HdlLanguage::kVhdl ? util::iequals(p.name, port_name)
                                       : p.name == port_name) {
      return &p;
    }
  }
  return nullptr;
}

const Module* DesignFile::find_module(const std::string& module_name) const {
  for (const auto& m : modules) {
    if (m.language == HdlLanguage::kVhdl ? util::iequals(m.name, module_name)
                                         : m.name == module_name) {
      return &m;
    }
  }
  return nullptr;
}

const Port* find_clock_port(const Module& module) {
  const Port* best = nullptr;
  for (const auto& p : module.ports) {
    if (p.dir != PortDir::kIn || p.is_vector) continue;
    const std::string lower = util::to_lower(p.name);
    const bool is_clockish =
        util::contains(lower, "clk") || util::contains(lower, "clock");
    if (!is_clockish) continue;
    // Prefer exact "clk"/"clock"/"clk_i"/"i_clk" over substring matches such
    // as "clk_en".
    const bool exact = lower == "clk" || lower == "clock" || lower == "clk_i" ||
                       lower == "i_clk" || lower == "aclk";
    if (exact) return &p;
    if (best == nullptr) best = &p;
  }
  return best;
}

Lexer::Lexer(std::string_view text, HdlLanguage language)
    : text_(text), language_(language) {}

char Lexer::advance() {
  const char c = text_[pos_++];
  if (c == '\n') {
    ++line_;
    col_ = 1;
  } else {
    ++col_;
  }
  return c;
}

void Lexer::skip_to_line_end() {
  // The rest of a line holds no newline: move the column in one step.
  const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
  col_ += static_cast<std::uint32_t>(end - pos_);
  pos_ = end;
}

void Lexer::skip_trivia(std::vector<Diagnostic>& diags) {
  while (pos_ < text_.size()) {
    const char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v') {
      advance();
      continue;
    }
    if (language_ == HdlLanguage::kVhdl) {
      if (c == '-' && peek(1) == '-') {
        skip_to_line_end();
        continue;
      }
      // VHDL-2008 delimited comments.
      if (c == '/' && peek(1) == '*') {
        const SourceLoc start = here();
        advance();
        advance();
        while (pos_ < text_.size() && !(peek() == '*' && peek(1) == '/')) advance();
        if (pos_ >= text_.size()) {
          diags.push_back({start, "unterminated block comment"});
          return;
        }
        advance();
        advance();
        continue;
      }
    } else {
      if (c == '/' && peek(1) == '/') {
        skip_to_line_end();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        const SourceLoc start = here();
        advance();
        advance();
        while (pos_ < text_.size() && !(peek() == '*' && peek(1) == '/')) advance();
        if (pos_ >= text_.size()) {
          diags.push_back({start, "unterminated block comment"});
          return;
        }
        advance();
        advance();
        continue;
      }
      // Verilog attributes (* keep = "true" *) are trivia for our purposes.
      if (c == '(' && peek(1) == '*') {
        const SourceLoc start = here();
        advance();
        advance();
        while (pos_ < text_.size() && !(peek() == '*' && peek(1) == ')')) advance();
        if (pos_ >= text_.size()) {
          diags.push_back({start, "unterminated attribute"});
          return;
        }
        advance();
        advance();
        continue;
      }
      // Compiler directives (`timescale, `include, `define ...): skip the
      // whole line; macro expansion is out of scope for interface parsing.
      if (c == '`') {
        skip_to_line_end();
        continue;
      }
    }
    return;
  }
}

Token Lexer::lex_identifier() {
  const SourceLoc loc = here();
  std::string text;
  if (peek() == '\\') {
    // Escaped identifier: Verilog ends at whitespace, VHDL at closing '\'.
    advance();
    if (language_ == HdlLanguage::kVhdl) {
      while (pos_ < text_.size() && peek() != '\\') text.push_back(advance());
      if (pos_ < text_.size()) advance();
    } else {
      while (pos_ < text_.size() && !is_space(peek())) {
        text.push_back(advance());
      }
    }
    return {TokenKind::kIdentifier, std::move(text), loc};
  }
  // Plain identifiers never span lines: take the run in one piece.
  const std::size_t start = pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (!is_alnum(c) && c != '_' && c != '$') break;
    ++pos_;
  }
  col_ += static_cast<std::uint32_t>(pos_ - start);
  return {TokenKind::kIdentifier, std::string(text_.substr(start, pos_ - start)), loc};
}

Token Lexer::lex_number() {
  const SourceLoc loc = here();
  std::string text;
  auto take_while = [&](auto pred) {
    while (pos_ < text_.size() && pred(peek())) text.push_back(advance());
  };
  auto is_digitish = [](char c) {
    return is_alnum(c) || c == '_';
  };

  take_while([](char c) { return is_digit(c) || c == '_'; });

  if (language_ == HdlLanguage::kVhdl) {
    if (peek() == '#') {
      // Based literal: base#value# (e.g. 16#FF#).
      text.push_back(advance());
      take_while(is_digitish);
      if (peek() == '#') text.push_back(advance());
    } else if (peek() == '.') {
      text.push_back(advance());
      take_while([](char c) { return is_digit(c) || c == '_'; });
    }
    if (peek() == 'e' || peek() == 'E') {
      text.push_back(advance());
      if (peek() == '+' || peek() == '-') text.push_back(advance());
      take_while([](char c) { return is_digit(c); });
    }
  } else {
    if (peek() == '\'') {
      // Sized literal: 8'hFF, 4'b1010, 'd42, also 1'sb0.
      text.push_back(advance());
      if (peek() == 's' || peek() == 'S') text.push_back(advance());
      if (is_alpha(peek())) text.push_back(advance());
      take_while(is_digitish);
    } else if (peek() == '.') {
      text.push_back(advance());
      take_while([](char c) { return is_digit(c) || c == '_'; });
    }
  }
  return {TokenKind::kNumber, std::move(text), loc};
}

Token Lexer::lex_string(std::vector<Diagnostic>& diags) {
  const SourceLoc loc = here();
  advance();  // opening quote
  std::string text;
  while (pos_ < text_.size()) {
    const char c = advance();
    if (c == '"') {
      // VHDL escapes a quote by doubling it.
      if (language_ == HdlLanguage::kVhdl && peek() == '"') {
        text.push_back('"');
        advance();
        continue;
      }
      return {TokenKind::kString, std::move(text), loc};
    }
    if (c == '\\' && language_ != HdlLanguage::kVhdl && pos_ < text_.size()) {
      text.push_back(advance());
      continue;
    }
    if (c == '\n') break;
    text.push_back(c);
  }
  diags.push_back({loc, "unterminated string literal"});
  return {TokenKind::kString, std::move(text), loc};
}

Token Lexer::lex_punct() {
  const SourceLoc loc = here();
  // Longest match against the multi-character operators, picked by the
  // first byte. Where two start alike the earlier listed wins, as it always
  // has: "==" before "===", so "===" lexes as "==" then "=".
  const char first = peek();
  const char second = peek(1);
  std::size_t length = 1;
  switch (first) {
    case '<':
      if (second == '=' || second == '<' || second == '>') length = 2;
      break;
    case '>':
      if (second == '=' || second == '>') length = 2;
      break;
    case '=':
      if (second == '>' || second == '=') length = 2;
      break;
    case ':':
      if (second == '=' || second == ':') length = 2;
      break;
    case '*':
      if (second == '*') length = 2;
      break;
    case '!':
    case '/':
      if (second == '=') length = 2;
      break;
    case '&':
      if (second == '&') length = 2;
      break;
    case '|':
      if (second == '|') {
        length = 2;
      } else if ((second == '=' || second == '-') && peek(2) == '>') {
        length = 3;  // "|=>", "|->"
      }
      break;
    case '-':
      if (second == '>' || second == ':') length = 2;
      break;
    case '+':
      if (second == ':') length = 2;
      break;
    case '\'':
      if (second == '{') length = 2;
      break;
    case '#':
      if (second == '#') length = 2;
      break;
    default:
      break;
  }
  std::string text(text_.substr(pos_, length));
  for (std::size_t i = 0; i < length; ++i) advance();
  return {TokenKind::kPunct, std::move(text), loc};
}

std::vector<Token> Lexer::tokenize(std::vector<Diagnostic>& diags) {
  std::vector<Token> out;
  out.reserve(text_.size() / 4 + 1);  // about one token per 4-6 bytes of HDL
  while (true) {
    skip_trivia(diags);
    if (pos_ >= text_.size()) break;
    const char c = peek();
    if (is_alpha(c) || c == '_' || c == '\\' ||
        (c == '$' && language_ != HdlLanguage::kVhdl)) {
      // '$' starts Verilog system identifiers such as $clog2.
      out.push_back(lex_identifier());
    } else if (is_digit(c)) {
      out.push_back(lex_number());
    } else if (c == '\'' && language_ != HdlLanguage::kVhdl &&
               (is_alpha(peek(1)) ||
                is_digit(peek(1)))) {
      // Unsized based literal such as 'd42 or 'b0.
      out.push_back(lex_number());
    } else if (c == '\'' && language_ == HdlLanguage::kVhdl && peek(2) == '\'') {
      // VHDL character literal '0'.
      const SourceLoc loc = here();
      advance();
      std::string text(1, advance());
      advance();
      out.push_back({TokenKind::kChar, std::move(text), loc});
    } else if (c == '"') {
      out.push_back(lex_string(diags));
    } else {
      out.push_back(lex_punct());
    }
  }
  out.push_back({TokenKind::kEof, "", here()});
  return out;
}

LexedSource lex_source(std::string_view text, HdlLanguage language) {
  LexedSource lexed;
  lexed.tokens = Lexer(text, language).tokenize(lexed.diagnostics);
  return lexed;
}

}  // namespace dovado::hdl
