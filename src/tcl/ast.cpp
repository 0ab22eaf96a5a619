#include "src/tcl/ast.hpp"

#include <cctype>

namespace dovado::tcl {

namespace {

bool is_word_end(char c) { return c == ' ' || c == '\t' || c == '\r'; }
bool is_command_end(char c) { return c == '\n' || c == ';'; }
bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

class Parser {
 public:
  Parser(std::string_view text, int first_line, int level)
      : text_(text), line_(first_line), level_(level) {}

  ScriptNode script() {
    while (!done() && out_.ok) {
      while (!done() && (is_word_end(peek()) || is_command_end(peek()))) next();
      if (done()) break;
      if (peek() == '#') {  // comment at command position
        while (!done() && peek() != '\n') {
          if (peek() == '\\' && peek(1) == '\n') next();
          next();
        }
        continue;
      }
      CommandNode command;
      command.line = line_;
      while (!done() && out_.ok) {
        while (!done() && is_word_end(peek())) next();
        if (done()) break;
        if (is_command_end(peek())) {
          next();
          break;
        }
        if (peek() == '\\' && peek(1) == '\n') {  // continuation between words
          next();
          next();
          continue;
        }
        command.words.push_back(word());
      }
      if (!command.words.empty() || !out_.ok) out_.commands.push_back(std::move(command));
    }
    return std::move(out_);
  }

 private:
  [[nodiscard]] bool done() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  char next() {
    const char c = text_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }

  void fail(std::string message, int line) {
    out_.ok = false;
    out_.error = std::move(message);
    out_.error_line = line;
  }

  /// Append a literal character, merging it into a trailing text part.
  static void append(WordNode& word, char c) {
    if (word.parts.empty() || word.parts.back().kind != WordPart::Kind::kText) {
      word.parts.push_back({WordPart::Kind::kText, {}, nullptr});
    }
    word.parts.back().text.push_back(c);
  }

  WordNode word() {
    WordNode word;
    word.line = line_;
    if (peek() == '{') {
      word.kind = WordNode::Kind::kBraced;
      braced(word);
    } else if (peek() == '"') {
      word.kind = WordNode::Kind::kQuoted;
      quoted(word);
    } else {
      bare(word);
    }
    return word;
  }

  void braced(WordNode& word) {
    const int open_line = line_;
    next();  // '{'
    std::string value;
    int depth = 1;
    while (!done()) {
      const char ch = next();
      if (ch == '\\' && !done()) {
        if (peek() == '\n') {  // continuation: a space even inside braces
          next();
          value.push_back(' ');
          continue;
        }
        value.push_back(ch);
        value.push_back(next());
        continue;
      }
      if (ch == '{') ++depth;
      if (ch == '}' && --depth == 0) {
        word.parts.push_back({WordPart::Kind::kText, std::move(value), nullptr});
        return;
      }
      value.push_back(ch);
    }
    fail("missing close-brace", open_line);
  }

  void quoted(WordNode& word) {
    const int open_line = line_;
    next();  // '"'
    while (!done() && peek() != '"' && out_.ok) {
      if (peek() == '$') {
        dollar(word);
      } else if (peek() == '[') {
        bracket(word);
      } else if (peek() == '\\') {
        next();
        escape(word);
      } else {
        append(word, next());
      }
    }
    if (!out_.ok) return;
    if (done()) {
      fail("missing close-quote", open_line);
      return;
    }
    next();
  }

  void bare(WordNode& word) {
    while (!done() && !is_word_end(peek()) && !is_command_end(peek()) && out_.ok) {
      if (peek() == '$') {
        dollar(word);
      } else if (peek() == '[') {
        bracket(word);
      } else if (peek() == '\\') {
        next();
        if (peek() == '\n') {  // continuation ends the word
          next();
          return;
        }
        escape(word);
      } else {
        append(word, next());
      }
    }
  }

  /// Decode the escape after a backslash (already consumed).
  void escape(WordNode& word) {
    const char ch = done() ? '\0' : next();
    switch (ch) {
      case 'n': append(word, '\n'); return;
      case 't': append(word, '\t'); return;
      case 'r': append(word, '\r'); return;
      case '\n':  // continuation: one space for the newline and what indents it
        while (!done() && (peek() == ' ' || peek() == '\t')) next();
        append(word, ' ');
        return;
      case '\0': append(word, '\\'); return;
      default: append(word, ch); return;
    }
  }

  void dollar(WordNode& word) {
    const int dollar_line = line_;
    next();  // '$'
    std::string name;
    if (peek() == '{') {
      next();
      while (!done() && peek() != '}') name.push_back(next());
      if (done()) {
        fail("missing close-brace for variable name", dollar_line);
        return;
      }
      next();
    } else {
      while (!done() && is_name_char(peek())) name.push_back(next());
      if (name.empty()) {
        append(word, '$');
        return;
      }
    }
    word.parts.push_back({WordPart::Kind::kVar, std::move(name), nullptr});
  }

  /// `[...]`: find the balancing `]` (a backslash escapes the next
  /// character), then parse the contents as a nested script.
  void bracket(WordNode& word) {
    const int open_line = line_;
    next();  // '['
    const std::size_t start = pos_;
    int depth = 1;
    while (!done()) {
      const char ch = next();
      if (ch == '\\' && !done()) {
        next();
        continue;
      }
      if (ch == '[') ++depth;
      if (ch == ']' && --depth == 0) break;
    }
    if (depth != 0) {
      fail("missing close-bracket", open_line);
      return;
    }
    if (level_ + 1 > kMaxDepth) {
      fail("too many nested evaluations", open_line);
      return;
    }
    auto nested = std::make_shared<ScriptNode>(
        Parser(text_.substr(start, pos_ - 1 - start), open_line, level_ + 1).script());
    word.parts.push_back({WordPart::Kind::kScript, {}, std::move(nested)});
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_;
  int level_;  ///< nesting level of the script being parsed (root = 1)
  ScriptNode out_;
};

}  // namespace

ScriptNode parse_script(std::string_view text) {
  return Parser(text, /*first_line=*/1, /*level=*/1).script();
}

}  // namespace dovado::tcl
