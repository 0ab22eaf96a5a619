#include "tests/tcl/reference_interp.hpp"

#include <cctype>

namespace dovado::tcl::reference {

namespace {

constexpr int kMaxDepth = 64;

bool is_word_end(char c) { return c == ' ' || c == '\t' || c == '\r'; }
bool is_command_end(char c) { return c == '\n' || c == ';'; }

/// Cursor over script text shared by the script and word parsers.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  [[nodiscard]] bool done() const { return pos >= text.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return pos + ahead < text.size() ? text[pos + ahead] : '\0';
  }
  char next() { return text[pos++]; }
};

/// Parse {braced} content with nesting; no substitution happens inside.
std::string parse_braced(Cursor& c) {
  c.next();  // '{'
  std::string out;
  int depth = 1;
  while (!c.done()) {
    const char ch = c.next();
    if (ch == '\\' && !c.done()) {
      // Backslash-newline is a continuation even inside braces; other
      // backslashes are literal (including the following char).
      if (c.peek() == '\n') {
        c.next();
        out.push_back(' ');
        continue;
      }
      out.push_back(ch);
      out.push_back(c.next());
      continue;
    }
    if (ch == '{') ++depth;
    if (ch == '}') {
      if (--depth == 0) return out;
    }
    out.push_back(ch);
  }
  Interp::fail("missing close-brace");
}

std::string backslash_escape(Cursor& c) {
  // Called with cursor after the backslash.
  const char ch = c.done() ? '\0' : c.next();
  switch (ch) {
    case 'n': return "\n";
    case 't': return "\t";
    case 'r': return "\r";
    case '\n': {
      // Continuation: swallow following whitespace, acts as a space.
      while (!c.done() && (c.peek() == ' ' || c.peek() == '\t')) c.next();
      return " ";
    }
    case '\0': return "\\";
    default: return std::string(1, ch);
  }
}

}  // namespace

Interp::Interp() { register_builtins(); }

void Interp::register_command(const std::string& name, Command fn) {
  commands_[name] = std::move(fn);
}

void Interp::set_var(const std::string& name, const std::string& value) {
  vars_[name] = value;
}

std::string Interp::get_var(const std::string& name) const {
  auto it = vars_.find(name);
  if (it == vars_.end()) fail("can't read \"" + name + "\": no such variable");
  return it->second;
}

bool Interp::has_var(const std::string& name) const { return vars_.count(name) != 0; }

std::string Interp::run_command(const std::vector<std::string>& words) {
  if (words.empty()) return {};
  auto it = commands_.find(words[0]);
  if (it == commands_.end()) fail("invalid command name \"" + words[0] + "\"");
  return it->second(*this, words);
}

std::string Interp::eval_or_throw(std::string_view script) {
  if (++depth_ > kMaxDepth) {
    --depth_;
    fail("too many nested evaluations");
  }
  struct DepthGuard {
    int& d;
    ~DepthGuard() { --d; }
  } guard{depth_};

  Cursor c{script, 0};
  std::string last_result;

  // Substitute $var / ${var} at the cursor; returns the substituted text.
  auto substitute_dollar = [&](Cursor& cur) -> std::string {
    cur.next();  // '$'
    if (cur.peek() == '{') {
      cur.next();
      std::string name;
      while (!cur.done() && cur.peek() != '}') name.push_back(cur.next());
      if (cur.done()) fail("missing close-brace for variable name");
      cur.next();
      return get_var(name);
    }
    std::string name;
    while (!cur.done() &&
           (std::isalnum(static_cast<unsigned char>(cur.peek())) || cur.peek() == '_' ||
            cur.peek() == ':')) {
      name.push_back(cur.next());
    }
    if (name.empty()) return "$";
    return get_var(name);
  };

  // Parse a [command] substitution: find the matching close bracket with
  // nesting, evaluate the inner script.
  auto substitute_bracket = [&](Cursor& cur) -> std::string {
    cur.next();  // '['
    std::string inner;
    int depth = 1;
    while (!cur.done()) {
      const char ch = cur.next();
      if (ch == '\\' && !cur.done()) {
        inner.push_back(ch);
        inner.push_back(cur.next());
        continue;
      }
      if (ch == '[') ++depth;
      if (ch == ']') {
        if (--depth == 0) return eval_or_throw(inner);
      }
      if (depth > 0) inner.push_back(ch);
    }
    fail("missing close-bracket");
  };

  while (!c.done()) {
    // Skip leading whitespace / command separators.
    while (!c.done() && (is_word_end(c.peek()) || is_command_end(c.peek()))) c.next();
    if (c.done()) break;
    // Comment: '#' at command position.
    if (c.peek() == '#') {
      while (!c.done() && c.peek() != '\n') {
        // Backslash-newline continues the comment.
        if (c.peek() == '\\' && c.peek(1) == '\n') c.next();
        c.next();
      }
      continue;
    }

    std::vector<std::string> words;
    bool command_done = false;
    while (!c.done() && !command_done) {
      while (!c.done() && is_word_end(c.peek())) c.next();
      if (c.done()) break;
      if (is_command_end(c.peek())) {
        c.next();
        break;
      }
      if (c.peek() == '\\' && c.peek(1) == '\n') {
        c.next();
        c.next();
        continue;  // line continuation between words
      }

      std::string word;
      if (c.peek() == '{') {
        word = parse_braced(c);
      } else if (c.peek() == '"') {
        c.next();
        while (!c.done() && c.peek() != '"') {
          if (c.peek() == '$') {
            word += substitute_dollar(c);
          } else if (c.peek() == '[') {
            word += substitute_bracket(c);
          } else if (c.peek() == '\\') {
            c.next();
            word += backslash_escape(c);
          } else {
            word.push_back(c.next());
          }
        }
        if (c.done()) fail("missing close-quote");
        c.next();
      } else {
        while (!c.done() && !is_word_end(c.peek()) && !is_command_end(c.peek())) {
          if (c.peek() == '$') {
            word += substitute_dollar(c);
          } else if (c.peek() == '[') {
            word += substitute_bracket(c);
          } else if (c.peek() == '\\') {
            c.next();
            if (c.peek() == '\n') {
              // continuation terminates the word
              c.next();
              break;
            }
            word += backslash_escape(c);
          } else {
            word.push_back(c.next());
          }
        }
      }
      words.push_back(std::move(word));
    }

    if (!words.empty()) {
      last_result = run_command(words);
    }
  }
  return last_result;
}

EvalResult Interp::eval(std::string_view script) {
  EvalResult result;
  try {
    result.value = eval_or_throw(script);
    result.ok = true;
  } catch (const TclError& e) {
    result.error = e.message;
  }
  return result;
}

void Interp::register_builtins() {
  register_command("set", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    if (a.size() == 2) return in.get_var(a[1]);
    if (a.size() == 3) {
      in.set_var(a[1], a[2]);
      return a[2];
    }
    fail("wrong # args: should be \"set varName ?newValue?\"");
  });
}

}  // namespace dovado::tcl::reference
