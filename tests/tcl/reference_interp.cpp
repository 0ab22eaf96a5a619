#include "tests/tcl/reference_interp.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "src/util/strings.hpp"

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

bool Interp::has_command(const std::string& name) const {
  return commands_.count(name) != 0;
}

void Interp::set_var(const std::string& name, const std::string& value) {
  vars_[name] = value;
}

void Interp::unset_var(const std::string& name) { vars_.erase(name); }

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
      // ReturnSignal deliberately propagates through nested scripts (if
      // bodies, loop bodies) so `return` unwinds to the proc boundary or
      // the top-level eval, per TCL semantics.
      last_result = run_command(words);
    }
  }
  return last_result;
}

std::string Interp::substitute(std::string_view text) {
  Cursor c{text, 0};
  std::string out;
  while (!c.done()) {
    const char ch = c.peek();
    if (ch == '$') {
      c.next();
      if (c.peek() == '{') {
        c.next();
        std::string name;
        while (!c.done() && c.peek() != '}') name.push_back(c.next());
        if (c.done()) fail("missing close-brace for variable name");
        c.next();
        out += get_var(name);
        continue;
      }
      std::string name;
      while (!c.done() && (std::isalnum(static_cast<unsigned char>(c.peek())) ||
                           c.peek() == '_' || c.peek() == ':')) {
        name.push_back(c.next());
      }
      if (name.empty()) {
        out.push_back('$');
      } else {
        out += get_var(name);
      }
      continue;
    }
    if (ch == '[') {
      c.next();
      std::string inner;
      int depth = 1;
      while (!c.done()) {
        const char k = c.next();
        if (k == '[') ++depth;
        if (k == ']' && --depth == 0) break;
        inner.push_back(k);
      }
      if (depth != 0) fail("missing close-bracket");
      out += eval_or_throw(inner);
      continue;
    }
    out.push_back(c.next());
  }
  return out;
}

EvalResult Interp::eval(std::string_view script) {
  EvalResult result;
  try {
    result.value = eval_or_throw(script);
    result.ok = true;
  } catch (const ReturnSignal& r) {
    result.value = r.value;
    result.ok = true;
  } catch (const TclError& e) {
    result.error = e.message;
  }
  return result;
}

// ---------------------------------------------------------------------------
// expr evaluation
// ---------------------------------------------------------------------------

namespace {

/// Recursive-descent evaluator for TCL expr strings (numbers already
/// variable-substituted by the word parser). Supports + - * / % ** == !=
/// < <= > >= && || ! ( ) and the ternary operator.
class ExprParser {
 public:
  explicit ExprParser(std::string_view text) : text_(text) {}

  double parse() {
    const double v = ternary();
    skip_ws();
    if (pos_ != text_.size()) Interp::fail("syntax error in expression");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  bool accept(std::string_view op) {
    skip_ws();
    if (text_.substr(pos_, op.size()) == op) {
      // Don't let '<' match '<=' etc.
      if ((op == "<" || op == ">") && pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
        return false;
      }
      if (op == "*" && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') return false;
      if ((op == "&" || op == "|") && text_.substr(pos_, 2) != std::string(2, op[0])) {
        // we only support && and ||
      }
      pos_ += op.size();
      return true;
    }
    return false;
  }

  double ternary() {
    double cond = logical_or();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '?') {
      ++pos_;
      const double a = ternary();
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') Interp::fail("expected ':' in ?:");
      ++pos_;
      const double b = ternary();
      return cond != 0.0 ? a : b;
    }
    return cond;
  }

  double logical_or() {
    double v = logical_and();
    while (accept("||")) {
      // Evaluate the right operand unconditionally: C++'s short-circuiting
      // would otherwise leave it unconsumed in the input.
      const double rhs = logical_and();
      v = (v != 0.0 || rhs != 0.0) ? 1.0 : 0.0;
    }
    return v;
  }
  double logical_and() {
    double v = comparison();
    while (accept("&&")) {
      const double rhs = comparison();
      v = (v != 0.0 && rhs != 0.0) ? 1.0 : 0.0;
    }
    return v;
  }
  double comparison() {
    double v = additive();
    while (true) {
      if (accept("==")) v = (v == additive()) ? 1.0 : 0.0;
      else if (accept("!=")) v = (v != additive()) ? 1.0 : 0.0;
      else if (accept("<=")) v = (v <= additive()) ? 1.0 : 0.0;
      else if (accept(">=")) v = (v >= additive()) ? 1.0 : 0.0;
      else if (accept("<")) v = (v < additive()) ? 1.0 : 0.0;
      else if (accept(">")) v = (v > additive()) ? 1.0 : 0.0;
      else return v;
    }
  }
  double additive() {
    double v = multiplicative();
    while (true) {
      if (accept("+")) v += multiplicative();
      else if (accept("-")) v -= multiplicative();
      else return v;
    }
  }
  double multiplicative() {
    double v = power();
    while (true) {
      if (accept("**")) {
        // handled in power(); '**' binds tighter — shouldn't reach here
        Interp::fail("internal expr error");
      } else if (accept("*")) {
        v *= power();
      } else if (accept("/")) {
        const double d = power();
        if (d == 0.0) Interp::fail("divide by zero");
        v /= d;
      } else if (accept("%")) {
        const double d = power();
        if (d == 0.0) Interp::fail("divide by zero");
        v = static_cast<double>(static_cast<long long>(v) % static_cast<long long>(d));
      } else {
        return v;
      }
    }
  }
  double power() {
    const double base = unary();
    skip_ws();
    if (text_.substr(pos_, 2) == "**") {
      pos_ += 2;
      return std::pow(base, power());  // right-associative
    }
    return base;
  }
  double unary() {
    skip_ws();
    if (pos_ < text_.size()) {
      if (text_[pos_] == '-') {
        ++pos_;
        return -unary();
      }
      if (text_[pos_] == '+') {
        ++pos_;
        return unary();
      }
      if (text_[pos_] == '!') {
        ++pos_;
        return unary() == 0.0 ? 1.0 : 0.0;
      }
    }
    return primary();
  }
  double primary() {
    skip_ws();
    if (pos_ >= text_.size()) Interp::fail("unexpected end of expression");
    if (text_[pos_] == '(') {
      ++pos_;
      const double v = ternary();
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ')') Interp::fail("missing ')'");
      ++pos_;
      return v;
    }
    // Function call: name(arg {, arg})
    if (std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
        ++pos_;
      }
      const std::string name(text_.substr(start, pos_ - start));
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '(') {
        Interp::fail("unknown operand \"" + name + "\" in expression");
      }
      ++pos_;
      std::vector<double> args;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] != ')') {
        args.push_back(ternary());
        skip_ws();
        while (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          args.push_back(ternary());
          skip_ws();
        }
      }
      if (pos_ >= text_.size() || text_[pos_] != ')') Interp::fail("missing ')' in call");
      ++pos_;
      return call(name, args);
    }
    // Number.
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    double v = 0.0;
    if (pos_ == start || !util::parse_double(text_.substr(start, pos_ - start), v)) {
      Interp::fail("expected number in expression");
    }
    return v;
  }

  static double call(const std::string& name, const std::vector<double>& args) {
    auto need = [&](std::size_t n) {
      if (args.size() != n) Interp::fail("wrong # args to " + name + "()");
    };
    if (name == "abs") { need(1); return std::fabs(args[0]); }
    if (name == "sqrt") { need(1); return std::sqrt(args[0]); }
    if (name == "pow") { need(2); return std::pow(args[0], args[1]); }
    if (name == "floor") { need(1); return std::floor(args[0]); }
    if (name == "ceil") { need(1); return std::ceil(args[0]); }
    if (name == "round") { need(1); return std::round(args[0]); }
    if (name == "min") { need(2); return std::min(args[0], args[1]); }
    if (name == "max") { need(2); return std::max(args[0], args[1]); }
    if (name == "log2") { need(1); return std::log2(args[0]); }
    if (name == "exp") { need(1); return std::exp(args[0]); }
    if (name == "int") { need(1); return std::trunc(args[0]); }
    Interp::fail("unknown function \"" + name + "\"");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// TCL-style number formatting: integers print without a decimal point.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// Split a TCL list into elements, honouring {braced} and "quoted" groups.
std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> items;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i >= text.size()) break;
    std::string item;
    if (text[i] == '{') {
      int depth = 1;
      ++i;
      while (i < text.size() && depth > 0) {
        if (text[i] == '{') ++depth;
        if (text[i] == '}' && --depth == 0) break;
        item.push_back(text[i++]);
      }
      if (i < text.size()) ++i;  // closing brace
    } else if (text[i] == '"') {
      ++i;
      while (i < text.size() && text[i] != '"') item.push_back(text[i++]);
      if (i < text.size()) ++i;
    } else {
      while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) {
        item.push_back(text[i++]);
      }
    }
    items.push_back(std::move(item));
  }
  return items;
}

/// TCL `string match` globbing: '*' any run, '?' any char.
bool glob_match(std::string_view pattern, std::string_view text) {
  if (pattern.empty()) return text.empty();
  if (pattern[0] == '*') {
    for (std::size_t skip = 0; skip <= text.size(); ++skip) {
      if (glob_match(pattern.substr(1), text.substr(skip))) return true;
    }
    return false;
  }
  if (text.empty()) return false;
  if (pattern[0] == '?' || pattern[0] == text[0]) {
    return glob_match(pattern.substr(1), text.substr(1));
  }
  return false;
}

bool truthy(const std::string& s) {
  const std::string t = util::to_lower(util::trim(s));
  if (t == "true" || t == "yes" || t == "on") return true;
  if (t == "false" || t == "no" || t == "off") return false;
  double v = 0.0;
  if (util::parse_double(t, v)) return v != 0.0;
  Interp::fail("expected boolean value but got \"" + s + "\"");
}

}  // namespace

double Interp::eval_number(std::string_view expr) { return ExprParser(expr).parse(); }

void Interp::register_builtins() {
  register_command("set", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    if (a.size() == 2) return in.get_var(a[1]);
    if (a.size() == 3) {
      in.set_var(a[1], a[2]);
      return a[2];
    }
    fail("wrong # args: should be \"set varName ?newValue?\"");
  });

  register_command("unset", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    for (std::size_t i = 1; i < a.size(); ++i) in.unset_var(a[i]);
    return {};
  });

  register_command("puts", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    // Supports `puts msg` and `puts -nonewline msg`; channel words ignored.
    if (a.size() < 2) fail("wrong # args: should be \"puts ?-nonewline? string\"");
    in.emit(a.back());
    return {};
  });

  register_command("expr", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    std::string text;
    for (std::size_t i = 1; i < a.size(); ++i) {
      if (i > 1) text += ' ';
      text += a[i];
    }
    // expr performs its own substitution round over braced arguments.
    return format_number(eval_number(in.substitute(text)));
  });

  register_command("incr", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    if (a.size() < 2 || a.size() > 3) fail("wrong # args: should be \"incr varName ?incr?\"");
    long long delta = 1;
    if (a.size() == 3 && !util::parse_int(a[2], delta)) fail("expected integer increment");
    long long value = 0;
    if (!util::parse_int(in.get_var(a[1]), value)) fail("variable is not an integer");
    const std::string result = std::to_string(value + delta);
    in.set_var(a[1], result);
    return result;
  });

  register_command("if", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    // if cond body ?elseif cond body ...? ?else body?
    std::size_t i = 1;
    while (true) {
      if (i + 1 >= a.size()) fail("wrong # args: no expression/body after \"if\"");
      const bool taken = truthy(format_number(eval_number(in.substitute(a[i]))));
      std::size_t body = i + 1;
      if (a[body] == "then") ++body;
      if (body >= a.size()) fail("wrong # args: missing body");
      if (taken) return in.eval_or_throw(a[body]);
      std::size_t next = body + 1;
      if (next >= a.size()) return {};
      if (a[next] == "elseif") {
        i = next + 1;
        continue;
      }
      if (a[next] == "else") {
        if (next + 1 >= a.size()) fail("wrong # args: missing else body");
        return in.eval_or_throw(a[next + 1]);
      }
      fail("invalid word \"" + a[next] + "\" after if body");
    }
  });

  register_command("while", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    if (a.size() != 3) fail("wrong # args: should be \"while test command\"");
    int guard = 0;
    while (eval_number(in.substitute(a[1])) != 0.0) {
      in.eval_or_throw(a[2]);
      if (++guard > 1000000) fail("while loop exceeded iteration limit");
    }
    return {};
  });

  register_command("return", [](Interp&, const std::vector<std::string>& a) -> std::string {
    throw ReturnSignal{a.size() > 1 ? a[1] : std::string()};
  });

  register_command("error", [](Interp&, const std::vector<std::string>& a) -> std::string {
    fail(a.size() > 1 ? a[1] : "error");
  });

  register_command("catch", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    if (a.size() < 2) fail("wrong # args: should be \"catch script ?resultVar?\"");
    try {
      const std::string value = in.eval_or_throw(a[1]);
      if (a.size() >= 3) in.set_var(a[2], value);
      return "0";
    } catch (const TclError& e) {
      if (a.size() >= 3) in.set_var(a[2], e.message);
      return "1";
    }
  });

  register_command("list", [](Interp&, const std::vector<std::string>& a) -> std::string {
    std::string out;
    for (std::size_t i = 1; i < a.size(); ++i) {
      if (i > 1) out += ' ';
      const bool needs_braces = a[i].empty() || a[i].find(' ') != std::string::npos;
      out += needs_braces ? "{" + a[i] + "}" : a[i];
    }
    return out;
  });

  register_command("append", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    if (a.size() < 2) fail("wrong # args: should be \"append varName ?value ...?\"");
    std::string value = in.has_var(a[1]) ? in.get_var(a[1]) : std::string();
    for (std::size_t i = 2; i < a.size(); ++i) value += a[i];
    in.set_var(a[1], value);
    return value;
  });

  register_command("foreach", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    if (a.size() != 4) fail("wrong # args: should be \"foreach varName list body\"");
    for (const auto& item : split_list(a[2])) {
      in.set_var(a[1], item);
      in.eval_or_throw(a[3]);
    }
    return {};
  });

  register_command("for", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    if (a.size() != 5) fail("wrong # args: should be \"for start test next body\"");
    in.eval_or_throw(a[1]);
    int guard = 0;
    while (eval_number(in.substitute(a[2])) != 0.0) {
      in.eval_or_throw(a[4]);
      in.eval_or_throw(a[3]);
      if (++guard > 1000000) fail("for loop exceeded iteration limit");
    }
    return {};
  });

  register_command("proc", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    if (a.size() != 4) fail("wrong # args: should be \"proc name args body\"");
    const std::vector<std::string> formals = split_list(a[2]);
    const std::string body = a[3];
    in.register_command(a[1], [formals, body](Interp& inner,
                                              const std::vector<std::string>& call) {
      if (call.size() != formals.size() + 1) {
        fail("wrong # args to \"" + call[0] + "\"");
      }
      // Flat scoping: formals are bound as ordinary variables (sufficient
      // for the batch scripts Dovado generates; no upvar/global needed).
      for (std::size_t i = 0; i < formals.size(); ++i) {
        inner.set_var(formals[i], call[i + 1]);
      }
      try {
        return inner.eval_or_throw(body);
      } catch (const ReturnSignal& r) {
        // `return` unwinds exactly to the proc boundary.
        return r.value;
      }
    });
    return {};
  });

  register_command("llength", [](Interp&, const std::vector<std::string>& a) -> std::string {
    if (a.size() != 2) fail("wrong # args: should be \"llength list\"");
    return std::to_string(split_list(a[1]).size());
  });

  register_command("lindex", [](Interp&, const std::vector<std::string>& a) -> std::string {
    if (a.size() != 3) fail("wrong # args: should be \"lindex list index\"");
    const auto items = split_list(a[1]);
    long long index = 0;
    if (a[2] == "end") index = static_cast<long long>(items.size()) - 1;
    else if (!util::parse_int(a[2], index)) fail("bad index \"" + a[2] + "\"");
    if (index < 0 || index >= static_cast<long long>(items.size())) return {};
    return items[static_cast<std::size_t>(index)];
  });

  register_command("lappend", [](Interp& in, const std::vector<std::string>& a) -> std::string {
    if (a.size() < 2) fail("wrong # args: should be \"lappend varName ?value ...?\"");
    std::string value = in.has_var(a[1]) ? in.get_var(a[1]) : std::string();
    for (std::size_t i = 2; i < a.size(); ++i) {
      if (!value.empty()) value += ' ';
      const bool needs_braces = a[i].empty() || a[i].find(' ') != std::string::npos;
      value += needs_braces ? "{" + a[i] + "}" : a[i];
    }
    in.set_var(a[1], value);
    return value;
  });

  register_command("string", [](Interp&, const std::vector<std::string>& a) -> std::string {
    if (a.size() < 3) fail("wrong # args: should be \"string subcommand arg ...\"");
    const std::string& sub = a[1];
    if (sub == "length") return std::to_string(a[2].size());
    if (sub == "tolower") return util::to_lower(a[2]);
    if (sub == "toupper") return util::to_upper(a[2]);
    if (sub == "trim") return std::string(util::trim(a[2]));
    if (sub == "equal" && a.size() == 4) return a[2] == a[3] ? "1" : "0";
    if (sub == "match" && a.size() == 4) {
      return glob_match(a[2], a[3]) ? "1" : "0";
    }
    if (sub == "first" && a.size() == 4) {
      const auto pos = a[3].find(a[2]);
      return std::to_string(pos == std::string::npos ? -1 : static_cast<long long>(pos));
    }
    if (sub == "range" && a.size() == 5) {
      long long lo = 0;
      long long hi = 0;
      if (!util::parse_int(a[3], lo)) fail("bad index");
      if (a[4] == "end") hi = static_cast<long long>(a[2].size()) - 1;
      else if (!util::parse_int(a[4], hi)) fail("bad index");
      lo = std::max<long long>(lo, 0);
      hi = std::min<long long>(hi, static_cast<long long>(a[2].size()) - 1);
      if (lo > hi) return {};
      return a[2].substr(static_cast<std::size_t>(lo), static_cast<std::size_t>(hi - lo + 1));
    }
    fail("unknown or unsupported string subcommand \"" + sub + "\"");
  });

  register_command("format", [](Interp&, const std::vector<std::string>& a) -> std::string {
    if (a.size() < 2) fail("wrong # args: should be \"format formatString ?arg ...?\"");
    // Minimal %s/%d/%f/%g/%x/%% support, positional.
    std::string out;
    std::size_t arg = 2;
    const std::string& fmt = a[1];
    for (std::size_t i = 0; i < fmt.size(); ++i) {
      if (fmt[i] != '%') {
        out.push_back(fmt[i]);
        continue;
      }
      if (i + 1 >= fmt.size()) fail("format string ended mid-specifier");
      const char spec = fmt[++i];
      if (spec == '%') {
        out.push_back('%');
        continue;
      }
      if (arg >= a.size()) fail("not enough arguments for format string");
      const std::string& value = a[arg++];
      switch (spec) {
        case 's': out += value; break;
        case 'd': {
          long long v = 0;
          if (!util::parse_int(value, v)) {
            double d = 0.0;
            if (!util::parse_double(value, d)) fail("expected integer for %d");
            v = static_cast<long long>(d);
          }
          out += std::to_string(v);
          break;
        }
        case 'f':
        case 'g':
        case 'x': {
          double d = 0.0;
          if (!util::parse_double(value, d)) fail("expected number");
          char buf[64];
          if (spec == 'f') std::snprintf(buf, sizeof(buf), "%f", d);
          else if (spec == 'g') std::snprintf(buf, sizeof(buf), "%g", d);
          else std::snprintf(buf, sizeof(buf), "%llx", static_cast<long long>(d));
          out += buf;
          break;
        }
        default: fail(std::string("unsupported format specifier %") + spec);
      }
    }
    return out;
  });
}

}  // namespace dovado::tcl::reference
