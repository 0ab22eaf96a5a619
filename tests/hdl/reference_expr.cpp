#include "tests/hdl/reference_expr.hpp"

#include <cstdlib>
#include <vector>

#include "src/hdl/lexer.hpp"
#include "src/util/strings.hpp"

namespace dovado::hdl::reference {

namespace {

/// Two's-complement arithmetic, as in src/hdl/expr.cpp: the pre-template
/// evaluator overflowed here (undefined behaviour).
std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
}
std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
}
std::int64_t wrap_div(std::int64_t a, std::int64_t b) { return b == -1 ? wrap_sub(0, a) : a / b; }
std::int64_t wrap_rem(std::int64_t a, std::int64_t b) { return b == -1 ? 0 : a % b; }

/// Parse a numeric literal token into an integer value.
std::optional<std::int64_t> literal_value(const std::string& text, HdlLanguage lang) {
  std::string clean;
  clean.reserve(text.size());
  for (char c : text)
    if (c != '_') clean.push_back(c);

  if (lang == HdlLanguage::kVhdl) {
    const auto hash = clean.find('#');
    if (hash != std::string::npos) {
      // base#value#
      long long base = 0;
      if (!util::parse_int(clean.substr(0, hash), base) || base < 2 || base > 16) {
        return std::nullopt;
      }
      const auto end = clean.find('#', hash + 1);
      const std::string digits =
          clean.substr(hash + 1, end == std::string::npos ? std::string::npos : end - hash - 1);
      std::int64_t value = 0;
      for (char c : digits) {
        int d = 0;
        if (c >= '0' && c <= '9') d = c - '0';
        else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
        else return std::nullopt;
        if (d >= base) return std::nullopt;
        value = wrap_add(wrap_mul(value, base), d);
      }
      return value;
    }
  } else {
    const auto tick = clean.find('\'');
    if (tick != std::string::npos) {
      std::size_t i = tick + 1;
      if (i < clean.size() && (clean[i] == 's' || clean[i] == 'S')) ++i;
      if (i >= clean.size()) return std::nullopt;
      const char basec = static_cast<char>(std::tolower(static_cast<unsigned char>(clean[i])));
      int base = 10;
      switch (basec) {
        case 'h': base = 16; break;
        case 'd': base = 10; break;
        case 'o': base = 8; break;
        case 'b': base = 2; break;
        default: return std::nullopt;
      }
      ++i;
      std::int64_t value = 0;
      for (; i < clean.size(); ++i) {
        const char c = clean[i];
        int d = 0;
        if (c >= '0' && c <= '9') d = c - '0';
        else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
        else return std::nullopt;
        if (d >= base) return std::nullopt;
        value = wrap_add(wrap_mul(value, base), d);
      }
      return value;
    }
  }
  // Plain decimal (reject reals).
  if (clean.find('.') != std::string::npos || clean.find('e') != std::string::npos ||
      clean.find('E') != std::string::npos) {
    return std::nullopt;
  }
  long long v = 0;
  if (!util::parse_int(clean, v)) return std::nullopt;
  return v;
}

/// a**b for b >= 0 by squaring, or nullopt once |a**b| would exceed 2^60.
std::optional<std::int64_t> checked_pow(std::int64_t a, std::int64_t b) {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 60;
  const auto magnitude = [](std::int64_t v) {
    return v < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(v)
                 : static_cast<std::uint64_t>(v);
  };
  const auto exceeds = [&](std::int64_t x, std::int64_t y) {
    const std::uint64_t my = magnitude(y);
    return my != 0 && magnitude(x) > kLimit / my;
  };
  std::int64_t result = 1;
  std::int64_t base = a;
  while (true) {
    if ((b & 1) != 0) {
      if (exceeds(result, base)) return std::nullopt;
      result *= base;
    }
    b >>= 1;
    if (b == 0) return result;
    if (exceeds(base, base)) return std::nullopt;
    base *= base;
  }
}

/// Pratt-style evaluator over the token stream.
class Evaluator {
 public:
  Evaluator(TokenStream& ts, HdlLanguage lang, const ExprEnv& env)
      : ts_(ts), lang_(lang), env_(env) {}

  std::optional<std::int64_t> parse(int min_bp) {
    auto lhs = parse_prefix();
    if (!lhs) return std::nullopt;
    while (true) {
      const Token& op = ts_.peek();
      const int bp = infix_binding(op);
      if (bp == 0 || bp < min_bp) break;
      if (op.is_punct("?")) {
        // Ternary: cond ? a : b (right-assoc, lowest precedence).
        ts_.next();
        auto then_v = parse(1);
        if (!then_v || !ts_.accept_punct(":")) return fail("malformed ternary");
        auto else_v = parse(1);
        if (!else_v) return std::nullopt;
        lhs = (*lhs != 0) ? then_v : else_v;
        continue;
      }
      ts_.next();
      // '**' is right-associative; everything else left-associative.
      const bool right_assoc = op.is_punct("**");
      auto rhs = parse(right_assoc ? bp : bp + 1);
      if (!rhs) return std::nullopt;
      lhs = apply(op, *lhs, *rhs);
      if (!lhs) return std::nullopt;
    }
    return lhs;
  }

  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  std::optional<std::int64_t> fail(std::string msg) {
    if (error_.empty()) error_ = std::move(msg);
    return std::nullopt;
  }

  static int infix_binding(const Token& t) {
    if (t.kind == TokenKind::kPunct) {
      const std::string& p = t.text;
      if (p == "?") return 2;
      if (p == "||") return 3;
      if (p == "&&") return 4;
      if (p == "==" || p == "!=" || p == "/=" || p == "=") return 5;
      if (p == "<" || p == ">" || p == "<=" || p == ">=") return 6;
      if (p == "<<" || p == ">>") return 7;
      if (p == "+" || p == "-" || p == "&" || p == "|" || p == "^") return 8;
      if (p == "*" || p == "/" || p == "%") return 9;
      if (p == "**") return 11;
    }
    if (t.kind == TokenKind::kIdentifier) {
      if (t.is_keyword("mod") || t.is_keyword("rem")) return 9;
      if (t.is_keyword("sll") || t.is_keyword("srl")) return 7;
      if (t.is_keyword("and")) return 4;
      if (t.is_keyword("or")) return 3;
    }
    return 0;
  }

  std::optional<std::int64_t> apply(const Token& op, std::int64_t a, std::int64_t b) {
    const std::string p = util::to_lower(op.text);
    if (p == "+") return wrap_add(a, b);
    if (p == "-") return wrap_sub(a, b);
    if (p == "*") return wrap_mul(a, b);
    if (p == "/") {
      if (b == 0) return fail("division by zero");
      return wrap_div(a, b);
    }
    if (p == "%" || p == "mod") {
      if (b == 0) return fail("modulo by zero");
      std::int64_t r = wrap_rem(a, b);
      if (p == "mod" && r != 0 && ((r < 0) != (b < 0))) r += b;
      return r;
    }
    if (p == "rem") {
      if (b == 0) return fail("rem by zero");
      return wrap_rem(a, b);
    }
    if (p == "**") {
      if (b < 0) return fail("negative exponent");
      const auto power = checked_pow(a, b);
      if (!power) return fail("exponent overflow");
      return power;
    }
    if (p == "<<" || p == "sll") return b >= 0 && b < 63 ? a << b : 0;
    if (p == ">>" || p == "srl") return b >= 0 && b < 63 ? a >> b : 0;
    if (p == "==" || p == "=") return a == b ? 1 : 0;
    if (p == "!=" || p == "/=") return a != b ? 1 : 0;
    if (p == "<") return a < b ? 1 : 0;
    if (p == ">") return a > b ? 1 : 0;
    if (p == "<=") return a <= b ? 1 : 0;
    if (p == ">=") return a >= b ? 1 : 0;
    if (p == "&&" || p == "and") return (a != 0 && b != 0) ? 1 : 0;
    if (p == "||" || p == "or") return (a != 0 || b != 0) ? 1 : 0;
    if (p == "&") return a & b;
    if (p == "|") return a | b;
    if (p == "^") return a ^ b;
    return fail("unsupported operator '" + op.text + "'");
  }

  std::optional<std::int64_t> parse_prefix() {
    const Token& t = ts_.peek();
    if (t.is_punct("(")) {
      ts_.next();
      auto inner = parse(1);
      if (!inner || !ts_.accept_punct(")")) return fail("missing ')'");
      return inner;
    }
    if (t.is_punct("-")) {
      ts_.next();
      auto v = parse(10);
      if (!v) return std::nullopt;
      return wrap_sub(0, *v);
    }
    if (t.is_punct("+")) {
      ts_.next();
      return parse(10);
    }
    if (t.is_punct("!") || t.is_keyword("not")) {
      ts_.next();
      auto v = parse(10);
      if (!v) return std::nullopt;
      return *v == 0 ? 1 : 0;
    }
    if (t.kind == TokenKind::kNumber) {
      auto v = literal_value(t.text, lang_);
      ts_.next();
      if (!v) return fail("unsupported literal '" + t.text + "'");
      return v;
    }
    if (t.kind == TokenKind::kChar) {
      ts_.next();
      if (t.text == "0") return 0;
      if (t.text == "1") return 1;
      return fail("non-numeric character literal");
    }
    if (t.kind == TokenKind::kIdentifier) {
      const std::string name = t.text;
      ts_.next();
      if (util::iequals(name, "true")) return 1;
      if (util::iequals(name, "false")) return 0;
      if (ts_.peek().is_punct("(")) {
        return call_function(name);
      }
      auto v = env_.get(name);
      if (!v) return fail("unknown identifier '" + name + "'");
      return v;
    }
    return fail("unexpected token '" + t.text + "'");
  }

  std::optional<std::int64_t> call_function(const std::string& raw_name) {
    std::string name = util::to_lower(raw_name);
    if (!name.empty() && name[0] == '$') name.erase(0, 1);
    ts_.next();  // '('
    std::vector<std::int64_t> args;
    if (!ts_.peek().is_punct(")")) {
      while (true) {
        auto v = parse(1);
        if (!v) return std::nullopt;
        args.push_back(*v);
        if (ts_.accept_punct(",")) continue;
        break;
      }
    }
    if (!ts_.accept_punct(")")) return fail("missing ')' in call");
    if (name == "clog2" && args.size() == 1) return clog2(args[0]);
    if (name == "log2" && args.size() == 1) return clog2(args[0]);
    if (name == "abs" && args.size() == 1) return args[0] < 0 ? wrap_sub(0, args[0]) : args[0];
    if ((name == "max" || name == "maximum") && args.size() == 2)
      return args[0] > args[1] ? args[0] : args[1];
    if ((name == "min" || name == "minimum") && args.size() == 2)
      return args[0] < args[1] ? args[0] : args[1];
    if (name == "bits" && args.size() == 1) return clog2(wrap_add(args[0], 1));
    return fail("unsupported function '" + raw_name + "'");
  }

  TokenStream& ts_;
  HdlLanguage lang_;
  const ExprEnv& env_;
  std::string error_;
};

}  // namespace

ExprResult eval_expr(std::string_view expr, HdlLanguage lang, const ExprEnv& env) {
  ExprResult result;
  const std::string_view trimmed = util::trim(expr);
  if (trimmed.empty()) {
    result.error = "empty expression";
    return result;
  }
  std::vector<Diagnostic> diags;
  const std::vector<Token> tokens = Lexer(trimmed, lang).tokenize(diags);
  if (!diags.empty()) {
    result.error = diags.front().message;
    return result;
  }
  TokenStream ts(tokens);
  Evaluator ev(ts, lang, env);
  auto v = ev.parse(1);
  if (!v) {
    result.error = ev.error().empty() ? "evaluation failed" : ev.error();
    return result;
  }
  if (!ts.at_eof()) {
    result.error = "trailing tokens after expression";
    return result;
  }
  result.value = v;
  return result;
}

ExprEnv build_param_env(const Module& module, const util::FlatMap<std::int64_t>& overrides) {
  util::FlatMap<std::int64_t> norm;
  for (const auto& [k, v] : overrides) norm[util::to_lower(k)] = v;

  ExprEnv env;
  for (const auto& p : module.parameters) {
    const auto it = norm.find(util::to_lower(p.name));
    if (it != norm.end() && !p.is_local) {
      env.set(p.name, it->second);
      continue;
    }
    if (p.default_expr.empty()) continue;
    const ExprResult r = reference::eval_expr(p.default_expr, module.language, env);
    if (r.ok()) env.set(p.name, *r.value);
  }
  return env;
}

}  // namespace dovado::hdl::reference
