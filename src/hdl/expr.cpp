#include "src/hdl/expr.hpp"

#include <cmath>
#include <cstdlib>
#include <vector>

#include "src/hdl/lexer.hpp"
#include "src/util/strings.hpp"

namespace dovado::hdl {

void ExprEnv::set(std::string_view name, std::int64_t value) {
  values_[util::to_lower(name)] = value;
}

std::optional<std::int64_t> ExprEnv::get(std::string_view name) const {
  auto it = values_.find(util::to_lower(name));
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::int64_t clog2(std::int64_t n) {
  if (n <= 1) return 0;
  std::int64_t bits = 0;
  std::int64_t v = n - 1;
  while (v > 0) {
    v >>= 1;
    ++bits;
  }
  return bits;
}

namespace {

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
        value = value * base + d;
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
        value = value * base + d;
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
/// Every factor multiplied in has magnitude >= 1 unless |a| <= 1, so a
/// partial product or square past the limit means the result is past it.
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
    if (p == "+") return a + b;
    if (p == "-") return a - b;
    if (p == "*") return a * b;
    if (p == "/") {
      if (b == 0) return fail("division by zero");
      return a / b;
    }
    if (p == "%" || p == "mod") {
      if (b == 0) return fail("modulo by zero");
      // VHDL mod follows the sign of the divisor; with the positive divisors
      // used in parameter maths this matches C++ % for non-negative a.
      std::int64_t r = a % b;
      if (p == "mod" && r != 0 && ((r < 0) != (b < 0))) r += b;
      return r;
    }
    if (p == "rem") {
      if (b == 0) return fail("rem by zero");
      return a % b;
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
      return -*v;
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
      // '0'/'1' used as boolean-ish defaults.
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
      // Function call?
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
    if (name == "abs" && args.size() == 1) return std::llabs(args[0]);
    if ((name == "max" || name == "maximum") && args.size() == 2)
      return args[0] > args[1] ? args[0] : args[1];
    if ((name == "min" || name == "minimum") && args.size() == 2)
      return args[0] < args[1] ? args[0] : args[1];
    if (name == "bits" && args.size() == 1) return clog2(args[0] + 1);
    return fail("unsupported function '" + raw_name + "'");
  }

  TokenStream& ts_;
  HdlLanguage lang_;
  const ExprEnv& env_;
  std::string error_;
};

}  // namespace

CompiledExpr compile_expr(std::string_view expr, HdlLanguage lang) {
  CompiledExpr code;
  code.language = lang;
  const std::string_view trimmed = util::trim(expr);
  if (trimmed.empty()) {
    code.error = "empty expression";
    return code;
  }
  std::vector<Diagnostic> diags;
  code.tokens = Lexer(trimmed, lang).tokenize(diags);
  if (!diags.empty()) {
    code.error = diags.front().message;
    code.tokens.clear();
  }
  return code;
}

ExprResult eval_expr(const CompiledExpr& expr, const ExprEnv& env) {
  ExprResult result;
  if (!expr.error.empty() || expr.tokens.empty()) {
    result.error = expr.error.empty() ? "empty expression" : expr.error;
    return result;
  }
  TokenStream ts(expr.tokens);
  Evaluator ev(ts, expr.language, env);
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

ExprResult eval_expr(std::string_view expr, HdlLanguage lang, const ExprEnv& env) {
  return eval_expr(compile_expr(expr, lang), env);
}

namespace {

/// A parsed field's compiled form; fields of hand-built ASTs that carry
/// only text are compiled into `on_the_spot` first.
const CompiledExpr& code_of(const CompiledExpr& code, const std::string& text,
                            HdlLanguage lang, CompiledExpr& on_the_spot) {
  if (code.compiled()) return code;
  on_the_spot = compile_expr(text, lang);
  return on_the_spot;
}

}  // namespace

void compile_expressions(Module& module) {
  for (auto& p : module.parameters) p.default_code = compile_expr(p.default_expr, module.language);
  for (auto& port : module.ports) {
    if (!port.is_vector) continue;
    port.left_code = compile_expr(port.left_expr, module.language);
    port.right_code = compile_expr(port.right_expr, module.language);
  }
}

PortBounds eval_port_bounds(const Port& port, HdlLanguage lang, const ExprEnv& env) {
  CompiledExpr on_the_spot;
  PortBounds bounds;
  bounds.left = eval_expr(code_of(port.left_code, port.left_expr, lang, on_the_spot), env);
  bounds.right = eval_expr(code_of(port.right_code, port.right_expr, lang, on_the_spot), env);
  return bounds;
}

std::optional<std::int64_t> port_width(const Port& port, HdlLanguage lang, const ExprEnv& env) {
  if (!port.is_vector) return 1;
  const PortBounds bounds = eval_port_bounds(port, lang, env);
  if (!bounds.left.ok() || !bounds.right.ok()) return std::nullopt;
  return std::llabs(*bounds.left.value - *bounds.right.value) + 1;
}

ExprEnv build_param_env(const Module& module,
                        const util::FlatMap<std::int64_t>& overrides) {
  // Case-insensitive override lookup (VHDL generics).
  util::FlatMap<std::int64_t> norm;
  norm.reserve(overrides.size());
  for (const auto& [k, v] : overrides) norm[util::to_lower(k)] = v;

  ExprEnv env;
  env.reserve(module.parameters.size());
  CompiledExpr on_the_spot;
  for (const auto& p : module.parameters) {
    const auto it = norm.find(util::to_lower(p.name));
    if (it != norm.end() && !p.is_local) {
      env.set(p.name, it->second);
      continue;
    }
    if (p.default_expr.empty()) continue;
    const ExprResult r =
        eval_expr(code_of(p.default_code, p.default_expr, module.language, on_the_spot), env);
    if (r.ok()) env.set(p.name, *r.value);
  }
  return env;
}

}  // namespace dovado::hdl
