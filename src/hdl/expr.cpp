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
  return get_folded(util::to_lower(name));
}

std::optional<std::int64_t> ExprEnv::get_folded(std::string_view folded) const {
  auto it = values_.find(folded);
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

/// Expression arithmetic wraps in two's complement: HDL text comes from
/// outside the program, and a value that leaves 64 bits must not be
/// undefined behaviour (nor INT64_MIN / -1 a trap).
std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
}
std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
}
/// a / b and a % b for b != 0.
std::int64_t wrap_div(std::int64_t a, std::int64_t b) { return b == -1 ? wrap_sub(0, a) : a / b; }
std::int64_t wrap_rem(std::int64_t a, std::int64_t b) { return b == -1 ? 0 : a % b; }
std::int64_t wrap_abs(std::int64_t a) { return a < 0 ? wrap_sub(0, a) : a; }

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

/// The operator a punctuation token spells, or kNone.
ExprOp punct_op(std::string_view p) {
  if (p.size() == 1) {
    switch (p[0]) {
      case '(': return ExprOp::kLParen;
      case ')': return ExprOp::kRParen;
      case ',': return ExprOp::kComma;
      case '?': return ExprOp::kQuestion;
      case ':': return ExprOp::kColon;
      case '!': return ExprOp::kNot;
      case '=': return ExprOp::kEq;
      case '<': return ExprOp::kLt;
      case '>': return ExprOp::kGt;
      case '+': return ExprOp::kAdd;
      case '-': return ExprOp::kSub;
      case '&': return ExprOp::kBitAnd;
      case '|': return ExprOp::kBitOr;
      case '^': return ExprOp::kXor;
      case '*': return ExprOp::kMul;
      case '/': return ExprOp::kDiv;
      case '%': return ExprOp::kPercent;
      default: return ExprOp::kNone;
    }
  }
  if (p == "||") return ExprOp::kOrOr;
  if (p == "&&") return ExprOp::kAndAnd;
  if (p == "==") return ExprOp::kEq;
  if (p == "!=" || p == "/=") return ExprOp::kNe;
  if (p == "<=") return ExprOp::kLe;
  if (p == ">=") return ExprOp::kGe;
  if (p == "<<") return ExprOp::kShl;
  if (p == ">>") return ExprOp::kShr;
  if (p == "**") return ExprOp::kPow;
  return ExprOp::kNone;
}

/// The operator a (lower-cased) identifier spells, or kNone.
ExprOp word_op(std::string_view w) {
  if (w == "not") return ExprOp::kNot;
  if (w == "true") return ExprOp::kTrue;
  if (w == "false") return ExprOp::kFalse;
  if (w == "mod") return ExprOp::kMod;
  if (w == "rem") return ExprOp::kRem;
  if (w == "sll") return ExprOp::kShl;
  if (w == "srl") return ExprOp::kShr;
  if (w == "and") return ExprOp::kAndAnd;
  if (w == "or") return ExprOp::kOrOr;
  return ExprOp::kNone;
}

/// The infix binding power of an operator; 0 when it is not infix.
std::uint8_t infix_binding(ExprOp op) {
  switch (op) {
    case ExprOp::kQuestion: return 2;
    case ExprOp::kOrOr: return 3;
    case ExprOp::kAndAnd: return 4;
    case ExprOp::kEq:
    case ExprOp::kNe: return 5;
    case ExprOp::kLt:
    case ExprOp::kGt:
    case ExprOp::kLe:
    case ExprOp::kGe: return 6;
    case ExprOp::kShl:
    case ExprOp::kShr: return 7;
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kBitAnd:
    case ExprOp::kBitOr:
    case ExprOp::kXor: return 8;
    case ExprOp::kMul:
    case ExprOp::kDiv:
    case ExprOp::kPercent:
    case ExprOp::kMod:
    case ExprOp::kRem: return 9;
    case ExprOp::kPow: return 11;
    default: return 0;
  }
}

/// The function a (lower-cased) identifier names when called; a leading
/// `$` (Verilog system functions) is ignored.
ExprFn function_of(std::string_view w) {
  if (!w.empty() && w.front() == '$') w.remove_prefix(1);
  if (w == "clog2" || w == "log2") return ExprFn::kClog2;
  if (w == "abs") return ExprFn::kAbs;
  if (w == "max" || w == "maximum") return ExprFn::kMax;
  if (w == "min" || w == "minimum") return ExprFn::kMin;
  if (w == "bits") return ExprFn::kBits;
  return ExprFn::kNone;
}

/// Classify one lexer token for evaluation.
ExprToken classify(Token&& token, HdlLanguage lang) {
  ExprToken t;
  t.kind = token.kind;
  switch (token.kind) {
    case TokenKind::kPunct:
      t.op = punct_op(token.text);
      break;
    case TokenKind::kIdentifier:
      t.folded = util::to_lower(token.text);
      t.op = word_op(t.folded);
      t.fn = function_of(t.folded);
      break;
    case TokenKind::kNumber:
      if (const auto v = literal_value(token.text, lang)) {
        t.has_value = true;
        t.value = *v;
      }
      break;
    case TokenKind::kChar:
      // '0'/'1' used as boolean-ish defaults.
      t.has_value = token.text == "0" || token.text == "1";
      t.value = token.text == "1" ? 1 : 0;
      break;
    default:
      break;
  }
  t.binding = infix_binding(t.op);
  t.text = std::move(token.text);
  return t;
}

/// Pratt-style evaluator over a compiled token stream. Every decision was
/// made by compile_expr; evaluation only switches on the recorded codes.
class Evaluator {
 public:
  Evaluator(const std::vector<ExprToken>& tokens, const ExprEnv& env)
      : tokens_(tokens), env_(env) {}

  std::optional<std::int64_t> parse(int min_bp) {
    auto lhs = parse_prefix();
    if (!lhs) return std::nullopt;
    while (true) {
      const ExprToken& op = peek();
      const int bp = op.binding;
      if (bp == 0 || bp < min_bp) break;
      if (op.op == ExprOp::kQuestion) {
        // Ternary: cond ? a : b (right-assoc, lowest precedence).
        next();
        auto then_v = parse(1);
        if (!then_v || !accept(ExprOp::kColon)) return fail("malformed ternary");
        auto else_v = parse(1);
        if (!else_v) return std::nullopt;
        lhs = (*lhs != 0) ? then_v : else_v;
        continue;
      }
      next();
      // '**' is right-associative; everything else left-associative.
      const bool right_assoc = op.op == ExprOp::kPow;
      auto rhs = parse(right_assoc ? bp : bp + 1);
      if (!rhs) return std::nullopt;
      lhs = apply(op, *lhs, *rhs);
      if (!lhs) return std::nullopt;
    }
    return lhs;
  }

  [[nodiscard]] bool at_eof() const { return peek().kind == TokenKind::kEof; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  // The stream ends with kEof, which next() never moves past.
  [[nodiscard]] const ExprToken& peek() const { return tokens_[pos_]; }
  const ExprToken& next() {
    const ExprToken& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool accept(ExprOp op) {
    if (peek().op != op) return false;
    next();
    return true;
  }

  std::optional<std::int64_t> fail(std::string msg) {
    if (error_.empty()) error_ = std::move(msg);
    return std::nullopt;
  }

  std::optional<std::int64_t> apply(const ExprToken& op, std::int64_t a, std::int64_t b) {
    switch (op.op) {
      case ExprOp::kAdd: return wrap_add(a, b);
      case ExprOp::kSub: return wrap_sub(a, b);
      case ExprOp::kMul: return wrap_mul(a, b);
      case ExprOp::kDiv:
        if (b == 0) return fail("division by zero");
        return wrap_div(a, b);
      case ExprOp::kPercent:
      case ExprOp::kMod: {
        if (b == 0) return fail("modulo by zero");
        // VHDL mod follows the sign of the divisor; with the positive
        // divisors used in parameter maths this matches C++ % for
        // non-negative a.
        std::int64_t r = wrap_rem(a, b);
        if (op.op == ExprOp::kMod && r != 0 && ((r < 0) != (b < 0))) r += b;
        return r;
      }
      case ExprOp::kRem:
        if (b == 0) return fail("rem by zero");
        return wrap_rem(a, b);
      case ExprOp::kPow: {
        if (b < 0) return fail("negative exponent");
        const auto power = checked_pow(a, b);
        if (!power) return fail("exponent overflow");
        return power;
      }
      case ExprOp::kShl: return b >= 0 && b < 63 ? a << b : 0;
      case ExprOp::kShr: return b >= 0 && b < 63 ? a >> b : 0;
      case ExprOp::kEq: return a == b ? 1 : 0;
      case ExprOp::kNe: return a != b ? 1 : 0;
      case ExprOp::kLt: return a < b ? 1 : 0;
      case ExprOp::kGt: return a > b ? 1 : 0;
      case ExprOp::kLe: return a <= b ? 1 : 0;
      case ExprOp::kGe: return a >= b ? 1 : 0;
      case ExprOp::kAndAnd: return (a != 0 && b != 0) ? 1 : 0;
      case ExprOp::kOrOr: return (a != 0 || b != 0) ? 1 : 0;
      case ExprOp::kBitAnd: return a & b;
      case ExprOp::kBitOr: return a | b;
      case ExprOp::kXor: return a ^ b;
      default: return fail("unsupported operator '" + op.text + "'");
    }
  }

  std::optional<std::int64_t> parse_prefix() {
    const ExprToken& t = peek();
    switch (t.op) {
      case ExprOp::kLParen: {
        next();
        auto inner = parse(1);
        if (!inner || !accept(ExprOp::kRParen)) return fail("missing ')'");
        return inner;
      }
      case ExprOp::kSub: {
        next();
        auto v = parse(10);
        if (!v) return std::nullopt;
        return wrap_sub(0, *v);
      }
      case ExprOp::kAdd:
        next();
        return parse(10);
      case ExprOp::kNot: {
        next();
        auto v = parse(10);
        if (!v) return std::nullopt;
        return *v == 0 ? 1 : 0;
      }
      case ExprOp::kTrue:
        next();
        return 1;
      case ExprOp::kFalse:
        next();
        return 0;
      default:
        break;
    }
    switch (t.kind) {
      case TokenKind::kNumber:
        next();
        if (!t.has_value) return fail("unsupported literal '" + t.text + "'");
        return t.value;
      case TokenKind::kChar:
        next();
        if (!t.has_value) return fail("non-numeric character literal");
        return t.value;
      case TokenKind::kIdentifier: {
        next();
        // Function call?
        if (peek().op == ExprOp::kLParen) return call_function(t);
        auto v = env_.get_folded(t.folded);
        if (!v) return fail("unknown identifier '" + t.text + "'");
        return v;
      }
      default:
        return fail("unexpected token '" + t.text + "'");
    }
  }

  std::optional<std::int64_t> call_function(const ExprToken& name) {
    next();  // '('
    // Every argument is evaluated (the first error wins); the built-ins
    // take one or two.
    std::int64_t args[2] = {0, 0};
    std::size_t count = 0;
    if (peek().op != ExprOp::kRParen) {
      while (true) {
        auto v = parse(1);
        if (!v) return std::nullopt;
        if (count < 2) args[count] = *v;
        ++count;
        if (accept(ExprOp::kComma)) continue;
        break;
      }
    }
    if (!accept(ExprOp::kRParen)) return fail("missing ')' in call");
    switch (count == 1 ? name.fn : ExprFn::kNone) {
      case ExprFn::kClog2: return clog2(args[0]);
      case ExprFn::kAbs: return wrap_abs(args[0]);
      case ExprFn::kBits: return clog2(wrap_add(args[0], 1));
      default: break;
    }
    switch (count == 2 ? name.fn : ExprFn::kNone) {
      case ExprFn::kMax: return args[0] > args[1] ? args[0] : args[1];
      case ExprFn::kMin: return args[0] < args[1] ? args[0] : args[1];
      default: break;
    }
    return fail("unsupported function '" + name.text + "'");
  }

  const std::vector<ExprToken>& tokens_;
  std::size_t pos_ = 0;
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
  std::vector<Token> tokens = Lexer(trimmed, lang).tokenize(diags);
  if (!diags.empty()) {
    code.error = diags.front().message;
    return code;
  }
  code.tokens.reserve(tokens.size());
  for (Token& t : tokens) code.tokens.push_back(classify(std::move(t), lang));
  return code;
}

ExprResult eval_expr(const CompiledExpr& expr, const ExprEnv& env) {
  ExprResult result;
  if (!expr.error.empty() || expr.tokens.empty()) {
    result.error = expr.error.empty() ? "empty expression" : expr.error;
    return result;
  }
  Evaluator ev(expr.tokens, env);
  auto v = ev.parse(1);
  if (!v) {
    result.error = ev.error().empty() ? "evaluation failed" : ev.error();
    return result;
  }
  if (!ev.at_eof()) {
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
  ExprEnv env;
  env.reserve(module.parameters.size());
  CompiledExpr on_the_spot;
  for (const auto& p : module.parameters) {
    // Overrides match case-insensitively (VHDL generics); of two spellings
    // of one name, the later in key order wins.
    const std::int64_t* value = nullptr;
    if (!p.is_local) {
      for (const auto& [name, v] : overrides) {
        if (util::iequals(name, p.name)) value = &v;
      }
    }
    if (value != nullptr) {
      env.set(p.name, *value);
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
