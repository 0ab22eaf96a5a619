// Differential test of the constant-expression evaluator: hdl::eval_expr
// over tokens classified once by compile_expr, against the Pratt evaluator
// as it was before (tests/hdl/reference_expr.*), which decides every
// operator, keyword and function by comparing text at evaluation time.
// Both must return the same value, or the same first error message, on
// every parameter default and port bound of rtl/ and the analysis fixtures,
// on seeded random expressions and on token mutations of them. The lexer's
// multi-character operators are checked against the list it used to scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "src/hdl/expr.hpp"
#include "src/hdl/frontend.hpp"
#include "src/hdl/lexer.hpp"
#include "src/util/strings.hpp"
#include "tests/hdl/reference_expr.hpp"

namespace dovado::hdl {
namespace {

constexpr std::array<HdlLanguage, 3> kLanguages = {
    HdlLanguage::kVhdl, HdlLanguage::kVerilog, HdlLanguage::kSystemVerilog};

std::string show(const ExprResult& r) {
  return r.ok() ? "value " + std::to_string(*r.value) : "error '" + r.error + "'";
}

/// eval_expr and the reference agree on `text` under `env`.
void expect_same(std::string_view text, HdlLanguage lang, const ExprEnv& env) {
  const ExprResult live = eval_expr(text, lang, env);
  const ExprResult ref = reference::eval_expr(text, lang, env);
  EXPECT_EQ(show(live), show(ref)) << "'" << text << "' (" << language_name(lang) << ")";
  // The text compiled once and evaluated twice gives the same answer.
  const CompiledExpr code = compile_expr(text, lang);
  EXPECT_EQ(show(eval_expr(code, env)), show(ref)) << "'" << text << "' compiled";
}

std::vector<Module> corpus() {
  std::vector<Module> modules;
  for (const char* dir : {DOVADO_RTL_DIR, DOVADO_FIXTURE_DIR}) {
    std::vector<std::string> paths;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string path = entry.path().string();
      if (util::ends_with(path, ".v") || util::ends_with(path, ".sv") ||
          util::ends_with(path, ".vhd")) {
        paths.push_back(path);
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& path : paths) {
      const ParseResult parsed = parse_file(path);
      for (const auto& m : parsed.file.modules) modules.push_back(m);
    }
  }
  return modules;
}

/// Every name of `module`'s parameters, looked up in both environments.
void expect_same_env(const Module& module, const ExprEnv& live, const ExprEnv& ref) {
  EXPECT_EQ(live.size(), ref.size()) << module.name;
  for (const auto& p : module.parameters) {
    EXPECT_EQ(live.get(p.name), ref.get(p.name)) << module.name << "." << p.name;
  }
}

TEST(ExprDifferential, CorpusDefaultsAndBoundsAgree) {
  std::size_t expressions = 0;
  for (const Module& module : corpus()) {
    const ExprEnv env = build_param_env(module, {});
    expect_same_env(module, env, reference::build_param_env(module, {}));
    const ExprEnv empty;
    for (const auto& p : module.parameters) {
      for (const std::string* text : {&p.default_expr, &p.range_left_expr, &p.range_right_expr}) {
        if (text->empty()) continue;
        expect_same(*text, module.language, env);
        expect_same(*text, module.language, empty);
        ++expressions;
      }
    }
    for (const auto& port : module.ports) {
      if (!port.is_vector) continue;
      for (const std::string* text : {&port.left_expr, &port.right_expr}) {
        expect_same(*text, module.language, env);
        expect_same(*text, module.language, empty);
        ++expressions;
      }
      // The bounds the parser compiled give what the text gives.
      const PortBounds bounds = eval_port_bounds(port, module.language, env);
      EXPECT_EQ(show(bounds.left), show(reference::eval_expr(port.left_expr, module.language, env)))
          << module.name << "." << port.name;
      EXPECT_EQ(show(bounds.right),
                show(reference::eval_expr(port.right_expr, module.language, env)))
          << module.name << "." << port.name;
    }
  }
  EXPECT_GT(expressions, 100u);
}

TEST(ExprDifferential, ParamEnvAgreesAtSeededOverrides) {
  std::mt19937_64 rng(33);
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<std::int64_t> value(-4, 300);
  for (const Module& module : corpus()) {
    for (int trial = 0; trial < 40; ++trial) {
      util::FlatMap<std::int64_t> overrides;
      for (const auto& p : module.parameters) {
        if (percent(rng) >= 60) continue;
        std::string name = p.name;
        // Spellings that differ only by case, sometimes two of one name.
        if (percent(rng) < 30) name = util::to_upper(name);
        overrides[name] = value(rng);
        if (percent(rng) < 10) overrides[util::to_lower(p.name)] = value(rng);
      }
      const ExprEnv live = build_param_env(module, overrides);
      const ExprEnv ref = reference::build_param_env(module, overrides);
      expect_same_env(module, live, ref);
      for (const auto& port : module.ports) {
        if (!port.is_vector) continue;
        const PortBounds bounds = eval_port_bounds(port, module.language, live);
        EXPECT_EQ(show(bounds.left),
                  show(reference::eval_expr(port.left_expr, module.language, ref)));
        EXPECT_EQ(show(bounds.right),
                  show(reference::eval_expr(port.right_expr, module.language, ref)));
      }
    }
  }
}

ExprEnv sample_env() {
  ExprEnv env;
  env.set("Width", 8);
  env.set("DEPTH", 16);
  env.set("n", 3);
  env.set("zero", 0);
  env.set("neg", -5);
  env.set("big", std::int64_t{1} << 40);
  return env;
}

TEST(ExprDifferential, NamedCases) {
  const ExprEnv env = sample_env();
  const std::vector<std::string_view> cases = {
      // An untaken ternary branch that fails still fails the expression.
      "1 ? 2 : 3 / 0", "0 ? 3 / 0 : 2", "1 ? 2 : missing", "zero ? unknown_a : unknown_b",
      "n > 2 ? 1 ? 4 : 5 : 6", "1 ? 2 3", "1 ? : 3",
      // An unknown function fails after its arguments were evaluated.
      "foo(1, 2)", "foo(1 / 0)", "foo(missing)", "$foo(3)", "FOO()", "clog2(1, 2)",
      "max(1)", "min(4, 2, 1)", "abs()", "$clog2(DEPTH)", "$CLOG2(17)", "Log2(9)",
      "maximum(n, Width)", "MINIMUM(n, Width)", "bits(255)", "abs(neg)", "max(1 / 0, missing)",
      // ** overflow and its neighbours.
      "2 ** 60", "2 ** 61", "2 ** 62", "-2 ** 61", "big ** 2", "3 ** 39", "3 ** 38",
      "2 ** -1", "0 ** 0", "(-1) ** 63", "2 ** 3 ** 2", "2 ** 2 ** 2 ** 2 ** 2",
      // Values that leave 64 bits wrap, and INT64_MIN / -1 does not trap.
      "big * big", "big * big * big * big", "2 ** 60 * 8", "-(2 ** 60) * 8 - 1",
      "-(2 ** 60) * 8 / -1", "(-(2 ** 60) * 8) % -1", "(-(2 ** 60) * 8) rem -1",
      "(-(2 ** 60) * 8) mod -1", "-(-(2 ** 60) * 8)", "abs(-(2 ** 60) * 8)",
      "bits(2 ** 60 * 8 - 1)", "16#FFFFFFFFFFFFFFFFFFFF#", "80'hFFFFFFFFFFFFFFFFFFFF",
      // Word operators in mixed case.
      "7 mod 3", "-7 MOD 3", "7 Mod -3", "-7 rem 3", "7 REM 0", "7 mod 0", "1 sll 4",
      "1 SLL 70", "256 Srl 2", "256 srl -1", "1 and 0", "1 AND 1", "0 or 0", "0 Or 3",
      "not 0", "NOT 5", "Not n", "true", "TRUE and False", "mod", "rem + 1", "3 mod",
      // Identifiers that differ only by case name one entry.
      "width + WIDTH + Width", "depth * Depth", "N ** n", "Zero ? 1 : 2", "WIDTH(1)",
      // Operators, literals and characters.
      "1 == 1", "1 = 1", "1 /= 2", "1 != 1", "3 <= 4", "3 >= 4", "1 < 2 < 3", "6 & 3",
      "6 | 3", "6 ^ 3", "1 && 2", "0 || 0", "!3", "- -3", "+ +3", "10 % 3", "10 / 0",
      "10 % 0", "16#FF#", "2#102#", "8'hFF", "8'hZZ", "4'sb1010", "'1'", "'0'", "'x'",
      "1.5", "1e3", "\"str\"", "(1 + 2", "1 + 2)", "()", "(", ")", ",", "1 2", "=> 1",
      "1 +", "", "   ", "?", ":", "a ? b", "1 :: 2", "1 === 1", "1 <> 2", "a -> b",
  };
  for (const HdlLanguage lang : kLanguages) {
    for (const std::string_view text : cases) expect_same(text, lang, env);
  }
  EXPECT_EQ(eval_expr("-(2 ** 60) * 8 / -1", HdlLanguage::kVerilog, env).value,
            std::numeric_limits<std::int64_t>::min());
}

/// A seeded random expression over the evaluator's whole vocabulary:
/// literals, names in random case (some unknown), calls (some unknown),
/// prefix and infix operators in random case, ternaries and parentheses.
class ExprGenerator {
 public:
  explicit ExprGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string expression(int depth) {
    if (depth <= 0 || pick(100) < 25) return atom();
    switch (pick(10)) {
      case 0: return "(" + expression(depth - 1) + ")";
      case 1: return prefix() + expression(depth - 1);
      case 2:
        return expression(depth - 1) + " ? " + expression(depth - 1) + " : " +
               expression(depth - 1);
      case 3: return call(depth);
      default:
        return expression(depth - 1) + " " + infix() + " " + expression(depth - 1);
    }
  }

  /// The expression with one token deleted, duplicated, or swapped with its
  /// neighbour, or one random operator token inserted.
  std::string mutate(const std::string& text) {
    std::vector<std::string> words = util::split(text, ' ');
    if (words.empty()) return text;
    const std::size_t i = pick(words.size());
    switch (pick(4)) {
      case 0: words.erase(words.begin() + static_cast<std::ptrdiff_t>(i)); break;
      case 1: words.insert(words.begin() + static_cast<std::ptrdiff_t>(i), words[i]); break;
      case 2:
        if (i + 1 < words.size()) std::swap(words[i], words[i + 1]);
        break;
      default: words.insert(words.begin() + static_cast<std::ptrdiff_t>(i), infix()); break;
    }
    return util::join(words, " ");
  }

 private:
  std::size_t pick(std::size_t n) { return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_); }

  std::string random_case(std::string word) {
    for (char& c : word) {
      const unsigned char u = static_cast<unsigned char>(c);
      c = static_cast<char>(pick(2) == 0 ? std::toupper(u) : std::tolower(u));
    }
    return word;
  }

  std::string atom() {
    static const std::array<const char*, 14> kLiterals = {
        "0", "1", "2", "3", "7", "63", "64", "1_000", "16#1F#", "8'h10", "'1'", "'0'", "-1", "40"};
    static const std::array<const char*, 9> kNames = {
        "width", "depth", "n", "zero", "neg", "big", "true", "false", "missing"};
    if (pick(2) == 0) return kLiterals[pick(kLiterals.size())];
    return random_case(kNames[pick(kNames.size())]);
  }

  std::string prefix() {
    static const std::array<const char*, 4> kPrefix = {"-", "+", "!", "not "};
    return random_case(kPrefix[pick(kPrefix.size())]);
  }

  std::string infix() {
    static const std::array<const char*, 27> kInfix = {
        "+",  "-",  "*",   "/",   "%",   "**",  "<<",  ">>",  "==", "=",  "!=", "/=", "<", ">",
        "<=", ">=", "&&",  "||",  "&",   "|",   "^",   "mod", "rem", "sll", "srl", "and", "or"};
    return random_case(kInfix[pick(kInfix.size())]);
  }

  std::string call(int depth) {
    static const std::array<const char*, 12> kFunctions = {
        "clog2", "$clog2", "log2", "abs", "max", "maximum", "min", "minimum", "bits", "foo",
        "$bar", "width"};
    std::string text = random_case(kFunctions[pick(kFunctions.size())]) + "(";
    const std::size_t args = pick(4);
    for (std::size_t a = 0; a < args; ++a) {
      if (a != 0) text += ", ";
      text += expression(depth - 1);
    }
    return text + ")";
  }

  std::mt19937_64 rng_;
};

TEST(ExprDifferential, SeededRandomExpressionsAndMutations) {
  const ExprEnv env = sample_env();
  ExprGenerator gen(20261020);
  std::size_t ok = 0;
  std::size_t failed = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string text = gen.expression(4);
    const std::string mutant = gen.mutate(text);
    for (const HdlLanguage lang : kLanguages) {
      expect_same(text, lang, env);
      expect_same(mutant, lang, env);
      (eval_expr(text, lang, env).ok() ? ok : failed) += 1;
    }
  }
  // Both outcomes must be well represented, or the comparison says little.
  EXPECT_GT(ok, 1500u);
  EXPECT_GT(failed, 1500u);
}

/// The lexer's multi-character operators as it used to scan them: in this
/// order, the first one the text starts with.
std::size_t reference_punct_length(std::string_view text) {
  static constexpr std::array<std::string_view, 22> kMulti = {
      "<=", ">=", "=>", ":=", "**", "<<", ">>", "==", "!=", "/=", "&&",
      "||", "::", "<>", "->", "+:", "-:", "'{", "##", "|=>", "|->", "===",
  };
  for (std::string_view op : kMulti) {
    if (text.substr(0, op.size()) == op) return op.size();
  }
  return 1;
}

TEST(ExprDifferential, LexerPicksTheOperatorsItAlwaysPicked) {
  const std::string alphabet = "<>=:*!/&|+-'{#?()^%~@.;,[]a1 ";
  std::size_t checked = 0;
  for (const HdlLanguage lang : kLanguages) {
    for (char a : alphabet) {
      for (char b : alphabet) {
        for (char c : alphabet) {
          const std::string text{a, b, c};
          std::vector<Diagnostic> diags;
          const std::vector<Token> tokens = Lexer(text, lang).tokenize(diags);
          // Only texts the lexer starts with an operator (not a comment,
          // literal, name or blank).
          if (tokens.empty() || tokens.front().kind != TokenKind::kPunct ||
              tokens.front().loc.col != 1) {
            continue;
          }
          EXPECT_EQ(tokens.front().text.size(), reference_punct_length(text))
              << "'" << text << "' (" << language_name(lang) << ")";
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 10000u);
}

}  // namespace
}  // namespace dovado::hdl
