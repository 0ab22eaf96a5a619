#include "src/hdl/expr.hpp"

#include <gtest/gtest.h>

namespace dovado::hdl {
namespace {

std::int64_t eval_v(std::string_view e, const ExprEnv& env = {}) {
  auto r = eval_expr(e, HdlLanguage::kVhdl, env);
  EXPECT_TRUE(r.ok()) << e << ": " << r.error;
  return r.value.value_or(-999999);
}

std::int64_t eval_sv(std::string_view e, const ExprEnv& env = {}) {
  auto r = eval_expr(e, HdlLanguage::kSystemVerilog, env);
  EXPECT_TRUE(r.ok()) << e << ": " << r.error;
  return r.value.value_or(-999999);
}

TEST(ExprEval, Literals) {
  EXPECT_EQ(eval_v("42"), 42);
  EXPECT_EQ(eval_v("16#FF#"), 255);
  EXPECT_EQ(eval_v("2#1010#"), 10);
  EXPECT_EQ(eval_sv("8'hFF"), 255);
  EXPECT_EQ(eval_sv("4'b1010"), 10);
  EXPECT_EQ(eval_sv("'d42"), 42);
  EXPECT_EQ(eval_sv("1_000"), 1000);
}

TEST(ExprEval, BooleansAndChars) {
  EXPECT_EQ(eval_v("true"), 1);
  EXPECT_EQ(eval_v("FALSE"), 0);
  EXPECT_EQ(eval_v("'1'"), 1);
}

TEST(ExprEval, Arithmetic) {
  EXPECT_EQ(eval_v("2 + 3 * 4"), 14);
  EXPECT_EQ(eval_v("(2 + 3) * 4"), 20);
  EXPECT_EQ(eval_v("10 / 3"), 3);
  EXPECT_EQ(eval_v("-5 + 2"), -3);
  EXPECT_EQ(eval_v("2 ** 10"), 1024);
  EXPECT_EQ(eval_v("2 ** 3 ** 2"), 512);  // right-associative
}

TEST(ExprEval, ModAndRem) {
  EXPECT_EQ(eval_v("7 mod 3"), 1);
  EXPECT_EQ(eval_v("-7 mod 3"), 2);   // VHDL mod follows divisor sign
  EXPECT_EQ(eval_v("-7 rem 3"), -1);  // rem follows dividend sign
  EXPECT_EQ(eval_sv("7 % 3"), 1);
}

TEST(ExprEval, Shifts) {
  EXPECT_EQ(eval_sv("1 << 4"), 16);
  EXPECT_EQ(eval_sv("256 >> 2"), 64);
  EXPECT_EQ(eval_v("1 sll 3"), 8);
}

TEST(ExprEval, Comparisons) {
  EXPECT_EQ(eval_sv("3 < 4"), 1);
  EXPECT_EQ(eval_sv("3 >= 4"), 0);
  EXPECT_EQ(eval_sv("3 == 3"), 1);
  EXPECT_EQ(eval_sv("3 != 3"), 0);
  EXPECT_EQ(eval_v("3 /= 4"), 1);
}

TEST(ExprEval, Ternary) {
  EXPECT_EQ(eval_sv("1 ? 10 : 20"), 10);
  EXPECT_EQ(eval_sv("0 ? 10 : 20"), 20);
  EXPECT_EQ(eval_sv("2 > 1 ? 2 : 1"), 2);
}

TEST(ExprEval, IdentifiersFromEnv) {
  ExprEnv env;
  env.set("DEPTH", 512);
  env.set("WIDTH", 32);
  EXPECT_EQ(eval_sv("DEPTH * WIDTH", env), 16384);
  EXPECT_EQ(eval_v("depth - 1", env), 511);  // VHDL case-insensitive
}

TEST(ExprEval, Clog2Function) {
  EXPECT_EQ(eval_sv("$clog2(1)"), 0);
  EXPECT_EQ(eval_sv("$clog2(2)"), 1);
  EXPECT_EQ(eval_sv("$clog2(3)"), 2);
  EXPECT_EQ(eval_sv("$clog2(512)"), 9);
  EXPECT_EQ(eval_sv("$clog2(513)"), 10);
  ExprEnv env;
  env.set("N", 100);
  EXPECT_EQ(eval_sv("$clog2(N)", env), 7);
  EXPECT_EQ(eval_v("clog2(64)"), 6);
}

TEST(ExprEval, MinMaxAbs) {
  EXPECT_EQ(eval_v("max(3, 9)"), 9);
  EXPECT_EQ(eval_v("min(3, 9)"), 3);
  EXPECT_EQ(eval_v("abs(-4)"), 4);
}

TEST(ExprEval, LogicalOperators) {
  EXPECT_EQ(eval_sv("1 && 0"), 0);
  EXPECT_EQ(eval_sv("1 || 0"), 1);
  EXPECT_EQ(eval_v("true and false"), 0);
  EXPECT_EQ(eval_v("true or false"), 1);
  EXPECT_EQ(eval_v("not true"), 0);
  EXPECT_EQ(eval_sv("!0"), 1);
}

TEST(ExprEval, BitwiseOperators) {
  EXPECT_EQ(eval_sv("12 & 10"), 8);
  EXPECT_EQ(eval_sv("12 | 10"), 14);
  EXPECT_EQ(eval_sv("12 ^ 10"), 6);
}

TEST(ExprEval, Errors) {
  EXPECT_FALSE(eval_expr("UNKNOWN_PARAM", HdlLanguage::kVhdl, {}).ok());
  EXPECT_FALSE(eval_expr("1 / 0", HdlLanguage::kVhdl, {}).ok());
  EXPECT_FALSE(eval_expr("", HdlLanguage::kVhdl, {}).ok());
  EXPECT_FALSE(eval_expr("1 +", HdlLanguage::kVhdl, {}).ok());
  EXPECT_FALSE(eval_expr("(1", HdlLanguage::kVhdl, {}).ok());
  EXPECT_FALSE(eval_expr("3.14", HdlLanguage::kVhdl, {}).ok());  // reals rejected
  EXPECT_FALSE(eval_expr("1 2", HdlLanguage::kVhdl, {}).ok());   // trailing tokens
}

std::string eval_error(std::string_view e) {
  const auto r = eval_expr(e, HdlLanguage::kSystemVerilog, {});
  EXPECT_FALSE(r.ok()) << e << " evaluated to " << r.value.value_or(0);
  return r.error;
}

TEST(ExprPower, HugeExponentsOfZeroAndUnitBasesFinish) {
  // A loop per unit of the exponent would not finish these.
  EXPECT_EQ(eval_sv("0 ** 4000000000"), 0);
  EXPECT_EQ(eval_sv("1 ** 4000000000"), 1);
  EXPECT_EQ(eval_sv("(-1) ** 4000000000"), 1);
  EXPECT_EQ(eval_sv("(-1) ** 4000000001"), -1);
  EXPECT_EQ(eval_sv("1 ** 9223372036854775807"), 1);
  EXPECT_EQ(eval_sv("0 ** 0"), 1);
  EXPECT_EQ(eval_sv("(-1) ** 0"), 1);
  EXPECT_EQ(eval_v("0 ** 1"), 0);
}

TEST(ExprPower, OverflowPastTwoToTheSixty) {
  EXPECT_EQ(eval_sv("2 ** 60"), std::int64_t{1} << 60);
  EXPECT_EQ(eval_sv("(-2) ** 59"), -(std::int64_t{1} << 59));
  EXPECT_EQ(eval_sv("(-2) ** 60"), std::int64_t{1} << 60);
  EXPECT_EQ(eval_sv("3 ** 37"), 450283905890997363);
  EXPECT_EQ(eval_error("2 ** 61"), "exponent overflow");
  EXPECT_EQ(eval_error("(-2) ** 61"), "exponent overflow");
  EXPECT_EQ(eval_error("3 ** 38"), "exponent overflow");
  EXPECT_EQ(eval_error("2 ** 4000000000"), "exponent overflow");
  EXPECT_EQ(eval_error("1024 ** 7"), "exponent overflow");
  EXPECT_EQ(eval_error("4611686018427387904 ** 2"), "exponent overflow");
  EXPECT_EQ(eval_error("2 ** -1"), "negative exponent");
}

TEST(ExprPower, ParameterDefaultWithHugeExponentDoesNotHang) {
  Module m;
  m.language = HdlLanguage::kSystemVerilog;
  m.parameters.push_back({"ONE", "int", "1 ** 4000000000", false, "", "", {}});
  m.parameters.push_back({"BIG", "int", "2 ** 4000000000", false, "", "", {}});
  compile_expressions(m);
  const ExprEnv env = build_param_env(m, {});
  EXPECT_EQ(env.get("ONE"), 1);
  EXPECT_FALSE(env.get("BIG").has_value());
}

TEST(CompiledExpr, MatchesTextEvaluation) {
  ExprEnv env;
  env.set("DEPTH", 512);
  for (const char* text : {"$clog2(DEPTH) * 8 + (DEPTH >> 2) - 1", "DEPTH > 1 ? DEPTH : 1",
                           "WIDTH - 1", "1 +", "", "8'hff", "\"open"}) {
    const CompiledExpr code = compile_expr(text, HdlLanguage::kSystemVerilog);
    EXPECT_TRUE(code.compiled()) << text;
    const ExprResult compiled = eval_expr(code, env);
    const ExprResult direct = eval_expr(text, HdlLanguage::kSystemVerilog, env);
    EXPECT_EQ(compiled.value, direct.value) << text;
    EXPECT_EQ(compiled.error, direct.error) << text;
  }
  EXPECT_FALSE(CompiledExpr{}.compiled());
}

TEST(Clog2, Definition) {
  EXPECT_EQ(clog2(0), 0);
  EXPECT_EQ(clog2(1), 0);
  EXPECT_EQ(clog2(2), 1);
  EXPECT_EQ(clog2(4), 2);
  EXPECT_EQ(clog2(5), 3);
  EXPECT_EQ(clog2(1024), 10);
  EXPECT_EQ(clog2(1025), 11);
}

TEST(PortWidth, ScalarIsOne) {
  Port p;
  p.is_vector = false;
  EXPECT_EQ(port_width(p, HdlLanguage::kVhdl, {}), 1);
}

TEST(PortWidth, VectorFromEnv) {
  Port p;
  p.is_vector = true;
  p.left_expr = "WIDTH - 1";
  p.right_expr = "0";
  ExprEnv env;
  env.set("WIDTH", 32);
  EXPECT_EQ(port_width(p, HdlLanguage::kVhdl, env), 32);
}

TEST(PortWidth, AscendingRange) {
  Port p;
  p.is_vector = true;
  p.left_expr = "0";
  p.right_expr = "7";
  p.downto = false;
  EXPECT_EQ(port_width(p, HdlLanguage::kVhdl, {}), 8);
}

TEST(PortWidth, UnresolvableIsNullopt) {
  Port p;
  p.is_vector = true;
  p.left_expr = "W - 1";
  p.right_expr = "0";
  EXPECT_FALSE(port_width(p, HdlLanguage::kVhdl, {}).has_value());
}

TEST(BuildParamEnv, DefaultsAndOverrides) {
  Module m;
  m.language = HdlLanguage::kSystemVerilog;
  m.parameters.push_back({"DEPTH", "int", "512", false, "", "", {}});
  m.parameters.push_back({"ADDR_W", "int", "$clog2(DEPTH)", false, "", "", {}});
  m.parameters.push_back({"FIXED", "int", "7", true, "", "", {}});

  // Defaults only.
  auto env = build_param_env(m, {});
  EXPECT_EQ(env.get("DEPTH"), 512);
  EXPECT_EQ(env.get("ADDR_W"), 9);

  // Override propagates to dependent defaults.
  auto env2 = build_param_env(m, {{"DEPTH", 64}});
  EXPECT_EQ(env2.get("DEPTH"), 64);
  EXPECT_EQ(env2.get("ADDR_W"), 6);

  // localparam cannot be overridden.
  auto env3 = build_param_env(m, {{"FIXED", 100}});
  EXPECT_EQ(env3.get("FIXED"), 7);
}

}  // namespace
}  // namespace dovado::hdl
