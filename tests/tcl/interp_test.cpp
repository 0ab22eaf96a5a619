#include "src/tcl/interp.hpp"

#include <gtest/gtest.h>

namespace dovado::tcl {
namespace {

std::string eval_ok(Interp& in, std::string_view script) {
  auto r = in.eval(script);
  EXPECT_TRUE(r.ok) << r.error << " in: " << script;
  return r.value;
}

TEST(TclInterp, SetAndGetVariables) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set x 42"), "42");
  EXPECT_EQ(eval_ok(in, "set x"), "42");
  EXPECT_EQ(in.get_var("x"), "42");
}

TEST(TclInterp, DollarSubstitution) {
  Interp in;
  eval_ok(in, "set name world");
  EXPECT_EQ(eval_ok(in, "set msg hello_$name"), "hello_world");
  EXPECT_EQ(eval_ok(in, "set msg2 ${name}ly"), "worldly");
}

TEST(TclInterp, UnsetVariableErrors) {
  Interp in;
  auto r = in.eval("set y $undefined_var");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no such variable"), std::string::npos);
}

TEST(TclInterp, UnsetRemovesVariable) {
  Interp in;
  eval_ok(in, "set x 1");
  eval_ok(in, "unset x");
  EXPECT_FALSE(in.has_var("x"));
}

TEST(TclInterp, BracesPreventSubstitution) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set x {$not_substituted}"), "$not_substituted");
  EXPECT_EQ(eval_ok(in, "set y {nested {braces} ok}"), "nested {braces} ok");
}

TEST(TclInterp, QuotesAllowSubstitution) {
  Interp in;
  eval_ok(in, "set a 5");
  EXPECT_EQ(eval_ok(in, "set b \"a is $a\""), "a is 5");
}

TEST(TclInterp, BracketCommandSubstitution) {
  Interp in;
  eval_ok(in, "set a 3");
  EXPECT_EQ(eval_ok(in, "set b [expr {$a * 7}]"), "21");
  EXPECT_EQ(eval_ok(in, "set c \"v=[expr {1 + 1}]\""), "v=2");
}

TEST(TclInterp, CommentsIgnored) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "# a comment\nset x 1\n# another\nset y 2"), "2");
}

TEST(TclInterp, SemicolonSeparatesCommands) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set a 1; set b 2; set c 3"), "3");
}

TEST(TclInterp, LineContinuation) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set \\\n x \\\n 9"), "9");
}

TEST(TclInterp, PutsCollectsOutput) {
  Interp in;
  eval_ok(in, "puts hello\nputs \"two words\"");
  ASSERT_EQ(in.output().size(), 2u);
  EXPECT_EQ(in.output()[0], "hello");
  EXPECT_EQ(in.output()[1], "two words");
  in.clear_output();
  EXPECT_TRUE(in.output().empty());
}

TEST(TclInterp, ExprArithmetic) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "expr {2 + 3 * 4}"), "14");
  EXPECT_EQ(eval_ok(in, "expr {(2 + 3) * 4}"), "20");
  EXPECT_EQ(eval_ok(in, "expr {2 ** 10}"), "1024");
  EXPECT_EQ(eval_ok(in, "expr {7 % 3}"), "1");
  EXPECT_EQ(eval_ok(in, "expr {1.5 * 2}"), "3");
  EXPECT_EQ(eval_ok(in, "expr {10 / 4.0}"), "2.5");
}

TEST(TclInterp, ExprComparisonsAndLogic) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "expr {3 < 4}"), "1");
  EXPECT_EQ(eval_ok(in, "expr {3 >= 4}"), "0");
  EXPECT_EQ(eval_ok(in, "expr {1 && 0}"), "0");
  EXPECT_EQ(eval_ok(in, "expr {1 || 0}"), "1");
  EXPECT_EQ(eval_ok(in, "expr {!1}"), "0");
  EXPECT_EQ(eval_ok(in, "expr {3 == 3 ? 10 : 20}"), "10");
}

TEST(TclInterp, ExprFunctions) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "expr {abs(-3)}"), "3");
  EXPECT_EQ(eval_ok(in, "expr {max(2, 9)}"), "9");
  EXPECT_EQ(eval_ok(in, "expr {pow(2, 8)}"), "256");
  EXPECT_EQ(eval_ok(in, "expr {floor(2.9)}"), "2");
}

TEST(TclInterp, ExprErrors) {
  Interp in;
  EXPECT_FALSE(in.eval("expr {1 / 0}").ok);
  EXPECT_FALSE(in.eval("expr {nonsense}").ok);
  EXPECT_FALSE(in.eval("expr {1 +}").ok);
}

TEST(TclInterp, IfElse) {
  Interp in;
  eval_ok(in, "set x 5");
  EXPECT_EQ(eval_ok(in, "if {$x > 3} {set r big} else {set r small}"), "big");
  eval_ok(in, "set x 1");
  EXPECT_EQ(eval_ok(in, "if {$x > 3} {set r big} else {set r small}"), "small");
}

TEST(TclInterp, IfElseif) {
  Interp in;
  const char* script = "if {$x == 1} {set r one} elseif {$x == 2} {set r two} else {set r many}";
  eval_ok(in, "set x 2");
  EXPECT_EQ(eval_ok(in, script), "two");
  eval_ok(in, "set x 9");
  EXPECT_EQ(eval_ok(in, script), "many");
}

TEST(TclInterp, WhileAndIncr) {
  Interp in;
  eval_ok(in, "set i 0\nset sum 0\nwhile {$i < 5} {incr sum $i; incr i}");
  EXPECT_EQ(in.get_var("sum"), "10");
  EXPECT_EQ(in.get_var("i"), "5");
}

TEST(TclInterp, ReturnStopsScript) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set x 1\nreturn early\nset x 2"), "early");
  EXPECT_EQ(in.get_var("x"), "1");
}

TEST(TclInterp, ErrorCommandAndCatch) {
  Interp in;
  EXPECT_FALSE(in.eval("error \"boom\"").ok);
  EXPECT_EQ(eval_ok(in, "catch {error boom} msg"), "1");
  EXPECT_EQ(in.get_var("msg"), "boom");
  EXPECT_EQ(eval_ok(in, "catch {set ok 3} msg"), "0");
  EXPECT_EQ(in.get_var("msg"), "3");
}

TEST(TclInterp, CustomCommandRegistration) {
  Interp in;
  in.register_command("double", [](Interp&, const std::vector<std::string>& a) {
    return std::to_string(2 * std::stoll(a.at(1)));
  });
  EXPECT_TRUE(in.has_command("double"));
  EXPECT_EQ(eval_ok(in, "double 21"), "42");
  EXPECT_EQ(eval_ok(in, "set x [double [double 10]]"), "40");
}

TEST(TclInterp, UnknownCommandErrors) {
  Interp in;
  auto r = in.eval("definitely_not_a_command 1 2");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("invalid command name"), std::string::npos);
}

TEST(TclInterp, ListAndAppend) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "list a b {c d}"), "a b {c d}");
  eval_ok(in, "append s foo");
  eval_ok(in, "append s bar baz");
  EXPECT_EQ(in.get_var("s"), "foobarbaz");
}

TEST(TclInterp, MissingCloseBraceReported) {
  Interp in;
  EXPECT_FALSE(in.eval("set x {unclosed").ok);
  EXPECT_FALSE(in.eval("set x \"unclosed").ok);
  EXPECT_FALSE(in.eval("set x [unclosed").ok);
}

TEST(TclInterp, BackslashEscapes) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set x \"a\\tb\""), "a\tb");
  EXPECT_EQ(eval_ok(in, "set y \"q\\\"q\""), "q\"q");
}

TEST(TclInterp, RecursionGuard) {
  Interp in;
  // A command that evaluates itself forever must hit the depth limit, not
  // the stack.
  in.register_command("loop", [](Interp& i, const std::vector<std::string>&) {
    return i.eval_or_throw("loop");
  });
  EXPECT_FALSE(in.eval("loop").ok);
}

TEST(TclInterp, CrlfLineEndings) {
  // A carriage return separates words like a space, as the linter reads it.
  Interp in;
  EXPECT_EQ(eval_ok(in, "set x 5\r\nincr x\r\n"), "6");
  EXPECT_EQ(in.get_var("x"), "6");
}

TEST(TclInterp, DeepBracketNestingHitsDepthLimit) {
  // `set x [set y [set y ... 1]]`, 100,000 levels: the parser stops at the
  // nesting bound instead of recursing, and the error is the runtime's.
  constexpr int kLevels = 100000;
  std::string script = "puts first; set x ";
  for (int i = 0; i < kLevels; ++i) script += "[set y ";
  script += "1";
  script.append(kLevels, ']');
  Interp in;
  const auto r = in.eval(script);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "too many nested evaluations");
  EXPECT_EQ(in.output(), std::vector<std::string>{"first"});
  EXPECT_FALSE(in.has_var("x"));
}

TEST(TclInterp, SyntaxErrorRunsEarlierCommandsAndPartsFirst) {
  // Commands before the error run, the broken command's parsed parts are
  // substituted in order, then the syntax error is raised.
  Interp in;
  const auto r = in.eval("puts a; set x \"b[puts c]$undefined\nputs d");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "can't read \"undefined\": no such variable");
  EXPECT_EQ(in.output(), (std::vector<std::string>{"a", "c"}));

  Interp quoted;
  const auto unclosed = quoted.eval("puts a; set x \"b[puts c]\nputs d");
  EXPECT_EQ(unclosed.error, "missing close-quote");
  EXPECT_EQ(quoted.output(), (std::vector<std::string>{"a", "c"}));
  EXPECT_FALSE(quoted.has_var("x"));
}

TEST(TclInterp, RepeatedScriptsSeeCurrentVariables) {
  // A script is compiled once per text; each run still substitutes afresh.
  Interp in;
  const std::string script = "set out [expr {$n * 2}]";
  for (int n = 0; n < 3; ++n) {
    in.set_var("n", std::to_string(n));
    EXPECT_EQ(eval_ok(in, script), std::to_string(2 * n));
  }
}

TEST(TclEvalNumber, StaticHelper) {
  EXPECT_DOUBLE_EQ(Interp::eval_number("1 + 2"), 3.0);
  EXPECT_DOUBLE_EQ(Interp::eval_number("2 ** 3 ** 2"), 512.0);
  EXPECT_DOUBLE_EQ(Interp::eval_number("min(4, 2) + max(1, 3)"), 5.0);
}

}  // namespace
}  // namespace dovado::tcl
