#include "src/tcl/interp.hpp"

#include <gtest/gtest.h>

namespace dovado::tcl {
namespace {

std::string eval_ok(Interp& in, std::string_view script) {
  auto r = in.eval(script);
  EXPECT_TRUE(r.ok) << r.error << " in: " << script;
  return r.value;
}

/// Register `echo`, a stand-in for a tool command that prints: it emits its
/// last word and returns it.
void register_echo(Interp& in) {
  in.register_command("echo", [](Interp& i, const std::vector<std::string>& a) {
    i.emit(a.back());
    return a.back();
  });
}

TEST(TclInterp, SetAndGetVariables) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set x 42"), "42");
  EXPECT_EQ(eval_ok(in, "set x"), "42");
  EXPECT_EQ(in.get_var("x"), "42");
  EXPECT_EQ(in.eval("set").error, "wrong # args: should be \"set varName ?newValue?\"");
  EXPECT_FALSE(in.eval("set a b c").ok);
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
  EXPECT_EQ(eval_ok(in, "set b [set a]7"), "37");
  EXPECT_EQ(eval_ok(in, "set c \"v=[set d [set a]]\""), "v=3");
  EXPECT_EQ(in.get_var("d"), "3");
}

TEST(TclInterp, CommentsIgnored) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "# a comment\nset x 1\n# another\nset y 2"), "2");
  // A backslash-newline continues the comment onto the next line.
  EXPECT_EQ(eval_ok(in, "set z 0\n# a comment \\\n set z 1\nset z"), "0");
}

TEST(TclInterp, SemicolonSeparatesCommands) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set a 1; set b 2; set c 3"), "3");
}

TEST(TclInterp, LineContinuation) {
  Interp in;
  EXPECT_EQ(eval_ok(in, "set \\\n x \\\n 9"), "9");
}

TEST(TclInterp, ToolCommandsCollectOutput) {
  Interp in;
  register_echo(in);
  eval_ok(in, "echo hello\necho \"two words\"");
  ASSERT_EQ(in.output().size(), 2u);
  EXPECT_EQ(in.output()[0], "hello");
  EXPECT_EQ(in.output()[1], "two words");
  in.clear_output();
  EXPECT_TRUE(in.output().empty());
}

TEST(TclInterp, CustomCommandRegistration) {
  Interp in;
  in.register_command("double", [](Interp&, const std::vector<std::string>& a) {
    return std::to_string(2 * std::stoll(a.at(1)));
  });
  const auto names = in.command_names();
  EXPECT_EQ(names, (std::vector<std::string>{"double", "set"}));
  EXPECT_EQ(eval_ok(in, "double 21"), "42");
  EXPECT_EQ(eval_ok(in, "set x [double [double 10]]"), "40");
}

TEST(TclInterp, UnknownCommandErrors) {
  // `set` is the only builtin: the flow script and the XDC use nothing else,
  // so the commands of full TCL are unknown words like any other.
  Interp in;
  for (const char* name :
       {"definitely_not_a_command", "unset", "puts", "expr", "incr", "if", "while", "return",
        "error", "catch", "list", "append", "foreach", "for", "proc", "llength", "lindex",
        "lappend", "string", "format"}) {
    const auto r = in.eval(std::string(name) + " 1 2");
    EXPECT_FALSE(r.ok) << name;
    EXPECT_EQ(r.error, "invalid command name \"" + std::string(name) + "\"");
  }
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
  // A carriage return separates words like a space, as the linter reads it:
  // `set x 5 \r` has two arguments, not a third "\r".
  Interp in;
  EXPECT_EQ(eval_ok(in, "set x 5 \r\nset y $x\r\n"), "5");
  EXPECT_EQ(in.get_var("y"), "5");
}

TEST(TclInterp, DeepBracketNestingHitsDepthLimit) {
  // `set x [set y [set y ... 1]]`, 100,000 levels: the parser stops at the
  // nesting bound instead of recursing, and the error is the runtime's.
  constexpr int kLevels = 100000;
  std::string script = "echo first; set x ";
  for (int i = 0; i < kLevels; ++i) script += "[set y ";
  script += "1";
  script.append(kLevels, ']');
  Interp in;
  register_echo(in);
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
  register_echo(in);
  const auto r = in.eval("echo a; set x \"b[echo c]$undefined\necho d");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "can't read \"undefined\": no such variable");
  EXPECT_EQ(in.output(), (std::vector<std::string>{"a", "c"}));

  Interp quoted;
  register_echo(quoted);
  const auto unclosed = quoted.eval("echo a; set x \"b[echo c]\necho d");
  EXPECT_EQ(unclosed.error, "missing close-quote");
  EXPECT_EQ(quoted.output(), (std::vector<std::string>{"a", "c"}));
  EXPECT_FALSE(quoted.has_var("x"));
}

TEST(TclInterp, RepeatedScriptsSeeCurrentVariables) {
  // A script is compiled once per text; each run still substitutes afresh.
  Interp in;
  const std::string script = "set out [set n]-$n";
  for (int n = 0; n < 3; ++n) {
    in.set_var("n", std::to_string(n));
    EXPECT_EQ(eval_ok(in, script), std::to_string(n) + "-" + std::to_string(n));
  }
}

// The interpreter keeps one word vector per nesting depth and reuses it
// from command to command. A command's words must stay intact while the
// command runs scripts of its own, however deep they nest.

/// Register `keep`: it copies its words, runs `script` (catching a TCL
/// error from it), and returns "intact" when its words still equal the
/// copy.
void register_keep(Interp& in, std::string script) {
  in.register_command("keep", [script](Interp& i, const std::vector<std::string>& a) {
    const std::vector<std::string> before = a;
    try {
      (void)i.eval_or_throw(script);
    } catch (const TclError&) {
    }
    return std::string(a == before ? "intact" : "clobbered");
  });
}

/// `set x [set y [set y ... 1]]` with `levels` brackets.
std::string nested_brackets(int levels) {
  std::string script = "set x ";
  for (int i = 0; i < levels; ++i) script += "[set y ";
  script += "1";
  script.append(static_cast<std::size_t>(levels), ']');
  return script;
}

TEST(TclWordStack, WordsSurviveAScriptTheCommandRuns) {
  Interp in;
  register_echo(in);
  register_keep(in, "echo a b c d e f; set long_variable_name [echo g h i j]; echo k");
  in.set_var("v", "value");
  EXPECT_EQ(eval_ok(in, "keep one two $v [echo three] four"), "intact");
  EXPECT_EQ(in.output(), (std::vector<std::string>{"three", "f", "j", "k"}));
}

TEST(TclWordStack, WordsSurviveBracketsNestedToTheDepthLimit) {
  // `keep` runs at depth 1 and its script at depth 2, so 62 brackets reach
  // kMaxDepth exactly; 63 are one too many and fail inside the script.
  for (const int levels : {kMaxDepth - 2, kMaxDepth - 1}) {
    Interp in;
    register_keep(in, nested_brackets(levels));
    EXPECT_EQ(eval_ok(in, "keep alpha beta gamma delta"), "intact") << levels;
    EXPECT_EQ(in.has_var("x"), levels == kMaxDepth - 2) << levels;
  }
  // Brackets in the command's own words, nested to the limit: its words
  // are substituted one level deeper than it runs.
  Interp in;
  register_keep(in, "set z 1");
  const std::string deep = nested_brackets(kMaxDepth - 1).substr(6);
  EXPECT_EQ(eval_ok(in, "keep first " + deep + " last"), "intact");
  EXPECT_FALSE(in.eval("keep first [" + nested_brackets(kMaxDepth - 1) + "] last").ok);
}

TEST(TclWordStack, RunAfterAnErrorGetsFreshWords) {
  Interp in;
  std::vector<std::string> seen;
  in.register_command("record", [&seen](Interp&, const std::vector<std::string>& a) {
    seen = a;
    return std::string();
  });
  in.register_command("boom", [](Interp&, const std::vector<std::string>&) -> std::string {
    Interp::fail("boom");
  });
  // An error while the words are substituted, and one thrown by a command
  // in a word's brackets, each after longer commands at the same depth.
  eval_ok(in, "record a b c d e f g");
  EXPECT_FALSE(in.eval("record 1 2 3 $undefined 5 6 7 8").ok);
  eval_ok(in, "record x");
  EXPECT_EQ(seen, (std::vector<std::string>{"record", "x"}));
  EXPECT_FALSE(in.eval("record p q [record r s t u v w; boom] z").ok);
  eval_ok(in, "record [record y] w");
  EXPECT_EQ(seen, (std::vector<std::string>{"record", "", "w"}));
  // A command that fails mid-run leaves the next run its own words.
  EXPECT_FALSE(in.eval("boom with many words here").ok);
  eval_ok(in, "record after");
  EXPECT_EQ(seen, (std::vector<std::string>{"record", "after"}));
}

}  // namespace
}  // namespace dovado::tcl
