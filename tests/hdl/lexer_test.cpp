#include "src/hdl/lexer.hpp"

#include <gtest/gtest.h>

namespace dovado::hdl {
namespace {

std::vector<Token> lex(std::string_view text, HdlLanguage lang) {
  std::vector<Diagnostic> diags;
  Lexer lexer(text, lang);
  auto tokens = lexer.tokenize(diags);
  EXPECT_TRUE(diags.empty());
  return tokens;
}

TEST(Lexer, IdentifiersAndKeywords) {
  auto t = lex("entity Foo_1 is", HdlLanguage::kVhdl);
  ASSERT_EQ(t.size(), 4u);  // 3 tokens + EOF
  EXPECT_TRUE(t[0].is_keyword("ENTITY"));
  EXPECT_EQ(t[1].text, "Foo_1");
  EXPECT_TRUE(t[2].is_keyword("is"));
  EXPECT_EQ(t[3].kind, TokenKind::kEof);
}

TEST(Lexer, VhdlCommentSkipped) {
  auto t = lex("a -- comment to end of line\nb", HdlLanguage::kVhdl);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].text, "a");
  EXPECT_EQ(t[1].text, "b");
}

TEST(Lexer, VerilogCommentsSkipped) {
  auto t = lex("a // line\n /* block\n comment */ b", HdlLanguage::kVerilog);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1].text, "b");
}

TEST(Lexer, VerilogAttributeSkipped) {
  auto t = lex("(* keep = \"true\" *) module", HdlLanguage::kVerilog);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_TRUE(t[0].is_keyword("module"));
}

TEST(Lexer, VerilogDirectiveLineSkipped) {
  auto t = lex("`timescale 1ns/1ps\nmodule", HdlLanguage::kVerilog);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_TRUE(t[0].is_keyword("module"));
}

TEST(Lexer, VhdlBasedLiteral) {
  auto t = lex("16#FF# 2#1010_0#", HdlLanguage::kVhdl);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].kind, TokenKind::kNumber);
  EXPECT_EQ(t[0].text, "16#FF#");
  EXPECT_EQ(t[1].text, "2#1010_0#");
}

TEST(Lexer, VerilogSizedLiteral) {
  auto t = lex("8'hFF 4'b1010 'd42 16'd1_000", HdlLanguage::kVerilog);
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[0].text, "8'hFF");
  EXPECT_EQ(t[1].text, "4'b1010");
  EXPECT_EQ(t[2].text, "'d42");
  EXPECT_EQ(t[3].text, "16'd1_000");
}

TEST(Lexer, VhdlCharacterLiteral) {
  auto t = lex("'0'", HdlLanguage::kVhdl);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].kind, TokenKind::kChar);
  EXPECT_EQ(t[0].text, "0");
}

TEST(Lexer, StringLiteral) {
  auto t = lex("\"TRUE\"", HdlLanguage::kVhdl);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].kind, TokenKind::kString);
  EXPECT_EQ(t[0].text, "TRUE");
}

TEST(Lexer, VhdlDoubledQuoteInString) {
  auto t = lex("\"a\"\"b\"", HdlLanguage::kVhdl);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].text, "a\"b");
}

TEST(Lexer, MultiCharPunct) {
  auto t = lex(":= => ** <= >= <<", HdlLanguage::kVhdl);
  ASSERT_EQ(t.size(), 7u);
  EXPECT_TRUE(t[0].is_punct(":="));
  EXPECT_TRUE(t[1].is_punct("=>"));
  EXPECT_TRUE(t[2].is_punct("**"));
  EXPECT_TRUE(t[3].is_punct("<="));
  EXPECT_TRUE(t[4].is_punct(">="));
  EXPECT_TRUE(t[5].is_punct("<<"));
}

TEST(Lexer, TracksLineAndColumn) {
  auto t = lex("a\n  b", HdlLanguage::kVhdl);
  EXPECT_EQ(t[0].loc.line, 1u);
  EXPECT_EQ(t[0].loc.col, 1u);
  EXPECT_EQ(t[1].loc.line, 2u);
  EXPECT_EQ(t[1].loc.col, 3u);
}

TEST(Lexer, EscapedVerilogIdentifier) {
  auto t = lex("\\weird$name ;", HdlLanguage::kVerilog);
  ASSERT_GE(t.size(), 2u);
  EXPECT_EQ(t[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(t[0].text, "weird$name");
}

TEST(Lexer, UnterminatedStringDiagnosed) {
  std::vector<Diagnostic> diags;
  Lexer lexer("\"never ends\n x", HdlLanguage::kVhdl);
  auto t = lexer.tokenize(diags);
  EXPECT_FALSE(diags.empty());
  // Lexing continues after the bad string.
  bool saw_x = false;
  for (const auto& tok : t) saw_x |= (tok.text == "x");
  EXPECT_TRUE(saw_x);
}

TEST(Lexer, EmptyInputYieldsEof) {
  auto t = lex("", HdlLanguage::kVerilog);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].kind, TokenKind::kEof);
}

TEST(TokenStream, AcceptHelpers) {
  std::vector<Diagnostic> diags;
  Lexer lexer("port ( x", HdlLanguage::kVhdl);
  const std::vector<Token> tokens = lexer.tokenize(diags);
  TokenStream ts(tokens);
  EXPECT_FALSE(ts.accept_punct("("));
  EXPECT_TRUE(ts.accept_keyword("PORT"));
  EXPECT_TRUE(ts.accept_punct("("));
  EXPECT_EQ(ts.peek().text, "x");
}

TEST(TokenStream, RewindRestoresPosition) {
  std::vector<Diagnostic> diags;
  Lexer lexer("a b c", HdlLanguage::kVhdl);
  const std::vector<Token> tokens = lexer.tokenize(diags);
  TokenStream ts(tokens);
  const auto mark = ts.position();
  ts.next();
  ts.next();
  ts.rewind(mark);
  EXPECT_EQ(ts.peek().text, "a");
}

}  // namespace
}  // namespace dovado::hdl
