#include "src/hdl/vhdl_parser.hpp"

#include <vector>

#include "src/hdl/expr.hpp"
#include "src/hdl/lexer.hpp"
#include "src/util/strings.hpp"

namespace dovado::hdl {

namespace {

/// Join token texts into readable expression source. Parens/commas attach
/// without a leading space so "f(a, b)" round-trips sensibly.
void append_token_text(std::string& out, const Token& t) {
  const bool tight =
      t.is_punct(")") || t.is_punct(",") || t.is_punct("(") || t.is_punct("#");
  if (!out.empty() && !tight && out.back() != '(') out.push_back(' ');
  if (t.kind == TokenKind::kString) {
    out.push_back('"');
    out += t.text;
    out.push_back('"');
  } else if (t.kind == TokenKind::kChar) {
    out.push_back('\'');
    out += t.text;
    out.push_back('\'');
  } else {
    out += t.text;
  }
}

class VhdlParser {
 public:
  VhdlParser(const LexedSource& lexed, std::string_view path)
      : path_(path), diags_(lexed.diagnostics), ts_(lexed.tokens) {}

  ParseResult run() {
    ParseResult result;
    result.file.path = std::string(path_);
    result.file.language = HdlLanguage::kVhdl;

    while (!ts().at_eof()) {
      const Token& t = ts().peek();
      if (t.is_keyword("library")) {
        parse_library_clause();
      } else if (t.is_keyword("use")) {
        parse_use_clause();
      } else if (t.is_keyword("context")) {
        skip_statement();
      } else if (t.is_keyword("entity")) {
        Module m;
        if (parse_entity(m)) {
          m.libraries = pending_libraries_;
          m.use_clauses = pending_uses_;
          compile_expressions(m);
          result.file.modules.push_back(std::move(m));
        }
      } else if (t.is_keyword("architecture")) {
        parse_architecture(result.file);
      } else if (t.is_keyword("package") || t.is_keyword("configuration")) {
        skip_design_unit();
      } else {
        ts().next();  // stray token; resynchronize
      }
    }

    result.diagnostics = std::move(diags_);
    result.ok = !result.file.modules.empty();
    return result;
  }

 private:
  TokenStream& ts() { return ts_; }

  void error_here(std::string msg) { diags_.push_back({ts().peek().loc, std::move(msg)}); }

  /// Skip to and over the next ';'.
  void skip_statement() {
    while (!ts().at_eof() && !ts().peek().is_punct(";")) ts().next();
    ts().accept_punct(";");
  }

  /// Skip a design unit delimited by "... end ... ;" with nesting awareness
  /// for the constructs that can appear in package bodies.
  void skip_design_unit() {
    int depth = 0;
    while (!ts().at_eof()) {
      const Token& t = ts().next();
      if (t.is_keyword("is")) {
        ++depth;
      } else if (t.is_keyword("end")) {
        // consume optional repeated keyword / name up to ';'
        while (!ts().at_eof() && !ts().peek().is_punct(";")) ts().next();
        ts().accept_punct(";");
        if (--depth <= 0) return;
      }
    }
  }

  void parse_library_clause() {
    ts().next();  // 'library'
    while (ts().peek().kind == TokenKind::kIdentifier) {
      pending_libraries_.push_back(util::to_lower(ts().next().text));
      if (!ts().accept_punct(",")) break;
    }
    if (!ts().accept_punct(";")) {
      error_here("expected ';' after library clause");
      skip_statement();
    }
  }

  void parse_use_clause() {
    ts().next();  // 'use'
    std::string clause;
    while (!ts().at_eof() && !ts().peek().is_punct(";")) {
      const Token& t = ts().next();
      if (t.is_punct(".")) {
        clause.push_back('.');
      } else {
        clause += util::to_lower(t.text);
      }
    }
    ts().accept_punct(";");
    if (!clause.empty()) pending_uses_.push_back(clause);
  }

  /// Collect expression text until one of the stop punctuation marks at
  /// paren depth zero.
  std::string collect_expr(std::initializer_list<std::string_view> stops) {
    std::string out;
    int depth = 0;
    while (!ts().at_eof()) {
      const Token& t = ts().peek();
      if (depth == 0 && t.kind == TokenKind::kPunct) {
        for (std::string_view s : stops) {
          if (t.text == s) return out;
        }
      }
      if (t.is_punct("(")) ++depth;
      if (t.is_punct(")")) {
        if (depth == 0) return out;
        --depth;
      }
      append_token_text(out, t);
      ts().next();
    }
    return out;
  }

  /// Parse `name [ '(' constraint ')' ]` and fill type/range info of ports.
  /// Returns the bare type name.
  std::string parse_subtype(Port* port) {
    std::string type_name;
    // Selected names: ieee.numeric_std.unsigned -> keep last component.
    while (ts().peek().kind == TokenKind::kIdentifier) {
      type_name = util::to_lower(ts().next().text);
      if (!ts().accept_punct(".")) break;
    }
    // `integer range 0 to 7` — consume and ignore the range constraint.
    if (ts().peek().is_keyword("range")) {
      ts().next();
      (void)collect_expr({";", ")", ":="});
      return type_name;
    }
    if (ts().peek().is_punct("(")) {
      ts().next();
      // Vector constraint: expr (downto|to) expr  {"," ...}.
      std::string left;
      int depth = 0;
      bool downto = true;
      bool saw_dir = false;
      std::string right;
      std::string* target = &left;
      while (!ts().at_eof()) {
        const Token& t = ts().peek();
        if (depth == 0 && (t.is_punct(")") || t.is_punct(","))) break;
        if (t.is_punct("(")) ++depth;
        if (t.is_punct(")")) --depth;
        if (depth == 0 && (t.is_keyword("downto") || t.is_keyword("to"))) {
          downto = t.is_keyword("downto");
          saw_dir = true;
          target = &right;
          ts().next();
          continue;
        }
        append_token_text(*target, t);
        ts().next();
      }
      // Further dimensions are skipped (first range wins).
      int extra_depth = 0;
      while (!ts().at_eof()) {
        const Token& t = ts().peek();
        if (extra_depth == 0 && t.is_punct(")")) break;
        if (t.is_punct("(")) ++extra_depth;
        if (t.is_punct(")")) --extra_depth;
        ts().next();
      }
      ts().accept_punct(")");
      if (port != nullptr && saw_dir) {
        port->is_vector = true;
        port->left_expr = left;
        port->right_expr = right;
        port->downto = downto;
      }
    }
    return type_name;
  }

  /// generic ( decl ; decl ; ... ) ;
  void parse_generic_clause(Module& m) {
    ts().next();  // 'generic'
    if (!ts().accept_punct("(")) {
      error_here("expected '(' after generic");
      skip_statement();
      return;
    }
    while (!ts().at_eof() && !ts().peek().is_punct(")")) {
      // Group of identifiers: a, b, c : type := default
      std::vector<Parameter> group;
      // VHDL-2008 interface may start with 'constant' or 'type'.
      ts().accept_keyword("constant");
      while (ts().peek().kind == TokenKind::kIdentifier) {
        Parameter p;
        p.loc = ts().peek().loc;
        p.name = ts().next().text;
        group.push_back(std::move(p));
        if (!ts().accept_punct(",")) break;
      }
      if (!ts().accept_punct(":")) {
        error_here("expected ':' in generic declaration");
        // resync at next ';' or ')'
        (void)collect_expr({";"});
        ts().accept_punct(";");
        continue;
      }
      const std::string type_name = parse_subtype(nullptr);
      std::string default_expr;
      if (ts().accept_punct(":=")) default_expr = collect_expr({";"});
      for (auto& p : group) {
        p.type_name = type_name;
        p.default_expr = default_expr;
        m.parameters.push_back(std::move(p));
      }
      if (!ts().accept_punct(";")) break;
    }
    ts().accept_punct(")");
    ts().accept_punct(";");
  }

  /// port ( decl ; decl ; ... ) ;
  void parse_port_clause(Module& m) {
    ts().next();  // 'port'
    if (!ts().accept_punct("(")) {
      error_here("expected '(' after port");
      skip_statement();
      return;
    }
    while (!ts().at_eof() && !ts().peek().is_punct(")")) {
      std::vector<Port> group;
      ts().accept_keyword("signal");
      while (ts().peek().kind == TokenKind::kIdentifier) {
        Port p;
        p.loc = ts().peek().loc;
        p.name = ts().next().text;
        group.push_back(std::move(p));
        if (!ts().accept_punct(",")) break;
      }
      if (!ts().accept_punct(":")) {
        error_here("expected ':' in port declaration");
        (void)collect_expr({";"});
        ts().accept_punct(";");
        continue;
      }
      PortDir dir = PortDir::kIn;  // VHDL default mode is `in`
      if (ts().accept_keyword("in")) dir = PortDir::kIn;
      else if (ts().accept_keyword("out")) dir = PortDir::kOut;
      else if (ts().accept_keyword("inout")) dir = PortDir::kInout;
      else if (ts().accept_keyword("buffer")) dir = PortDir::kOut;
      else if (ts().accept_keyword("linkage")) dir = PortDir::kInout;

      Port proto;
      const std::string type_name = parse_subtype(&proto);
      if (ts().accept_punct(":=")) (void)collect_expr({";"});  // port default: ignored

      for (auto& p : group) {
        p.dir = dir;
        p.type_name = type_name;
        p.is_vector = proto.is_vector;
        p.left_expr = proto.left_expr;
        p.right_expr = proto.right_expr;
        p.downto = proto.downto;
        m.ports.push_back(std::move(p));
      }
      if (!ts().accept_punct(";")) break;
    }
    ts().accept_punct(")");
    ts().accept_punct(";");
  }

  bool parse_entity(Module& m) {
    ts().next();  // 'entity'
    if (ts().peek().kind != TokenKind::kIdentifier) {
      error_here("expected entity name");
      skip_statement();
      return false;
    }
    m.language = HdlLanguage::kVhdl;
    m.name = ts().next().text;
    if (!ts().accept_keyword("is")) {
      // 'entity work.foo' in instantiations — not a declaration; bail.
      skip_statement();
      return false;
    }
    while (!ts().at_eof()) {
      const Token& t = ts().peek();
      if (t.is_keyword("generic")) {
        parse_generic_clause(m);
      } else if (t.is_keyword("port")) {
        parse_port_clause(m);
      } else if (t.is_keyword("end")) {
        ts().next();
        ts().accept_keyword("entity");
        if (ts().peek().kind == TokenKind::kIdentifier) ts().next();  // repeated name
        ts().accept_punct(";");
        return true;
      } else if (t.is_keyword("begin")) {
        // Entity statement part — skip until matching 'end'.
        ts().next();
        while (!ts().at_eof() && !ts().peek().is_keyword("end")) ts().next();
      } else {
        ts().next();  // entity declarative items (attributes etc.)
      }
    }
    error_here("unterminated entity '" + m.name + "'");
    return !m.name.empty();
  }

  /// architecture <name> of <entity> is ... end ... ; — record name, skip body.
  void parse_architecture(DesignFile& file) {
    ts().next();  // 'architecture'
    std::string arch_name;
    std::string entity_name;
    if (ts().peek().kind == TokenKind::kIdentifier) arch_name = ts().next().text;
    if (ts().accept_keyword("of") && ts().peek().kind == TokenKind::kIdentifier) {
      entity_name = ts().next().text;
    }
    // Skip to matching end: count is/end pairs from process/function/etc.
    int depth = 0;
    bool saw_is = false;
    while (!ts().at_eof()) {
      const Token& t = ts().next();
      if (t.is_keyword("is")) {
        saw_is = true;
        ++depth;
      } else if (t.is_keyword("process") || t.is_keyword("generate") ||
                 t.is_keyword("case")) {
        // These close with their own 'end'; they don't always carry 'is'.
        ++depth;
      } else if (t.is_keyword("end")) {
        while (!ts().at_eof() && !ts().peek().is_punct(";")) ts().next();
        ts().accept_punct(";");
        if (--depth <= 0) break;
      }
    }
    (void)saw_is;
    if (!entity_name.empty()) {
      for (auto& m : file.modules) {
        if (util::iequals(m.name, entity_name)) {
          m.architectures.push_back(arch_name);
          return;
        }
      }
    }
  }

  std::string_view path_;
  std::vector<Diagnostic> diags_;
  TokenStream ts_;
  std::vector<std::string> pending_libraries_;
  std::vector<std::string> pending_uses_;
};

}  // namespace

ParseResult parse_vhdl(const LexedSource& lexed, std::string_view path) {
  return VhdlParser(lexed, path).run();
}

ParseResult parse_vhdl(std::string_view text, std::string_view path) {
  return parse_vhdl(lex_source(text, HdlLanguage::kVhdl), path);
}

}  // namespace dovado::hdl
