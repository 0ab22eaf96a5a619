#include "src/hdl/verilog_parser.hpp"

#include <vector>

#include "src/hdl/expr.hpp"
#include "src/hdl/lexer.hpp"
#include "src/util/strings.hpp"

namespace dovado::hdl {

namespace {

void append_token_text(std::string& out, const Token& t) {
  const bool tight = t.is_punct(")") || t.is_punct(",") || t.is_punct("(");
  if (!out.empty() && !tight && out.back() != '(') out.push_back(' ');
  if (t.kind == TokenKind::kString) {
    out.push_back('"');
    out += t.text;
    out.push_back('"');
  } else {
    out += t.text;
  }
}

bool is_net_type(const Token& t) {
  return t.is_keyword("wire") || t.is_keyword("reg") || t.is_keyword("logic") ||
         t.is_keyword("bit") || t.is_keyword("tri") || t.is_keyword("wand") ||
         t.is_keyword("wor") || t.is_keyword("var");
}

bool is_param_type(const Token& t) {
  return t.is_keyword("integer") || t.is_keyword("int") || t.is_keyword("longint") ||
         t.is_keyword("shortint") || t.is_keyword("byte") || t.is_keyword("bit") ||
         t.is_keyword("logic") || t.is_keyword("real") || t.is_keyword("time") ||
         t.is_keyword("string") || t.is_keyword("unsigned") || t.is_keyword("signed");
}

class VerilogParser {
 public:
  VerilogParser(const LexedSource& lexed, HdlLanguage lang, std::string_view path)
      : lang_(lang), path_(path), diags_(lexed.diagnostics), ts_(lexed.tokens) {}

  ParseResult run() {
    ParseResult result;
    result.file.path = std::string(path_);
    result.file.language = lang_;
    while (!ts().at_eof()) {
      if (ts().peek().is_keyword("module") || ts().peek().is_keyword("macromodule")) {
        Module m;
        if (parse_module(m)) {
          compile_expressions(m);
          result.file.modules.push_back(std::move(m));
        }
      } else if (ts().peek().is_keyword("package")) {
        // SV package: record name as a use clause for parse ordering (the
        // paper: "SV packages are read at the very beginning of the step").
        ts().next();
        if (ts().peek().kind == TokenKind::kIdentifier) {
          pending_packages_.push_back(ts().next().text);
        }
        skip_until_keyword("endpackage");
      } else {
        ts().next();
      }
    }
    result.diagnostics = std::move(diags_);
    result.ok = !result.file.modules.empty();
    return result;
  }

 private:
  TokenStream& ts() { return ts_; }
  void error_here(std::string msg) { diags_.push_back({ts().peek().loc, std::move(msg)}); }

  void skip_until_keyword(std::string_view kw) {
    while (!ts().at_eof() && !ts().peek().is_keyword(kw)) ts().next();
    if (!ts().at_eof()) ts().next();
  }

  std::string collect_expr(std::initializer_list<std::string_view> stops) {
    std::string out;
    int paren = 0;
    int bracket = 0;
    int brace = 0;
    while (!ts().at_eof()) {
      const Token& t = ts().peek();
      if (paren == 0 && bracket == 0 && brace == 0 && t.kind == TokenKind::kPunct) {
        for (std::string_view s : stops) {
          if (t.text == s) return out;
        }
      }
      if (t.is_punct("(")) ++paren;
      if (t.is_punct(")")) {
        if (paren == 0) return out;
        --paren;
      }
      if (t.is_punct("[")) ++bracket;
      if (t.is_punct("]")) --bracket;
      if (t.is_punct("{")) ++brace;
      if (t.is_punct("}")) --brace;
      append_token_text(out, t);
      ts().next();
    }
    return out;
  }

  /// Parse `[ left : right ]`; returns true and fills the output when a
  /// packed range was present.
  bool parse_range(std::string& left, std::string& right) {
    if (!ts().peek().is_punct("[")) return false;
    ts().next();
    left.clear();
    right.clear();
    int depth = 0;
    std::string* target = &left;
    while (!ts().at_eof()) {
      const Token& t = ts().peek();
      if (depth == 0 && t.is_punct("]")) {
        ts().next();
        break;
      }
      if (depth == 0 && t.is_punct(":")) {
        target = &right;
        ts().next();
        continue;
      }
      if (t.is_punct("[") || t.is_punct("(")) ++depth;
      if (t.is_punct("]") || t.is_punct(")")) --depth;
      append_token_text(*target, t);
      ts().next();
    }
    return true;
  }

  /// One parameter declaration after the `parameter`/`localparam` keyword:
  /// [type] [range] name = expr {, name = expr}. Appends to m.parameters.
  /// `stops` are the expression terminators of the surrounding context.
  void parse_param_tail(Module& m, bool is_local,
                        std::initializer_list<std::string_view> stops) {
    // Optional type keywords (possibly two: "int unsigned").
    while (is_param_type(ts().peek())) {
      if (param_type_.empty()) param_type_ = util::to_lower(ts().peek().text);
      ts().next();
    }
    std::string range_l;
    std::string range_r;
    (void)parse_range(range_l, range_r);  // packed range of the parameter itself

    while (ts().peek().kind == TokenKind::kIdentifier) {
      Parameter p;
      p.loc = ts().peek().loc;
      p.name = ts().next().text;
      p.type_name = param_type_;
      p.is_local = is_local;
      p.range_left_expr = range_l;
      p.range_right_expr = range_r;
      // Unpacked dimension on the name (rare for params) — skip.
      std::string ul;
      std::string ur;
      (void)parse_range(ul, ur);
      if (ts().accept_punct("=")) p.default_expr = collect_expr(stops);
      m.parameters.push_back(std::move(p));
      if (!ts().accept_punct(",")) break;
      // A following `parameter` keyword restarts a declaration (ANSI lists
      // allow `parameter A = 1, parameter B = 2`).
      if (ts().peek().is_keyword("parameter") || ts().peek().is_keyword("localparam")) break;
    }
    param_type_.clear();
  }

  /// ANSI parameter port list: #( parameter ... , localparam ... ).
  void parse_param_port_list(Module& m) {
    ts().next();  // '#'
    if (!ts().accept_punct("(")) {
      error_here("expected '(' after '#'");
      return;
    }
    while (!ts().at_eof() && !ts().peek().is_punct(")")) {
      bool is_local = false;
      if (ts().accept_keyword("localparam")) is_local = true;
      else ts().accept_keyword("parameter");
      const std::size_t before = ts().position();
      parse_param_tail(m, is_local, {",", ")"});
      // parse_param_tail already swallows the ',' preceding a new
      // parameter/localparam keyword; consume it here otherwise.
      ts().accept_punct(",");
      if (ts().position() == before) ts().next();  // guarantee progress
    }
    ts().accept_punct(")");
  }

  /// ANSI port list entry or non-ANSI simple name list.
  void parse_port_list(Module& m) {
    ts().next();  // '('
    PortDir current_dir = PortDir::kIn;
    bool have_dir = false;
    bool current_vec = false;
    bool current_multi = false;
    std::string cur_left;
    std::string cur_right;
    std::string current_type;

    while (!ts().at_eof() && !ts().peek().is_punct(")")) {
      const Token& t = ts().peek();
      if (t.is_keyword("input") || t.is_keyword("output") || t.is_keyword("inout")) {
        current_dir = t.is_keyword("input")
                          ? PortDir::kIn
                          : (t.is_keyword("output") ? PortDir::kOut : PortDir::kInout);
        have_dir = true;
        current_vec = false;
        cur_left.clear();
        cur_right.clear();
        current_type.clear();
        ts().next();
        while (is_net_type(ts().peek()) || ts().peek().is_keyword("signed") ||
               ts().peek().is_keyword("unsigned")) {
          if (current_type.empty() && is_net_type(ts().peek())) {
            current_type = util::to_lower(ts().peek().text);
          }
          ts().next();
        }
        current_vec = parse_range(cur_left, cur_right);
        // Multidimensional packed arrays (`[A-1:0][B-1:0]`): keep the
        // outermost range, consume the rest.
        current_multi = false;
        while (ts().peek().is_punct("[")) {
          std::string l2;
          std::string r2;
          (void)parse_range(l2, r2);
          current_multi = true;
        }
        continue;
      }
      if (t.kind == TokenKind::kIdentifier) {
        if (!have_dir) {
          // Non-ANSI header: just names; directions resolved from the body.
          nonansi_order_.push_back(t.text);
          ts().next();
          // Swallow an optional unpacked range.
          std::string l;
          std::string r;
          (void)parse_range(l, r);
          ts().accept_punct(",");
          continue;
        }
        Port p;
        p.loc = t.loc;
        p.name = ts().next().text;
        p.dir = current_dir;
        p.type_name = current_type.empty() ? "wire" : current_type;
        p.is_vector = current_vec;
        p.left_expr = cur_left;
        p.right_expr = cur_right;
        p.multi_packed = current_multi;
        m.ports.push_back(std::move(p));
        // Default value on a port (SV): skip.
        if (ts().accept_punct("=")) (void)collect_expr({",", ")"});
        // Unpacked dimensions: skip.
        while (ts().peek().is_punct("[")) {
          std::string l;
          std::string r;
          (void)parse_range(l, r);
        }
        ts().accept_punct(",");
        continue;
      }
      ts().next();  // anything else (interface ports etc.)
    }
    ts().accept_punct(")");
  }

  /// Body-level `input|output|inout [net] [range] name {, name};` for
  /// non-ANSI modules, updating the ports declared in the header order.
  void parse_body_port_decl(Module& m) {
    const Token& kw = ts().next();
    const PortDir dir = kw.is_keyword("input")
                            ? PortDir::kIn
                            : (kw.is_keyword("output") ? PortDir::kOut : PortDir::kInout);
    std::string type_name;
    while (is_net_type(ts().peek()) || ts().peek().is_keyword("signed") ||
           ts().peek().is_keyword("unsigned")) {
      if (type_name.empty() && is_net_type(ts().peek()))
        type_name = util::to_lower(ts().peek().text);
      ts().next();
    }
    std::string left;
    std::string right;
    const bool is_vec = parse_range(left, right);
    while (ts().peek().kind == TokenKind::kIdentifier) {
      Port p;
      p.loc = ts().peek().loc;
      p.name = ts().next().text;
      p.dir = dir;
      p.type_name = type_name.empty() ? "wire" : type_name;
      p.is_vector = is_vec;
      p.left_expr = left;
      p.right_expr = right;
      m.ports.push_back(std::move(p));
      if (!ts().accept_punct(",")) break;
    }
    ts().accept_punct(";");
  }

  bool parse_module(Module& m) {
    ts().next();  // 'module'
    m.language = lang_;
    if (ts().peek().kind != TokenKind::kIdentifier) {
      error_here("expected module name");
      return false;
    }
    m.name = ts().next().text;
    m.use_clauses = pending_packages_;
    nonansi_order_.clear();

    // Package import list: import pkg::*;
    while (ts().peek().is_keyword("import")) {
      ts().next();
      std::string import_text = collect_expr({";"});
      ts().accept_punct(";");
      m.use_clauses.push_back(import_text);
    }
    if (ts().peek().is_punct("#")) parse_param_port_list(m);
    if (ts().peek().is_punct("(")) parse_port_list(m);
    if (!ts().accept_punct(";")) {
      error_here("expected ';' after module header");
    }

    // Body scan: pick up non-ANSI declarations; skip nested scopes that may
    // declare function arguments with input/output keywords.
    while (!ts().at_eof()) {
      const Token& t = ts().peek();
      if (t.is_keyword("endmodule")) {
        ts().next();
        break;
      }
      if (t.is_keyword("function")) {
        skip_until_keyword("endfunction");
        continue;
      }
      if (t.is_keyword("task")) {
        skip_until_keyword("endtask");
        continue;
      }
      if (t.is_keyword("parameter") || t.is_keyword("localparam")) {
        const bool is_local = t.is_keyword("localparam");
        ts().next();
        parse_param_tail(m, is_local, {";", ","});
        ts().accept_punct(";");
        continue;
      }
      if (t.is_keyword("input") || t.is_keyword("output") || t.is_keyword("inout")) {
        parse_body_port_decl(m);
        continue;
      }
      ts().next();
    }
    return true;
  }

  HdlLanguage lang_;
  std::string_view path_;
  std::vector<Diagnostic> diags_;
  TokenStream ts_;
  std::vector<std::string> pending_packages_;
  std::vector<std::string> nonansi_order_;
  std::string param_type_;
};

}  // namespace

ParseResult parse_verilog(const LexedSource& lexed, HdlLanguage lang, std::string_view path) {
  return VerilogParser(lexed, lang, path).run();
}

ParseResult parse_verilog(std::string_view text, HdlLanguage lang, std::string_view path) {
  return parse_verilog(lex_source(text, lang), lang, path);
}

}  // namespace dovado::hdl
