#include "src/hdl/structure.hpp"

#include <string_view>
#include <unordered_set>

#include "src/hdl/lexer.hpp"

namespace dovado::hdl {

namespace {

/// Verilog/SV words that can never be net names. Identifiers matching one
/// of these are skipped by the read/drive classification.
const std::unordered_set<std::string_view>& keyword_set() {
  static const std::unordered_set<std::string_view> kKeywords = {
      "module", "endmodule", "macromodule", "input", "output", "inout", "wire",
      "reg", "logic", "bit", "tri", "tri0", "tri1", "wand", "wor", "var",
      "signed", "unsigned", "assign", "deassign", "always", "always_ff",
      "always_comb", "always_latch", "initial", "final", "begin", "end", "if",
      "else", "case", "casez", "casex", "endcase", "default", "for", "while",
      "repeat", "forever", "posedge", "negedge", "edge", "or", "and", "not",
      "xor", "nand", "nor", "xnor", "buf", "generate", "endgenerate", "genvar",
      "localparam", "parameter", "specparam", "integer", "real", "realtime",
      "time", "function", "endfunction", "task", "endtask", "return",
      "typedef", "enum", "struct", "union", "packed", "byte", "int",
      "shortint", "longint", "shortreal", "string", "void", "const", "static",
      "automatic", "unique", "unique0", "priority", "wait", "fork", "join",
      "join_any", "join_none", "disable", "force", "release", "supply0",
      "supply1", "event", "import", "export", "defparam", "inside", "iff",
      "do", "break", "continue", "assert", "assume", "cover", "property",
      "endproperty", "sequence", "endsequence", "specify", "endspecify",
  };
  return kKeywords;
}

bool is_kw(const Token& t) {
  return t.kind == TokenKind::kIdentifier && keyword_set().count(t.text) > 0;
}

bool is_name(const Token& t) { return t.kind == TokenKind::kIdentifier && !is_kw(t); }

/// The scanner proper: a linear, paren-depth-aware walk over the body
/// tokens of one module.
class Scanner {
 public:
  Scanner(std::span<const Token> tokens, std::size_t begin, std::size_t end,
          ModuleStructure& out)
      : toks_(tokens), i_(begin), end_(end), out_(out) {}

  void run() {
    while (i_ < end_) {
      const Token& t = toks_[i_];
      if (t.kind == TokenKind::kEof) break;
      if (t.is_punct("(")) { ++depth_; ++i_; continue; }
      if (t.is_punct(")")) { if (depth_ > 0) --depth_; ++i_; continue; }

      const bool keyword = is_kw(t);
      if (keyword) {
        const std::string& kw = t.text;
        if (kw == "function" || kw == "task") { skip_region(kw == "function" ? "endfunction" : "endtask"); continue; }
        if (kw == "parameter" || kw == "localparam" || kw == "specparam" ||
            kw == "integer" || kw == "genvar" || kw == "real" || kw == "realtime" ||
            kw == "time" || kw == "event" || kw == "typedef" || kw == "import" ||
            kw == "defparam") { skip_to_semicolon(); continue; }
        if (kw == "input" || kw == "output" || kw == "inout" || kw == "wire" ||
            kw == "reg" || kw == "logic" || kw == "bit" || kw == "tri" ||
            kw == "tri0" || kw == "tri1" || kw == "wand" || kw == "wor" ||
            kw == "var") { parse_decl(); continue; }
        if (kw == "assign") { parse_assign(); continue; }
        // always/initial event controls, if/case/for headers: the main loop's
        // paren tracking classifies their contents as reads.
        ++i_;
        continue;
      }

      if (t.kind == TokenKind::kIdentifier) {  // a name: keywords were handled above
        if (depth_ == 0) {
          if (try_instance()) continue;
          if (try_proc_driver()) continue;
        }
        mark_read(t.text);
        ++i_;
        continue;
      }
      ++i_;
    }
  }

 private:
  NetInfo& net(const std::string& name) {
    NetInfo& n = out_.nets[name];
    if (n.name.empty()) n.name = name;
    return n;
  }

  void mark_read(const std::string& name) { net(name).read = true; }

  void skip_to_semicolon() {
    while (i_ < end_ && !toks_[i_].is_punct(";")) ++i_;
    if (i_ < end_) ++i_;
  }

  void skip_region(std::string_view end_kw) {
    while (i_ < end_ && !toks_[i_].is_keyword(end_kw)) ++i_;
    if (i_ < end_) ++i_;
  }

  /// Skip a balanced punct pair starting at i_ (which must be `open`).
  /// Identifiers inside are marked as reads.
  void skip_balanced(std::string_view open, std::string_view close, bool mark_reads) {
    int depth = 0;
    while (i_ < end_) {
      const Token& t = toks_[i_];
      if (t.is_punct(open)) ++depth;
      else if (t.is_punct(close)) {
        --depth;
        if (depth == 0) { ++i_; return; }
      } else if (mark_reads && is_name(t)) {
        mark_read(t.text);
      }
      ++i_;
    }
  }

  /// Collect the source text of a packed range `[l:r]` at i_. Returns true
  /// and fills l/r when the range has exactly one top-level ':'.
  bool capture_range(std::string& left, std::string& right) {
    // i_ at '['.
    std::size_t j = i_ + 1;
    int brackets = 1;
    int parens = 0;
    std::string* side = &left;
    bool split = false;
    bool ok = true;
    while (j < end_ && brackets > 0) {
      const Token& t = toks_[j];
      if (t.is_punct("[")) ++brackets;
      else if (t.is_punct("]")) { --brackets; if (brackets == 0) break; }
      else if (t.is_punct("(")) ++parens;
      else if (t.is_punct(")")) --parens;
      if (brackets == 1 && parens == 0 && t.is_punct(":")) {
        if (split) ok = false;  // second top-level ':' — not a simple range
        split = true;
        side = &right;
        ++j;
        continue;
      }
      if (brackets > 0) {
        if (!side->empty()) *side += " ";
        *side += t.text;
        if (is_name(t)) mark_read(t.text);
      }
      ++j;
    }
    i_ = j < end_ ? j + 1 : j;  // past ']'
    return ok && split && !left.empty() && !right.empty();
  }

  void parse_decl() {
    // i_ at a direction or net-type keyword.
    bool variable_type = false;  // reg/logic/bit/var: initializer, not driver
    while (i_ < end_ && toks_[i_].kind == TokenKind::kIdentifier && is_kw(toks_[i_])) {
      const std::string& kw = toks_[i_].text;
      if (kw != "input" && kw != "output" && kw != "inout" && kw != "wire" &&
          kw != "reg" && kw != "logic" && kw != "bit" && kw != "tri" &&
          kw != "tri0" && kw != "tri1" && kw != "wand" && kw != "wor" &&
          kw != "var" && kw != "signed" && kw != "unsigned") {
        break;
      }
      if (kw == "reg" || kw == "logic" || kw == "bit" || kw == "var") {
        variable_type = true;
      }
      ++i_;
    }
    std::string left;
    std::string right;
    bool vec = false;
    bool multi_packed = false;
    while (i_ < end_ && toks_[i_].is_punct("[")) {
      if (!vec) {
        vec = capture_range(left, right);
      } else {
        multi_packed = true;  // multidimensional packed: width rules skip it
        std::string l2;
        std::string r2;
        (void)capture_range(l2, r2);
      }
    }
    // Name list.
    while (i_ < end_) {
      if (!is_name(toks_[i_])) { skip_to_semicolon(); return; }
      NetInfo& n = net(toks_[i_].text);
      n.declared = true;
      n.loc = toks_[i_].loc;
      if (vec) {
        n.is_vector = true;
        n.left_expr = left;
        n.right_expr = right;
      }
      if (multi_packed) n.is_array = true;
      ++i_;
      while (i_ < end_ && toks_[i_].is_punct("[")) {  // unpacked dimensions
        n.is_array = true;
        skip_balanced("[", "]", /*mark_reads=*/true);
      }
      if (i_ < end_ && toks_[i_].is_punct("=")) {
        ++i_;
        if (variable_type) {
          // `reg x = 0;` is an initial value, not a driver: skip the
          // expression without charging anyone.
          ContAssign ignored;
          collect_rhs(ignored, {",", ";"});
        } else {
          // Declaration assignment: `wire x = expr;` drives the whole net.
          ContAssign assign;
          assign.lhs = n.name;
          assign.whole = true;
          assign.loc = n.loc;
          collect_rhs(assign, {",", ";"});
          n.whole_cont_drivers += 1;
          out_.assigns.push_back(std::move(assign));
        }
      }
      if (i_ < end_ && toks_[i_].is_punct(",")) { ++i_; continue; }
      skip_to_semicolon();
      return;
    }
  }

  /// Collect RHS identifiers until one of `stops` at depth 0; leaves i_ on
  /// the stop token.
  void collect_rhs(ContAssign& assign, std::initializer_list<std::string_view> stops) {
    int parens = 0;
    int brackets = 0;
    int braces = 0;
    std::size_t tokens_seen = 0;
    std::size_t idents_seen = 0;
    while (i_ < end_) {
      const Token& t = toks_[i_];
      if (parens == 0 && brackets == 0 && braces == 0) {
        bool stop = false;
        for (std::string_view s : stops) {
          if (t.is_punct(s)) { stop = true; break; }
        }
        if (stop) break;
      }
      if (t.is_punct("(")) ++parens;
      else if (t.is_punct(")")) --parens;
      else if (t.is_punct("[")) ++brackets;
      else if (t.is_punct("]")) --brackets;
      else if (t.is_punct("{")) ++braces;
      else if (t.is_punct("}")) --braces;
      if (is_name(t)) {
        assign.rhs.push_back(t.text);
        mark_read(t.text);
        ++idents_seen;
      }
      ++tokens_seen;
      ++i_;
    }
    assign.rhs_single_ident = tokens_seen == 1 && idents_seen == 1;
  }

  void parse_assign() {
    ++i_;  // 'assign'
    if (i_ < end_ && toks_[i_].is_punct("#")) {  // delay control
      ++i_;
      if (i_ < end_ && toks_[i_].is_punct("(")) skip_balanced("(", ")", true);
      else if (i_ < end_) ++i_;
    }
    if (i_ < end_ && toks_[i_].is_punct("(")) {  // drive strength
      skip_balanced("(", ")", false);
    }
    for (;;) {
      if (i_ >= end_) return;
      if (toks_[i_].is_punct("{")) {
        // Concatenation target: each member is a partial driver.
        std::size_t j = i_;
        int braces = 0;
        while (j < end_) {
          const Token& t = toks_[j];
          if (t.is_punct("{")) ++braces;
          else if (t.is_punct("}")) { --braces; if (braces == 0) break; }
          else if (is_name(t)) net(t.text).slice_cont_drivers += 1;
          ++j;
        }
        i_ = j < end_ ? j + 1 : j;
        if (i_ < end_ && toks_[i_].is_punct("=")) {
          ++i_;
          ContAssign sink;  // reads only; concat LHS adds no loop edges
          collect_rhs(sink, {",", ";"});
        }
      } else if (is_name(toks_[i_])) {
        ContAssign assign;
        assign.lhs = toks_[i_].text;
        assign.loc = toks_[i_].loc;
        ++i_;
        while (i_ < end_ && toks_[i_].is_punct("[")) {
          assign.whole = false;
          skip_balanced("[", "]", true);
        }
        if (i_ >= end_ || !toks_[i_].is_punct("=")) { skip_to_semicolon(); return; }
        ++i_;
        collect_rhs(assign, {",", ";"});
        NetInfo& n = net(assign.lhs);
        if (assign.whole) n.whole_cont_drivers += 1;
        else n.slice_cont_drivers += 1;
        out_.assigns.push_back(std::move(assign));
      } else {
        skip_to_semicolon();
        return;
      }
      if (i_ < end_ && toks_[i_].is_punct(",")) { ++i_; continue; }
      skip_to_semicolon();
      return;
    }
  }

  /// Instantiation: `Type [#(...)] instance_name ( ... ) ;` at depth 0.
  /// Every net inside the port list might be driven and read by the child,
  /// so connection marks both (the scanner cannot see child directions).
  bool try_instance() {
    std::size_t j = i_ + 1;
    if (j < end_ && toks_[j].is_punct("#")) {
      ++j;
      if (j >= end_ || !toks_[j].is_punct("(")) return false;
      int depth = 0;
      while (j < end_) {
        if (toks_[j].is_punct("(")) ++depth;
        else if (toks_[j].is_punct(")")) { --depth; if (depth == 0) { ++j; break; } }
        ++j;
      }
    }
    if (j >= end_ || !is_name(toks_[j])) return false;
    ++j;
    while (j < end_ && toks_[j].is_punct("[")) {  // instance arrays
      int depth = 0;
      while (j < end_) {
        if (toks_[j].is_punct("[")) ++depth;
        else if (toks_[j].is_punct("]")) { --depth; if (depth == 0) { ++j; break; } }
        ++j;
      }
    }
    if (j >= end_ || !toks_[j].is_punct("(")) return false;
    // Confirmed instantiation; mark connected nets (skipping `.formal`
    // names) and advance past `;`.
    i_ = j;
    int depth = 0;
    bool after_dot = false;
    while (i_ < end_) {
      const Token& t = toks_[i_];
      if (t.is_punct("(")) ++depth;
      else if (t.is_punct(")")) { --depth; if (depth == 0) { ++i_; break; } }
      else if (t.is_punct(".")) { after_dot = true; ++i_; continue; }
      else if (is_name(t)) {
        if (!after_dot) {
          NetInfo& n = net(t.text);
          n.instance_connected = true;
          n.read = true;
        }
      }
      after_dot = false;
      ++i_;
    }
    if (i_ < end_ && toks_[i_].is_punct(";")) ++i_;
    return true;
  }

  /// Procedural drive target: `name [sel]... =` or `<=` at depth 0. The
  /// rest of the statement (to `;`) is reads.
  bool try_proc_driver() {
    std::size_t j = i_ + 1;
    bool whole = true;
    while (j < end_ && toks_[j].is_punct("[")) {
      whole = false;
      int depth = 0;
      while (j < end_) {
        if (toks_[j].is_punct("[")) ++depth;
        else if (toks_[j].is_punct("]")) { --depth; if (depth == 0) { ++j; break; } }
        ++j;
      }
    }
    if (j >= end_ || !(toks_[j].is_punct("=") || toks_[j].is_punct("<="))) return false;
    NetInfo& n = net(toks_[i_].text);
    if (whole) n.whole_proc_drivers += 1;
    else n.slice_proc_drivers += 1;
    if (!whole) {
      // Selected target: the index expressions are reads.
      std::size_t k = i_ + 1;
      int depth = 0;
      while (k < j) {
        if (is_name(toks_[k]) && depth > 0) mark_read(toks_[k].text);
        if (toks_[k].is_punct("[")) ++depth;
        else if (toks_[k].is_punct("]")) --depth;
        ++k;
      }
    }
    i_ = j + 1;
    // Consume the right-hand side, marking reads (any depth).
    while (i_ < end_ && !toks_[i_].is_punct(";")) {
      if (is_name(toks_[i_])) mark_read(toks_[i_].text);
      ++i_;
    }
    if (i_ < end_) ++i_;
    return true;
  }

  std::span<const Token> toks_;
  std::size_t i_;
  std::size_t end_;
  int depth_ = 0;  ///< paren depth in the main loop
  ModuleStructure& out_;
};

}  // namespace

ModuleStructure scan_structure(std::span<const Token> tokens, HdlLanguage language,
                               const std::string& module_name) {
  ModuleStructure out;
  if (language == HdlLanguage::kVhdl) return out;

  // Locate `module <name>`.
  std::size_t i = 0;
  bool found = false;
  for (; i + 1 < tokens.size(); ++i) {
    if (tokens[i].is_keyword("module") && tokens[i + 1].kind == TokenKind::kIdentifier &&
        tokens[i + 1].text == module_name) {
      i += 2;
      found = true;
      break;
    }
  }
  if (!found) return out;

  // Skip the header (parameter ports + port list) to the first top-level ';'.
  int depth = 0;
  while (i < tokens.size() && tokens[i].kind != TokenKind::kEof) {
    if (tokens[i].is_punct("(")) ++depth;
    else if (tokens[i].is_punct(")")) --depth;
    else if (tokens[i].is_punct(";") && depth == 0) { ++i; break; }
    ++i;
  }

  // Body extent: up to the matching endmodule (modules do not nest).
  std::size_t end = i;
  while (end < tokens.size() && !tokens[end].is_keyword("endmodule") &&
         tokens[end].kind != TokenKind::kEof) {
    ++end;
  }

  out.found = true;
  Scanner scanner(tokens, i, end, out);
  scanner.run();
  return out;
}

}  // namespace dovado::hdl
