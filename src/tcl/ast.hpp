// The one parser of the TCL subset Dovado emits (see interp.hpp).
//
// parse_script turns script text into commands, words and word parts. The
// interpreter executes that tree (compiling each distinct text once, see
// Interp) and the TCL lint analyzer (src/analysis/tcl_lint) reads the same
// tree, so the two cannot disagree on where a word or a substitution ends.
//
// Word rules: words are separated by spaces, tabs and carriage returns and
// commands by newlines and semicolons; `#` at command position starts a
// comment; backslash-newline continues a line. A braced word is literal
// (braces nest, backslash-newline becomes a space). A bare or quoted word is
// split into parts: literal text with backslash escapes decoded, `$name` /
// `${name}` variable references, and `[...]` command substitutions. A
// bracket ends at the first `]` that balances the `[`s before it (only
// backslashes escape), and its contents are parsed as a nested script where
// it appears; nesting deeper than kMaxDepth is a syntax error (`too many
// nested evaluations`). Braced words stay text.
//
// A syntax error stops the parse where it is found. The commands before it
// are complete; the last command holds the words (and the parts of a
// cut-short word) parsed before the error. Executing such a script runs the
// complete commands, substitutes what was parsed of the broken one, and
// then raises the error, the order in which an on-the-fly parser meets them.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dovado::tcl {

/// Deepest nesting of script evaluations (and of `[...]` in one text).
inline constexpr int kMaxDepth = 64;

struct ScriptNode;

/// One piece of a bare or quoted word; parts are substituted left to right.
struct WordPart {
  enum class Kind {
    kText,    ///< literal text, backslash escapes already decoded
    kVar,     ///< `$name` or `${name}`; `text` is the name
    kScript,  ///< `[...]`; `script` is the parsed contents
  };
  Kind kind = Kind::kText;
  std::string text;
  std::shared_ptr<const ScriptNode> script;
};

/// One word of a command.
struct WordNode {
  enum class Kind {
    kBare,    ///< unquoted; $var and [cmd] substitution applies
    kQuoted,  ///< "..." with substitution
    kBraced,  ///< {...} literal: one text part
  };
  Kind kind = Kind::kBare;
  std::vector<WordPart> parts;  ///< adjacent text is merged into one part
  int line = 1;

  /// True when the word's value is known without running anything.
  [[nodiscard]] bool is_literal() const {
    return parts.empty() || (parts.size() == 1 && parts[0].kind == WordPart::Kind::kText);
  }
  /// The value of a literal word.
  [[nodiscard]] const std::string& literal() const {
    static const std::string kEmpty;
    return parts.empty() ? kEmpty : parts[0].text;
  }
};

/// One command: words[0] is the command name.
struct CommandNode {
  std::vector<WordNode> words;
  int line = 1;
};

/// A parsed script. When `ok` is false, `error` is the message the
/// interpreter raises, `error_line` the line of the construct left open, and
/// the last command is the one the error cut short (see the file comment).
struct ScriptNode {
  std::vector<CommandNode> commands;
  bool ok = true;
  std::string error;
  int error_line = 0;
};

/// Parse a script into commands without evaluating anything.
[[nodiscard]] ScriptNode parse_script(std::string_view text);

}  // namespace dovado::tcl
