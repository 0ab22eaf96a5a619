// Constant-expression evaluation for HDL parameter defaults and port widths.
//
// Parameter defaults and vector bounds routinely reference other parameters
// ("DEPTH-1", "$clog2(QUEUE_COUNT)", "2**ADDR_W"). Dovado needs their integer
// value for every design point, so expressions are compiled (lexed) once and
// the compiled form is evaluated against a parameter environment per point.
// Only integer-valued synthesizable expressions are supported — the paper's
// DSE formulation is integer-only (Sec. III-B.1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/hdl/ast.hpp"
#include "src/util/flat_map.hpp"

namespace dovado::hdl {

/// Parameter-name -> value environment. VHDL lookups are case-insensitive,
/// so names are stored lower-cased; use ExprEnv helpers rather than touching
/// the map directly.
class ExprEnv {
 public:
  void set(std::string_view name, std::int64_t value);
  [[nodiscard]] std::optional<std::int64_t> get(std::string_view name) const;
  /// get() for a name already lower-cased (compiled expressions fold
  /// their identifiers once, see ExprToken::folded).
  [[nodiscard]] std::optional<std::int64_t> get_folded(std::string_view folded) const;
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  void reserve(std::size_t n) { values_.reserve(n); }

 private:
  util::FlatMap<std::int64_t> values_;
};

/// Outcome of evaluating an expression: a value or an error message
/// (unknown identifier, division by zero, unsupported construct).
struct ExprResult {
  std::optional<std::int64_t> value;
  std::string error;

  [[nodiscard]] bool ok() const { return value.has_value(); }
};

/// Lex `expr` (HDL source text, in the syntax of `lang`) once for repeated
/// evaluation, and classify each token: operator code, binding power,
/// literal value, function, lower-cased identifier. The parsers compile
/// every parameter default and port bound this way, so evaluating a design
/// point neither lexes nor compares or folds text.
[[nodiscard]] CompiledExpr compile_expr(std::string_view expr, HdlLanguage lang);

/// Evaluate a compiled expression against `env`. This is the one evaluator;
/// every other entry point below goes through it.
///
/// Supported: integer literals (incl. VHDL based literals and Verilog sized
/// literals), parameter references, unary +/-, binary + - * / mod/% rem
/// ** << >> min/max/abs/clog2 function calls ($clog2 in V/SV), parentheses,
/// boolean literals (true/false -> 1/0), and relational/ternary operators
/// (V/SV `cond ? a : b`). `a ** b` fails with "exponent overflow" when
/// |a**b| exceeds 2^60, in O(log b) steps whatever b is.
[[nodiscard]] ExprResult eval_expr(const CompiledExpr& expr, const ExprEnv& env);

/// Evaluate expression text: compile_expr, then evaluate.
[[nodiscard]] ExprResult eval_expr(std::string_view expr, HdlLanguage lang, const ExprEnv& env);

/// Ceiling log2 as Verilog's $clog2 defines it: clog2(0)=0, clog2(1)=0,
/// clog2(n)=bits needed to address n items.
[[nodiscard]] std::int64_t clog2(std::int64_t n);

/// Compile every parameter default and vector-port bound of `module` in
/// the module's language (the parsers call this once per module).
void compile_expressions(Module& module);

/// The evaluated bounds of a vector port.
struct PortBounds {
  ExprResult left;
  ExprResult right;
};

/// Evaluate a vector port's bounds from their compiled forms. A hand-built
/// port that carries only bound text is compiled on the spot.
[[nodiscard]] PortBounds eval_port_bounds(const Port& port, HdlLanguage lang,
                                          const ExprEnv& env);

/// Evaluate the bit width of a port for a given environment: 1 for scalars,
/// |left-right|+1 for vectors. Returns nullopt if bounds don't evaluate.
[[nodiscard]] std::optional<std::int64_t> port_width(const Port& port, HdlLanguage lang,
                                                     const ExprEnv& env);

/// Build an environment from a module's parameter defaults evaluated in
/// declaration order (compiled forms; text only for hand-built parameters),
/// then overridden by `overrides` (a concrete design point). Parameters
/// whose defaults cannot be evaluated and are not overridden are simply
/// absent from the result.
[[nodiscard]] ExprEnv build_param_env(const Module& module,
                                      const util::FlatMap<std::int64_t>& overrides);

}  // namespace dovado::hdl
