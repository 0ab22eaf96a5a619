// Reference copy of the constant-expression evaluator as it was before
// compile_expr classified tokens: the Pratt evaluator walks plain lexer
// tokens and decides every operator, keyword and function name by
// lower-casing and comparing its text at evaluation time. The differential
// test (hdl/expr_differential_test.cpp) runs every expression through both
// evaluators and requires the same value and the same first error message.
//
// The copy is verbatim apart from its namespace and entry points: it lexes
// the text itself (with the live hdl::Lexer) and looks names up through
// ExprEnv's public, case-folding accessors. Its arithmetic wraps in two's
// complement like the live evaluator's, where the old code overflowed
// (undefined behaviour) or trapped on INT64_MIN / -1.
#pragma once

#include <cstdint>
#include <string_view>

#include "src/hdl/expr.hpp"

namespace dovado::hdl::reference {

/// Evaluate expression text the way eval_expr did.
[[nodiscard]] ExprResult eval_expr(std::string_view expr, HdlLanguage lang, const ExprEnv& env);

/// build_param_env as it was: overrides folded into a lower-cased copy,
/// defaults evaluated from their text with the evaluator above.
[[nodiscard]] ExprEnv build_param_env(const Module& module,
                                      const util::FlatMap<std::int64_t>& overrides);

}  // namespace dovado::hdl::reference
