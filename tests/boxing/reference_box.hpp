// Reference copy of the box generator as it was before boxing::BoxTemplate:
// every call re-checks the module, sorts the VHDL clauses and builds the
// text from string temporaries. The differential test
// (boxing/box_differential_test.cpp) requires the live generator to return
// the same BoxResult, field for field and byte for byte.
//
// The copy is verbatim apart from its namespace and from evaluating
// parameter defaults and port bounds with the reference expression
// evaluator (hdl/reference_expr.hpp) on their source text, so that it shares
// no evaluation code with the generator under test.
#pragma once

#include "src/boxing/box.hpp"

namespace dovado::boxing::reference {

[[nodiscard]] BoxResult generate_box(const hdl::Module& module, const BoxConfig& config);

}  // namespace dovado::boxing::reference
