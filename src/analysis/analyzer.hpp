// Analyzer orchestration: runs every lint family over a project and (for
// pre-flight) a DSE configuration, producing one LintReport.
//
// The analyzer is the cheapest fidelity tier Dovado has — pure static
// inspection, O(milliseconds) — and runs before any evaluation is paid for:
// once as the `dovado lint` command, and once as the mandatory pre-flight
// gate at the top of DseEngine::run().
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/analysis/diagnostic.hpp"
#include "src/analysis/rules.hpp"
#include "src/analysis/space_lint.hpp"
#include "src/core/dse.hpp"
#include "src/core/evaluator.hpp"

namespace dovado::analysis {

/// Lint a project: parse + interface + net rules over every source, a
/// top-module existence check, and — when a part is configured — the whole
/// generated flow (box, frame validation, flow script, XDC constraints)
/// plus directive names. Appends to `report`. Every source is lexed and
/// parsed once; returns the top module when one was found.
std::optional<hdl::Module> lint_project(const core::ProjectConfig& project,
                                        LintReport& report);

/// Lint the design space / objectives / derived metrics of a DSE config in
/// the context of `project` (its backend) and of `top`, the top module
/// lint_project returned (nullptr: none, so free parameters are not checked
/// against it). `raw_param_specs` are the user's original `name=spec`
/// strings when known (descending ranges are only visible there); pass {}
/// otherwise.
void lint_dse_config(const core::ProjectConfig& project, const hdl::Module* top,
                     const core::DseConfig& config,
                     const std::vector<std::string>& raw_param_specs,
                     LintReport& report);

/// The pre-flight gate: project + DSE-config lint, filtered by `rules`.
[[nodiscard]] LintReport preflight(const core::ProjectConfig& project,
                                   const core::DseConfig& config,
                                   const RuleSet& rules = {});

}  // namespace dovado::analysis
