// Result serialization: CSV tables and JSON session dumps for DSE results.
#pragma once

#include <iosfwd>
#include <string>

#include "src/core/dse.hpp"
#include "src/util/json.hpp"

namespace dovado::core {

/// Write the explored points (or just the Pareto set) as CSV: one column
/// per parameter, then one per metric, plus estimated/failed flags.
void write_csv(std::ostream& out, const std::vector<ExploredPoint>& points);

/// One explored point as JSON, as the session file and to_json spell it.
[[nodiscard]] util::Json explored_point_to_json(const ExploredPoint& point);

/// JSON dump of a whole DSE result (stats + pareto + explored).
[[nodiscard]] std::string to_json(const DseResult& result, int indent = 2);

/// Render the Pareto set as a human-readable table (used by examples and
/// benches to print the paper-style configuration tables).
[[nodiscard]] std::string format_table(const std::vector<ExploredPoint>& points);

}  // namespace dovado::core
