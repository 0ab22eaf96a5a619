// `--json FILE` support shared by the Pareto-front benches (fig4, fig5,
// fig6/fig7): parse the flag, then write each front in the order the engine
// returned it, every parameter and every objective, values with %.17g so a
// golden copy under tests/golden/ can be compared exactly.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/dse.hpp"

namespace dovado::bench {

/// One named front of a figure (e.g. one device of fig6/fig7).
struct NamedFront {
  std::string name;
  const std::vector<core::ExploredPoint>* points = nullptr;
};

/// Parse `[--json FILE]`; returns false (after printing usage) on anything
/// else. `json_path` stays null when the flag is absent.
inline bool parse_json_flag(int argc, char** argv, const char* bench, const char*& json_path) {
  json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json FILE]\n", bench);
      return false;
    }
  }
  return true;
}

/// Write the fronts to `path`; returns false (after printing why) when the
/// file cannot be written.
inline bool write_fronts_json(const char* path, const char* bench,
                              const std::vector<core::Objective>& objectives,
                              const std::vector<NamedFront>& fronts) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "%s: cannot write %s\n", bench, path);
    return false;
  }
  std::fprintf(out, "{\"figure\": \"%s\", \"fronts\": [\n", bench);
  for (std::size_t f = 0; f < fronts.size(); ++f) {
    const auto& points = *fronts[f].points;
    std::fprintf(out, "  {\"name\": \"%s\", \"points\": [\n", fronts[f].name.c_str());
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::fprintf(out, "    {");
      const char* sep = "";
      for (const auto& [name, value] : points[i].params) {
        std::fprintf(out, "%s\"%s\": %lld", sep, name.c_str(), static_cast<long long>(value));
        sep = ", ";
      }
      for (const auto& objective : objectives) {
        std::fprintf(out, ", \"%s\": %.17g", objective.metric.c_str(),
                     points[i].metrics.get(objective.metric));
      }
      std::fprintf(out, "}%s\n", i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ]}%s\n", f + 1 < fronts.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "%s: cannot write %s\n", bench, path);
    return false;
  }
  return true;
}

}  // namespace dovado::bench
