// The report shredder's pieces, shared by the robustness test and the
// parser differential test: the sample reports it starts from and the
// structural mutations it applies to them.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/edatool/report.hpp"
#include "src/util/rng.hpp"

namespace dovado::edatool::shredder {

inline UtilizationReport sample_utilization() {
  UtilizationReport report;
  report.rows.push_back({"Slice LUTs", 1200, 41000, 2.93});
  report.rows.push_back({"Slice Registers", 800, 82000, 0.98});
  report.rows.push_back({"Block RAM Tile", 4, 135, 2.96});
  return report;
}

inline TimingReport sample_timing() {
  TimingReport report;
  report.requirement_ns = 2.0;
  report.slack_ns = -0.25;
  report.data_path_ns = 2.25;
  report.logic_levels = 5;
  report.path_group = "clk";
  return report;
}

enum class Shred { kTruncate, kDuplicateLine, kBitFlip, kSwapLines };

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

inline std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

inline std::string shred(const std::string& original, Shred op, util::Rng& rng) {
  switch (op) {
    case Shred::kTruncate: {
      std::string text = original;
      text.resize(rng.index(text.size() + 1));
      return text;
    }
    case Shred::kDuplicateLine: {
      auto lines = split_lines(original);
      const std::size_t i = rng.index(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      return join_lines(lines);
    }
    case Shred::kBitFlip: {
      std::string text = original;
      const std::size_t byte = rng.index(text.size());
      text[byte] = static_cast<char>(text[byte] ^ (1 << rng.index(8)));
      return text;
    }
    case Shred::kSwapLines: {
      auto lines = split_lines(original);
      const std::size_t a = rng.index(lines.size());
      const std::size_t b = rng.index(lines.size());
      std::swap(lines[a], lines[b]);
      return join_lines(lines);
    }
  }
  return original;
}

/// One mutated report of the shredder's corpus.
struct Shredded {
  bool utilization = false;  ///< mutated from the utilization sample, else timing
  Shred op = Shred::kTruncate;
  std::string text;
};

/// The seeded corpus: 500 mutations of the utilization and timing samples.
inline std::vector<Shredded> corpus() {
  const std::string util_text = sample_utilization().to_text();
  const std::string timing_text = sample_timing().to_text();
  util::Rng rng(20260806u);
  std::vector<Shredded> out;
  for (int trial = 0; trial < 500; ++trial) {
    Shredded entry;
    entry.utilization = rng.chance(0.5);
    entry.op = static_cast<Shred>(rng.index(4));
    entry.text = shred(entry.utilization ? util_text : timing_text, entry.op, rng);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace dovado::edatool::shredder
