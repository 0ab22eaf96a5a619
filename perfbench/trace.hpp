// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only in traced runs (end-to-end metrics come from
// untraced runs). Each span has a name, start and end on the steady clock,
// the id of the span that caused it and the round it belongs to. The spans
// are kept in memory and written as one JSON file when the run ends. A
// span's self time is its duration minus the part of its interval that its
// child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/sync.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
  std::int64_t round = 0;
};

class Tracer {
 public:
  Tracer();

  /// Open a span; returns its id. Thread-safe.
  std::int64_t begin(const std::string& name, std::int64_t parent, std::int64_t round);
  /// Close a span opened with begin(). Thread-safe.
  void end(std::int64_t id);

  /// Snapshot of all spans recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Total duration of the closed spans with `name`, and their count.
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;

  /// Sum over spans named `name` of (duration minus the union of the
  /// intervals of their direct children).
  [[nodiscard]] double self_s(const std::string& name) const;

  /// Write every span as a JSON array to `path`. Returns false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] double now_s() const;

  std::chrono::steady_clock::time_point origin_;
  mutable dovado::util::Mutex mutex_{"perfbench.Tracer"};
  std::vector<Span> spans_ DOVADO_GUARDED_BY(mutex_);
};

/// RAII span: begins on construction, ends on destruction. A null tracer
/// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::int64_t parent,
             std::int64_t round)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent, round) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
