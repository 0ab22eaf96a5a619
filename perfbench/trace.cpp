#include "perfbench/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

std::int64_t Tracer::begin(const std::string& name, std::int64_t parent,
                           std::int64_t round) {
  const double start = now_s();
  dovado::util::MutexLock lock(mutex_);
  Span span;
  span.name = name;
  span.start_s = start;
  span.end_s = start;
  span.id = static_cast<std::int64_t>(spans_.size());
  span.parent = parent;
  span.round = round;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::int64_t id) {
  const double stop = now_s();
  dovado::util::MutexLock lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_s = stop;
}

std::vector<Span> Tracer::spans() const {
  dovado::util::MutexLock lock(mutex_);
  return spans_;
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans()) {
    if (s.name == name) total += s.end_s - s.start_s;
  }
  return total;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& s : spans()) n += s.name == name ? 1 : 0;
  return n;
}

double Tracer::self_s(const std::string& name) const {
  const std::vector<Span> all = spans();
  std::map<std::int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : all) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  double total = 0.0;
  for (const Span& s : all) {
    if (s.name != name) continue;
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals clipped to the parent: children on
      // parallel lanes overlap, and overlapping time is covered once.
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0;
      double cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_s);
        hi = std::min(hi, s.end_s);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    total += (s.end_s - s.start_s) - covered;
  }
  return total;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %lld, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"parent\": %lld, \"round\": %lld}%s\n",
                 static_cast<long long>(s.id), s.name.c_str(), s.start_s, s.end_s,
                 static_cast<long long>(s.parent), static_cast<long long>(s.round),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
