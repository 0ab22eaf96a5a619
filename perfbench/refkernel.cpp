#include "perfbench/refkernel.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

// Another thread counts as busy when it used more than this share of the
// window, plus a fixed allowance for accounting granularity.
constexpr double kGuardShare = 0.10;
constexpr double kGuardAllowanceS = 200e-6;

double io_probe(int fd) {
  static const std::string record(256, 'p');
  std::vector<double> times;
  for (int i = 0; i < kIoProbes; ++i) {
    const auto t0 = Clock::now();
    if (write(fd, record.data(), record.size()) != static_cast<ssize_t>(record.size()) ||
        fsync(fd) != 0) {
      throw std::runtime_error("disk probe write failed");
    }
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(std::move(times));
}

}  // namespace

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

std::uint64_t map_kernel(std::size_t strings) {
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  std::map<std::string, std::uint64_t> words;
  for (std::size_t i = 0; i < strings; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::string word(20 + x % 60, 'a');
    for (char& c : word) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = static_cast<char>('a' + x % 26);
    }
    words[std::move(word)] = x;
  }
  return words.size() + words.begin()->second;
}

double fp_kernel(int points) {
  std::vector<double> px(points);
  std::vector<double> py(points);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < points; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    px[i] = static_cast<double>(x % 1000) / 10.0;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    py[i] = static_cast<double>(x % 1000) / 10.0;
  }
  double acc = 0.0;
  for (int b = 1; b <= 9; ++b) {
    const double inv = 1.0 / (8.0 * b * b);
    for (int i = 0; i < points; ++i) {
      double num = 0.0;
      double den = 0.0;
      for (int j = 0; j < points; ++j) {
        if (i == j) continue;
        const double dx = px[i] - px[j];
        const double dy = py[i] - py[j];
        const double w = std::exp(-(dx * dx + dy * dy) * inv);
        num += w * py[j];
        den += w;
      }
      acc += den > 0.0 ? num / den : 0.0;
    }
  }
  return acc;
}

RefSample measure_reference(int io_fd) {
  static volatile std::uint64_t sink = 0;
  static volatile double fsink = 0.0;
  RefSample sample;
  const double proc0 = process_cpu_s();
  const double thread0 = thread_cpu_s();
  const auto start = Clock::now();
  sink = sink + map_kernel(kRefStrings);
  const auto mid = Clock::now();
  for (int pass = 0; pass < kFpPasses; ++pass) fsink = fsink + fp_kernel(kRefPoints);
  const auto stop = Clock::now();
  if (io_fd >= 0) sample.io_s = io_probe(io_fd);
  const double thread_cpu = thread_cpu_s() - thread0;
  const double proc_cpu = process_cpu_s() - proc0;
  const double window = std::chrono::duration<double>(Clock::now() - start).count();
  sample.map_s = std::chrono::duration<double>(mid - start).count();
  sample.fp_s = std::chrono::duration<double>(stop - mid).count() / kFpPasses;
  sample.other_cpu_s = std::max(0.0, proc_cpu - thread_cpu);
  sample.guard_ok = sample.other_cpu_s <= kGuardShare * window + kGuardAllowanceS;
  return sample;
}

Normalizer::Normalizer(Reference reference, std::string io_probe_path)
    : ref_(reference), io_path_(std::move(io_probe_path)) {
  if (!io_path_.empty()) {
    io_fd_ = open(io_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
    if (io_fd_ < 0) throw std::runtime_error("cannot create the disk probe " + io_path_);
  }
}

Normalizer::~Normalizer() {
  if (io_fd_ >= 0) {
    close(io_fd_);
    unlink(io_path_.c_str());
  }
}

const RefSample& Normalizer::calibrate() {
  samples_.push_back(measure_reference(io_fd_));
  if (!samples_.back().guard_ok) ++guard_trips_;
  return samples_.back();
}

void Normalizer::begin_round() {
  segments_.clear();
  calibrate();
  segment_start_ = std::chrono::steady_clock::now();
}

void Normalizer::stop_clock() {
  segment_stop_ = std::chrono::steady_clock::now();
  stopped_ = true;
}

void Normalizer::close_segment() {
  const auto stop = stopped_ ? segment_stop_ : std::chrono::steady_clock::now();
  stopped_ = false;
  const double raw = std::chrono::duration<double>(stop - segment_start_).count();
  const RefSample before = samples_.back();
  calibrate();
  const RefSample& after = samples_.back();
  const double io = 0.5 * (before.io_s + after.io_s);
  segments_.push_back({raw, 1.0 / (0.5 * (slowness(before) + slowness(after))),
                       io > 0.0 && ref_.io_s > 0.0 ? ref_.io_s / io : 1.0});
}

double Normalizer::slowness(const RefSample& s) const {
  return (1.0 - ref_.fp_weight) * s.map_s / ref_.map_s + ref_.fp_weight * s.fp_s / ref_.fp_s;
}

void Normalizer::checkpoint() {
  close_segment();
  segment_start_ = std::chrono::steady_clock::now();
}

void Normalizer::end_round() { close_segment(); }

double Normalizer::segment_elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - segment_start_)
      .count();
}

double Normalizer::round_raw() const {
  double total = 0.0;
  for (const auto& s : segments_) total += s.raw_s;
  return total;
}

double Normalizer::round_norm() const {
  double total = 0.0;
  for (const auto& s : segments_) total += s.raw_s * s.scale;
  return total;
}

double Normalizer::first_scale() const {
  return segments_.empty() ? 1.0 : segments_.front().scale;
}

double Normalizer::normalize(double raw_s) const {
  return segments_.empty() ? raw_s : raw_s * segments_.back().scale;
}

double Normalizer::normalize_split(double raw_s, double cpu_s) const {
  if (segments_.empty()) return raw_s;
  const Segment& s = segments_.back();
  const double cpu = std::min(cpu_s, raw_s);
  return cpu * s.scale + (raw_s - cpu) * s.io_scale;
}

double Normalizer::io_index() const {
  std::vector<double> io;
  for (const auto& s : samples_) {
    if (s.io_s > 0.0) io.push_back(s.io_s);
  }
  const double m = median(std::move(io));
  return m > 0.0 ? ref_.io_s / m : 0.0;
}

double Normalizer::speed_index() const {
  std::vector<double> slow;
  slow.reserve(samples_.size());
  for (const auto& s : samples_) slow.push_back(slowness(s));
  const double m = median(std::move(slow));
  return m > 0.0 ? 1.0 / m : 0.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(rank + 0.5)];
}

}  // namespace perfbench
