// Host-speed reference for the end-to-end benchmark.
//
// The benchmark runs on a shared host whose speed drifts by up to 2x over a
// run. Fixed reference kernels (benchmark code only: they call no dovado code
// and work on their own small, cache-resident state) are timed on the driving
// thread between short rounds of each workload, and every wall-clock figure
// of a round is scaled by nominal / measured. A round that is slow because
// the host is slow then reads the same as on a quiet host.
//
// Two kernels, mixed per workload by the share of its time that does each
// kind of work (weights in perfbench/calibration.json):
//   map: build a std::map of 12,000 pseudo-random short strings (~1.5 MiB:
//        malloc, pointer chasing, string compares, like the evaluation
//        pipeline's ASTs, reports and caches) and free it;
//   fp:  leave-one-out Gaussian-kernel regression sums over 96 2-D points
//        at 9 bandwidths (floating point over a few KiB, like the NWM).
// In interleaved trials on a shared 4-vCPU host (100-sample windows) fresh
// PointEvaluator::evaluate times varied by 19% raw, 12% scaled by an
// L1-resident integer loop and 2.4% scaled by the map kernel; NWM add_sample
// times (60-sample windows) varied by 10% raw, 5.3% scaled by the map
// kernel and 2.1% by the fp kernel.
//
// Workloads that wait on the disk (serve's fsync'd journal and store) also
// time a disk probe in every window: small appends, each followed by fsync,
// to a file of the run's own. Blocked time (wall minus thread CPU time) is
// then scaled by nominal_io / measured_io, CPU time by the kernels' scale.
//
// The guard: the reference is only a valid speed probe while no other thread
// of this process competes with it. Each calibration window compares the
// process CPU time (getrusage) with the calibrating thread's CPU time
// (CLOCK_THREAD_CPUTIME_ID); any sizeable difference means another thread of
// the process was busy, and the run is rejected.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Size of the kernels' passes, and fp passes per calibration window.
inline constexpr std::size_t kRefStrings = 12000;
inline constexpr int kRefPoints = 96;
inline constexpr int kFpPasses = 2;
/// fsync'd appends per disk probe.
inline constexpr int kIoProbes = 4;

/// One calibration window.
struct RefSample {
  double map_s = 0.0;        ///< wall time of one map pass
  double fp_s = 0.0;         ///< wall time of one fp pass (mean of the passes)
  double io_s = 0.0;         ///< median append+fsync time; 0 without a probe file
  double other_cpu_s = 0.0;  ///< CPU time other threads used during the window
  bool guard_ok = true;
};

/// Run one pass of each kernel; the results keep the work from being elided.
std::uint64_t map_kernel(std::size_t strings);
double fp_kernel(int points);

/// Time the kernels on the calling thread (and the disk probe when
/// `io_fd` >= 0) and check the guard.
RefSample measure_reference(int io_fd = -1);

/// Nominal kernel times and this workload's mix of them.
struct Reference {
  double map_s = 1.0;
  double fp_s = 1.0;
  double fp_weight = 0.0;  ///< share of the fp kernel; the map kernel has the rest
  double io_s = 0.0;       ///< nominal append+fsync time of the disk probe
};

/// CPU time of the calling thread, in seconds.
double thread_cpu_s();

/// Accumulates host-normalized time over a run. Work is timed in rounds; a
/// round is split into segments by calibration windows (begin_round, any
/// number of checkpoint calls from inside the work, end_round), and each
/// segment's raw time is scaled by 1 / mean(slowness before, after), where a
/// window's slowness is the weighted mean of measured / nominal kernel time.
/// Calibration time itself is excluded from the round.
class Normalizer {
 public:
  /// `io_probe_path` non-empty enables the disk probe (the file is created,
  /// and removed again by the destructor).
  explicit Normalizer(Reference reference, std::string io_probe_path = "");
  ~Normalizer();
  Normalizer(const Normalizer&) = delete;
  Normalizer& operator=(const Normalizer&) = delete;

  /// Take one calibration window.
  const RefSample& calibrate();

  void begin_round();
  /// Close the current segment, calibrate, open the next one.
  void checkpoint();
  /// End the round's timed part now; the closing calibration waits for
  /// end_round(), so that worker threads can be joined in between.
  void stop_clock();
  void end_round();

  /// Seconds since the current segment opened.
  [[nodiscard]] double segment_elapsed() const;
  /// Raw and normalized seconds of the last round, calibrations excluded.
  [[nodiscard]] double round_raw() const;
  [[nodiscard]] double round_norm() const;
  /// Scale of the round's first segment (for an interval inside it).
  [[nodiscard]] double first_scale() const;
  /// Raw seconds measured inside the last segment, normalized.
  [[nodiscard]] double normalize(double raw_s) const;
  /// Same, for an interval of which `cpu_s` ran on the CPU and the rest was
  /// blocked (scaled by the disk probe when there is one).
  [[nodiscard]] double normalize_split(double raw_s, double cpu_s) const;

  [[nodiscard]] bool guard_ok() const { return guard_trips_ == 0; }

  /// Speed of the host relative to the nominal calibration: 1 / the median
  /// slowness (1.0 = as fast as when the nominal times were taken).
  [[nodiscard]] double speed_index() const;
  /// Same for the disk probe; 0 without one.
  [[nodiscard]] double io_index() const;

 private:
  struct Segment {
    double raw_s = 0.0;
    double scale = 1.0;
    double io_scale = 1.0;
  };
  void close_segment();
  [[nodiscard]] double slowness(const RefSample& s) const;

  Reference ref_;
  std::string io_path_;
  int io_fd_ = -1;
  std::vector<RefSample> samples_;
  std::size_t guard_trips_ = 0;
  std::vector<Segment> segments_;
  std::chrono::steady_clock::time_point segment_start_{};
  std::chrono::steady_clock::time_point segment_stop_{};
  bool stopped_ = false;
};

/// Median of a sample (copy); 0 for an empty sample.
double median(std::vector<double> values);

/// Value at quantile q in [0,1] (nearest rank on the sorted copy).
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
