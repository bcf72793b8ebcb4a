// Measurement plumbing shared by every workload: wall/CPU clocks, order
// statistics, the in-memory span recorder, host identity and per-run noise,
// and the result record the benchmark prints as its last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace gridbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady_clock instants.
[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

/// Process user and system CPU time (getrusage), in seconds.
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  [[nodiscard]] double total_s() const { return user_s + sys_s; }
};
[[nodiscard]] CpuTimes process_cpu();

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// What else the host did while a run was timed: steal ticks from
/// /proc/stat and this process's voluntary / involuntary context switches.
struct Noise {
  std::uint64_t steal_ticks = 0;
  std::uint64_t voluntary_csw = 0;
  std::uint64_t involuntary_csw = 0;
};
[[nodiscard]] Noise noise_now();
/// `after` minus `before`, field by field.
[[nodiscard]] Noise noise_delta(const Noise& before, const Noise& after);

/// One-line host fingerprint: source revision, CPU model, nproc, kernel,
/// compiler and build type.
[[nodiscard]] std::string host_identity(const std::string& source_rev);

/// Usable hardware threads (sched affinity, falling back to
/// hardware_concurrency).
[[nodiscard]] std::size_t usable_cpus();

/// Order statistics over a copy of `values` (linear interpolation between
/// closest ranks). Empty input gives 0.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// The tail the benchmark reports: the highest percentile from a fixed
/// ladder with at least ten samples beyond it.
struct Tail {
  double percentile = 0.0;  ///< 99.9, 99, 95 or 90; 0 below 100 samples
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& values);

/// In-memory span recorder. Spans are opened and closed from the one
/// benchmark thread, nest by construction, and are written out once the
/// run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span under the innermost open span; returns its index (or -1
  /// when the log is disabled).
  std::int64_t open(std::string name);
  void close(std::int64_t index);

  /// Per span name: count, total wall ms, and self ms (duration minus the
  /// part covered by child spans), as printable lines.
  [[nodiscard]] std::vector<std::string> summary() const;

  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), index_(log.open(std::move(name))) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int64_t index_;
};

/// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The run's verdict plus its metrics; rendered as the last output line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] std::string to_json() const;
};

}  // namespace gridbench
