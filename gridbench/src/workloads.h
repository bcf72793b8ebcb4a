// The benchmark's workloads and what they share: options parsed from the
// command line, the per-aggregation correctness gate, the watchdog that
// turns a stall into counted failures, and the per-layer metric schema.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "src/protocols/gossip/trace.h"
#include "src/protocols/protocol_stats.h"

namespace gridbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: a few aggregations of a small group, no timing loop.
  bool tiny = false;
  /// Where the traced run writes its span file.
  std::string out_dir = ".";
  /// Source revision stamped into the host identity line.
  std::string rev = "unknown";
};

/// Seed of the i-th aggregation (or service batch) of a run: consecutive
/// seeds from a base the benchmark seed picks.
inline std::uint64_t seed_of(std::uint64_t bench_seed, std::size_t i) {
  return bench_seed * 1'000'003ULL + i;
}

/// An aggregation whose votes cover less than this share of its cohort
/// (the members alive when it started) has collapsed, and fails. The
/// floor is relative to the cohort because on the service the crash clock
/// thins the group over each batch. It sits well below the healthy range:
/// ~0.998 on the simulator; on the overloaded service instances late in a
/// batch read 0.62-0.98, with a rare tail down to 0.49 (2 of about 40,000
/// instances, cause not yet isolated). The lowest share of each run is
/// printed, so that tail stays visible.
inline constexpr double kCompletenessFloor = 0.25;

/// The share of its cohort an aggregation's mean completeness covers
/// (mean_completeness is a share of the whole group).
[[nodiscard]] double cohort_share(const gridbox::protocols::RunMeasurement& m,
                                  std::size_t cohort);

/// Every aggregation the benchmark attempts is judged here. `cohort` is
/// the number of members alive at its start. Returns an empty string when
/// it passes, else why it failed.
[[nodiscard]] std::string verdict(bool completed,
                                  const gridbox::protocols::RunMeasurement& m,
                                  std::size_t invariant_violations,
                                  std::size_t cohort);

/// Process-wide attempt/failure tally. The watchdog reads it from its own
/// thread when the run overstays its wall deadline.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  /// Aggregations in the unit currently running (counted failed if the
  /// watchdog fires before it returns).
  std::atomic<std::uint64_t> in_progress{0};
};
Tally& tally();

/// Wall-deadline watchdog: if it is still armed `deadline_s` after
/// construction, it prints a failed result line (every in-progress
/// aggregation counted failed) and ends the process with status 0, so a
/// stall becomes counted failures instead of a hang. Destruction disarms it.
class Watchdog {
 public:
  explicit Watchdog(double deadline_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ = false;  ///< guarded by mutex_
  std::thread thread_;
};

/// Counts the gossip trace events the benchmark reads as layer counts.
/// Attached through ExperimentConfig::gossip.trace, so it runs on the one
/// simulator thread.
struct CountingTrace final : gridbox::protocols::gossip::GossipTrace {
  std::uint64_t rounds = 0;
  std::uint64_t remote_gains = 0;
  std::uint64_t conclusions = 0;

  void on_round_gossiped(gridbox::MemberId, std::size_t,
                         std::uint32_t) override {
    ++rounds;
  }
  void on_knowledge_gained(gridbox::MemberId, std::size_t, std::uint32_t,
                           gridbox::MemberId, std::uint32_t,
                           gridbox::protocols::gossip::GainKind kind) override {
    if (kind == gridbox::protocols::gossip::GainKind::kRemote) ++remote_gains;
  }
  void on_phase_concluded(gridbox::MemberId, std::size_t,
                          gridbox::protocols::gossip::PhaseEnd,
                          std::uint32_t) override {
    ++conclusions;
  }
};

/// Names, units and values of every per-layer metric, in the order the
/// traced run prints them. Workloads fill what their path exercises; a
/// layer the workload never touches reads 0.
struct LayerMetrics {
  double runner_setup_ms = 0;
  double sim_events_per_agg = 0;
  double sim_events_per_s = 0;
  double sim_queue_peak = 0;
  double sim_queue_push_pop_ns = 0;
  double net_delivery_ratio = 0;
  double net_bytes_per_msg = 0;
  double net_send_deliver_ns = 0;
  double udp_datagram_codec_ns = 0;
  double udp_sys_cpu_share = 0;
  double reactor_polls_per_agg = 0;
  double reactor_wake_io_ratio = 0;
  double reactor_drain_per_wake_p50 = 0;
  double reactor_dispatch_per_tick_p50 = 0;
  double reactor_timer_late_us_p99 = 0;
  double reactor_post_queue_hw = 0;
  double gossip_rounds_per_member = 0;
  double gossip_useful_ratio = 0;
  double gossip_phase_conclusions = 0;
  double invariant_cost_ms = 0;
  double audit_cost_ms = 0;
  double bitset_merge_ns = 0;
  double codec_partial_ns = 0;
  double mux_frames_per_agg = 0;
  double mux_wasted_share = 0;
  double mux_closed_sends = 0;
  double envelope_wrap_unwrap_ns = 0;
  double service_defer_ms_p50 = 0;
  double service_in_flight_hw = 0;
  double obs_metrics_cost_ms = 0;
  double ledger_residual_share = 0;
  double trace_overhead_share = 0;

  void append_to(Result& result) const;
};

/// Prints the `noise:` line.
void print_noise(const Noise& noise);

/// Prints the `agg_ms_tail:`, `fail_share:` and `completeness_min:` lines
/// of an untraced run.
void print_run_summary(const std::vector<double>& wall_ms,
                       const Result& result, double min_cohort_share);

/// Fills the isolated ns/op metrics, timed at group size `n`, an event
/// queue of `queue_depth` and frames of `frame_bytes`.
void measure_isolated(LayerMetrics& lm, std::size_t n, std::size_t queue_depth,
                      std::size_t frame_bytes);

/// Prints the per-name span summary and writes the spans to
/// `<out_dir>/spans-<workload>-<seed>.jsonl`.
void report_spans(const SpanLog& spans, const Options& options);

[[nodiscard]] Result run_oneshot(const Options& options, std::size_t n);
[[nodiscard]] Result run_service_udp(const Options& options);

}  // namespace gridbench
