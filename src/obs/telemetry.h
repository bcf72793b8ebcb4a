// Live runtime telemetry: per-shard health lanes sampled into a
// schema-versioned JSONL time series.
//
// The post-mortem observability stack (metrics, lineage, curves, flight
// recorder) answers "what happened" after measure_run; this layer answers
// "what is the run doing right now". Each reactor shard (or the simulator)
// owns one cache-line-aligned TelemetryLane of single-writer counters and
// fixed-bucket log2 histograms (DESIGN.md §14) — timer fires and their
// lateness, actions, polls and wake causes, EINTR retries, datagrams
// drained per wake, cross-thread post queue depth, and dispatch work per
// wheel tick. The service engine adds a control-thread-only section: epoch
// launch→complete latency and window-occupancy/deferral gauges.
//
// Always on: the lane is a member of the reactor or simulator and the only
// count of those loop events. Each hook writes once, a relaxed load and
// store into fixed arrays: no locks, no pointer tests, no heap (the
// zero-alloc suite pins that). TelemetryConfig::enabled only arms the
// sampler.
//
// A TelemetrySampler on the control thread snapshots every shard on a
// fixed interval into one "gridbox-telemetry/1" JSONL record: integer-only,
// shards merged in shard order, so on the simulator substrate the whole
// series is a byte-deterministic function of (config, seed). Leaf header
// (common/types.h, net/stats.h and the standard library only), so net/ and
// sim/ can include it without a layering cycle.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/net/stats.h"

namespace gridbox::obs {

/// Fixed log2 histogram. Bucket 0 holds exact zeros; bucket b in [1, 14]
/// holds values in [2^(b-1), 2^b); the last bucket absorbs everything
/// larger. Observation is one single-writer bump; merging is bucket-wise
/// addition, so per-shard histograms fold deterministically in shard order.
struct TelemetryHist {
  static constexpr std::size_t kBuckets = 16;
  std::atomic<std::uint64_t> buckets[kBuckets] = {};

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) {
    if (value == 0) return 0;
    return std::min<std::size_t>(kBuckets - 1, std::bit_width(value));
  }

  void observe(std::uint64_t value) { net::bump(buckets[bucket_of(value)]); }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto& b : buckets) sum += b.load(std::memory_order_relaxed);
    return sum;
  }
};

/// One shard's loop-event counters. Single writer — the owning shard
/// thread — except note_queue_depth, which post()ing threads race through
/// a relaxed fetch-max. Readers (the control-thread sampler) see a valid,
/// possibly slightly torn snapshot: each counter is individually atomic,
/// and per-sample deltas over a torn snapshot still bound the truth.
struct alignas(64) TelemetryLane {
  std::atomic<std::uint64_t> timers_fired{0};
  std::atomic<std::uint64_t> actions_run{0};
  std::atomic<std::uint64_t> polls{0};
  std::atomic<std::uint64_t> wakes_io{0};      ///< poll returned readable fds
  std::atomic<std::uint64_t> wakes_timeout{0}; ///< quantum elapsed / spurious
  /// Interrupted poll(2) calls, plus the shard transport's recv(2) ones.
  std::atomic<std::uint64_t> eintr_retries{0};
  /// High-water of the cross-thread post() inbox (reactor) or of the
  /// pending event queue (simulator).
  std::atomic<std::uint64_t> queue_depth_hw{0};
  /// Timer fire time minus scheduled deadline, µs. Always bucket 0 on the
  /// simulator: the virtual clock fires exactly on time.
  TelemetryHist timer_lateness_us;
  /// Datagrams drained per on_readable wake (bucket 0 = spurious wake).
  TelemetryHist drain_per_wake;
  /// Due entries dispatched per non-empty wheel pass.
  TelemetryHist dispatch_per_tick;

  void note_timer_fired(std::uint64_t lateness_us) {
    net::bump(timers_fired);
    timer_lateness_us.observe(lateness_us);
  }

  void note_queue_depth(std::uint64_t depth) {
    std::uint64_t seen = queue_depth_hw.load(std::memory_order_relaxed);
    while (seen < depth && !queue_depth_hw.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }
};

/// The service engine's stream-level gauges. Control thread only (the
/// engine's bookkeeping is single-threaded by construction), so plain
/// fields; the sampler runs on the same thread.
struct ServiceTelemetry {
  std::uint64_t launched = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t in_flight = 0;        ///< current window occupancy
  std::uint64_t in_flight_hw = 0;
  std::uint64_t deferred_queue = 0;   ///< launches currently parked
  std::uint64_t deferred_queue_hw = 0;
  /// Launch → every-participant-finished latency, µs, per instance.
  TelemetryHist epoch_latency_us;

  void note_occupancy(std::uint64_t running, std::uint64_t queued) {
    in_flight = running;
    in_flight_hw = std::max(in_flight_hw, running);
    deferred_queue = queued;
    deferred_queue_hw = std::max(deferred_queue_hw, queued);
  }
};

/// Plain (non-atomic) copy of one shard, and the fold unit for the
/// shard-ordered total.
struct LaneSnapshot {
  std::uint64_t timers_fired = 0;
  std::uint64_t actions_run = 0;
  /// Frames that reached a member's port: the shard's traffic view
  /// delivered + dead_dest, on both substrates.
  std::uint64_t frames = 0;
  std::uint64_t polls = 0;
  std::uint64_t wakes_io = 0;
  std::uint64_t wakes_timeout = 0;
  std::uint64_t eintr_retries = 0;
  std::uint64_t queue_depth_hw = 0;
  std::uint64_t timer_lateness_us[TelemetryHist::kBuckets] = {};
  std::uint64_t drain_per_wake[TelemetryHist::kBuckets] = {};
  std::uint64_t dispatch_per_tick[TelemetryHist::kBuckets] = {};

  /// Counters and buckets add; the high-water gauge takes the max.
  void add(const LaneSnapshot& other);
};

/// One shard as the hub reads it: its reactor's (or the simulator's) loop
/// lane and its transport's traffic lane. Both must outlive the hub.
struct ShardLanes {
  const TelemetryLane* loop = nullptr;
  const net::TrafficLane* traffic = nullptr;
};

/// A read-side view over every shard's lanes, plus the service section;
/// renders the merged JSONL record. Shard count is fixed at construction
/// (one per reactor shard; 1 on the simulator substrate).
class TelemetryHub {
 public:
  static constexpr const char* kSchema = "gridbox-telemetry/1";

  explicit TelemetryHub(std::vector<ShardLanes> shards);
  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  [[nodiscard]] std::size_t lane_count() const { return shards_.size(); }

  /// Arms the service section (streamed-epoch runtimes); one-shot runs
  /// leave it off and the record omits "service".
  void enable_service() { service_enabled_ = true; }
  [[nodiscard]] bool service_enabled() const { return service_enabled_; }
  [[nodiscard]] ServiceTelemetry& service() { return service_; }

  [[nodiscard]] LaneSnapshot snapshot_lane(std::size_t i) const;
  /// All shards folded in shard order (the deterministic merge).
  [[nodiscard]] LaneSnapshot snapshot_total() const;

  /// One "gridbox-telemetry/1" record (no trailing newline): integer-only,
  /// per-shard objects in shard order, the shard-ordered total, and the
  /// service section when armed.
  [[nodiscard]] std::string sample_json(std::uint64_t seq, SimTime now) const;

 private:
  std::vector<ShardLanes> shards_;
  ServiceTelemetry service_;
  bool service_enabled_ = false;
};

/// Sampling configuration, carried by ExperimentConfig so every runtime
/// (simulator, UDP one-shot, both service substrates) reads one knob.
/// Execution-side instrumentation: excluded from config_canonical_text,
/// never affects what a run computes.
struct TelemetryConfig {
  /// Arms the sampler. The lanes themselves are always on.
  bool enabled = false;
  /// Sampling cadence on the substrate's own clock (virtual µs on the
  /// simulator, wall µs on the reactors).
  SimTime interval = SimTime::millis(100);
  /// JSONL destination; empty = no file (latest() still serves the socket).
  std::string out_path;
  /// Optional in-memory sink: every record (newline-terminated) is
  /// appended. Non-owning; the determinism tests read telemetry here.
  std::string* sink = nullptr;
  /// UDP runtimes only: serve the latest record one-shot from
  /// 127.0.0.1:udp_port (0 = no stats socket). gridbox_top polls it.
  std::uint16_t udp_port = 0;
};

/// Control-thread sampler: renders the hub into JSONL on a fixed cadence.
/// sample() must be called from one thread at a time (the control shard
/// mid-run; the joining thread for the final sample).
class TelemetrySampler {
 public:
  TelemetrySampler(const TelemetryHub& hub, TelemetryConfig config);
  ~TelemetrySampler();
  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Appends one record stamped `now` to the file/sink and retains it as
  /// latest(). Flushes the file so a live `gridbox_top --file` tail sees
  /// complete lines.
  void sample(SimTime now);

  [[nodiscard]] const std::string& latest() const { return latest_; }
  [[nodiscard]] SimTime interval() const { return config_.interval; }
  [[nodiscard]] std::uint64_t samples() const { return seq_; }

 private:
  const TelemetryHub& hub_;
  TelemetryConfig config_;
  std::FILE* file_ = nullptr;
  std::string latest_;
  std::uint64_t seq_ = 0;
};

}  // namespace gridbox::obs
