// The real-socket service workload: run_udp_service over loopback, N=200,
// a window of 16 concurrent aggregations, epochs due every 2 ms (about ten
// times capacity, so the window stays full: in effect a closed loop of 16).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "src/net/reactor.h"
#include "src/net/udp_transport.h"
#include "src/obs/telemetry.h"
#include "src/service/udp_service.h"
#include "workloads.h"
#include "world.h"

namespace gridbench {

namespace {

using gridbox::SimTime;
using gridbox::service::UdpServiceConfig;
using gridbox::service::UdpServiceResult;

/// Member m binds 127.0.0.1:(kPortBase + m). The window sits below the
/// kernel's default ephemeral range (32768+) and clear of every window the
/// repository's tests and tools bind (38000, 39000, 42000, 43000–43350,
/// 44000, 44300, 46000, 48000 and 50000, each plus N).
constexpr std::uint16_t kPortBase = 32000;

constexpr std::size_t kWindow = 16;
constexpr SimTime kEpochInterval = SimTime::millis(2);
constexpr SimTime kRound = SimTime::millis(5);

/// The paper's crash model runs for the service's whole lifetime: pf per
/// member per 5 ms round crashes ~40 members per second at N=200, without
/// recovery. Each batch is a fresh service, so a batch of 64 (about 1.3 s)
/// still has about three quarters of the group alive at its last launch.
struct Shape {
  std::size_t n = 200;
  std::size_t instances_per_batch = 64;
  std::size_t window = kWindow;
};

UdpServiceConfig config_for(const Shape& shape, std::size_t shards,
                            std::uint64_t seed) {
  UdpServiceConfig c;
  gridbox::runner::ExperimentConfig& x = c.service.experiment;
  x.protocol = gridbox::runner::ProtocolKind::kHierGossip;
  x.group_size = shape.n;
  x.audit = true;
  x.check_invariants = true;
  x.gossip.round_duration = kRound;
  x.seed = seed;
  c.service.instances = shape.instances_per_batch;
  c.service.epoch_interval = kEpochInterval;
  c.service.max_in_flight = shape.window;
  c.port_base = kPortBase;
  c.shards = shards;
  return c;
}

/// Discards datagrams; the receiving side of the bind-only set-up probe.
struct NullEndpoint final : gridbox::net::Endpoint {
  void on_message(const gridbox::net::Message&) override {}
};

/// Set-up as the service pays it: construct the shard reactors and bind
/// all N member sockets. Doubles as the check that the port window is
/// free; throws PreconditionError when a port is taken.
double udp_setup_s(std::size_t n, std::size_t shards) {
  const auto t0 = Clock::now();
  // Declared so that transports close before their reactors go, and
  // endpoints outlive both.
  std::vector<NullEndpoint> endpoints(n);
  std::vector<std::unique_ptr<gridbox::net::Reactor>> reactors;
  std::vector<std::unique_ptr<gridbox::net::UdpTransport>> transports;
  for (std::size_t s = 0; s < shards; ++s) {
    reactors.push_back(std::make_unique<gridbox::net::Reactor>(
        gridbox::net::Reactor::Options{}));
    gridbox::net::UdpTransport::Options topt;
    topt.port_base = kPortBase;
    transports.push_back(
        std::make_unique<gridbox::net::UdpTransport>(*reactors.back(), topt));
  }
  for (std::size_t m = 0; m < n; ++m) {
    transports[m % shards]->attach(
        gridbox::MemberId{static_cast<gridbox::MemberId::underlying>(m)},
        endpoints[m]);
  }
  const double elapsed = seconds_between(t0, Clock::now());
  transports.clear();  // closes the sockets before the next probe
  return elapsed;
}

/// Reads one integer field `"key":<n>` at or after `from` in a telemetry
/// record; 0 when absent.
std::uint64_t field_after(const std::string& json, std::size_t from,
                          const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

/// Reads a 16-bucket log2 histogram `"key":[b0,...,b15]` after `from`.
void hist_after(const std::string& json, std::size_t from, const char* key,
                std::uint64_t (&out)[gridbox::obs::TelemetryHist::kBuckets]) {
  const std::string needle = std::string("\"") + key + "\":[";
  std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return;
  const char* p = json.c_str() + at + needle.size();
  for (auto& bucket : out) {
    char* end = nullptr;
    bucket += std::strtoull(p, &end, 10);
    p = end;
    if (*p == ',') ++p;
  }
}

/// The value at quantile q of a log2 histogram, as the inclusive upper
/// edge of the bucket holding it (bucket 0 holds exact zeros; bucket b
/// holds [2^(b-1), 2^b)).
double hist_quantile(
    const std::uint64_t (&h)[gridbox::obs::TelemetryHist::kBuckets],
    double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : h) total += c;
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < gridbox::obs::TelemetryHist::kBuckets; ++b) {
    seen += h[b];
    if (seen >= std::max<std::uint64_t>(1, rank)) {
      return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b)) - 1.0;
    }
  }
  return 0.0;
}

/// Totals of the reactor and service telemetry over the traced batches.
struct TelemetryTotals {
  std::uint64_t polls = 0;
  std::uint64_t wakes_io = 0;
  std::uint64_t wakes_timeout = 0;
  std::uint64_t post_queue_hw = 0;
  std::uint64_t in_flight_hw = 0;
  std::uint64_t drain[gridbox::obs::TelemetryHist::kBuckets] = {};
  std::uint64_t dispatch[gridbox::obs::TelemetryHist::kBuckets] = {};
  std::uint64_t lateness[gridbox::obs::TelemetryHist::kBuckets] = {};

  /// Folds in the final record of one batch's JSONL series.
  void add_final_record(const std::string& jsonl) {
    const std::size_t last_start =
        jsonl.size() < 2 ? 0 : jsonl.rfind('\n', jsonl.size() - 2);
    const std::string rec =
        jsonl.substr(last_start == std::string::npos ? 0 : last_start + 1);
    const std::size_t total = rec.find("\"total\":");
    if (total == std::string::npos) return;
    polls += field_after(rec, total, "polls");
    wakes_io += field_after(rec, total, "wakes_io");
    wakes_timeout += field_after(rec, total, "wakes_timeout");
    post_queue_hw =
        std::max(post_queue_hw, field_after(rec, total, "queue_depth_hw"));
    hist_after(rec, total, "drain_per_wake", drain);
    hist_after(rec, total, "dispatch_per_tick", dispatch);
    hist_after(rec, total, "lateness_us", lateness);
    const std::size_t service = rec.find("\"service\":", total);
    if (service != std::string::npos) {
      in_flight_hw =
          std::max(in_flight_hw, field_after(rec, service, "in_flight_hw"));
    }
  }
};

/// What a sequence of batches produced.
struct Batches {
  double wall_s = 0.0;  ///< inside run_udp_service calls
  double cpu_s = 0.0;   ///< process CPU inside run_udp_service calls
  std::vector<double> setup_s;  ///< one set-up probe before each batch
  std::size_t completed = 0;
  std::vector<double> latency_ms;  ///< launched_at -> completed_at
  std::vector<double> defer_ms;    ///< launched_at - due
  std::vector<double> completeness;
  double min_cohort_share = 1.0;
  double msgs_sent = 0, msgs_delivered = 0, bytes_sent = 0;
  gridbox::service::DemuxStats demux;
  TelemetryTotals telemetry;
  std::vector<std::string> checks;  ///< deterministic per-instance facts
  bool port_busy = false;
};

/// Runs one batch through run_udp_service and judges every instance.
void run_batch(const UdpServiceConfig& config, Batches& out,
               std::string* telemetry_sink, SpanLog& spans) {
  Tally& t = tally();
  const std::size_t count = config.service.instances;
  t.in_progress.store(count);
  const CpuTimes cpu0 = process_cpu();
  const auto t0 = Clock::now();
  UdpServiceResult r;
  try {
    const ScopedSpan span(spans, "service.run_udp_service");
    r = gridbox::service::run_udp_service(config);
  } catch (const std::exception& e) {
    out.wall_s += seconds_between(t0, Clock::now());
    out.cpu_s += process_cpu().total_s() - cpu0.total_s();
    t.in_progress.store(0);
    t.attempted.fetch_add(count);
    t.failed.fetch_add(count);
    out.port_busy = out.port_busy ||
                    std::strstr(e.what(), "bind(2) failed") != nullptr;
    std::printf("FAILED batch seed=%llu: %s\n",
                static_cast<unsigned long long>(config.service.experiment.seed),
                e.what());
    return;
  }
  out.wall_s += seconds_between(t0, Clock::now());
  out.cpu_s += process_cpu().total_s() - cpu0.total_s();
  t.in_progress.store(0);
  if (telemetry_sink != nullptr) {
    out.telemetry.add_final_record(*telemetry_sink);
    telemetry_sink->clear();
  }
  const auto& d = r.result.metrics.demux;
  out.demux.delivered += d.delivered;
  out.demux.malformed_envelope += d.malformed_envelope;
  out.demux.unknown_instance += d.unknown_instance;
  out.demux.retired_instance += d.retired_instance;
  out.demux.unrouted_member += d.unrouted_member;
  out.demux.closed_sends += d.closed_sends;
  std::size_t seen = 0;
  for (const auto& inst : r.result.instances) {
    ++seen;
    t.attempted.fetch_add(1);
    const std::string why =
        verdict(inst.completed, inst.measurement, inst.invariant_violations,
                inst.participants);
    out.min_cohort_share =
        std::min(out.min_cohort_share,
                 cohort_share(inst.measurement, inst.participants));
    std::uint64_t truth_bits = 0;
    std::memcpy(&truth_bits, &inst.measurement.true_value, sizeof truth_bits);
    char check[128];
    std::snprintf(check, sizeof check,
                  "check: instance=%u true_value_bits=%016llx",
                  inst.id, static_cast<unsigned long long>(truth_bits));
    out.checks.emplace_back(check);
    if (!why.empty()) {
      t.failed.fetch_add(1);
      std::printf("FAILED instance %u: %s\n", inst.id, why.c_str());
      continue;
    }
    ++out.completed;
    out.latency_ms.push_back(
        static_cast<double>((inst.completed_at - inst.launched_at).ticks()) *
        1e-3);
    out.defer_ms.push_back(
        static_cast<double>(
            (inst.launched_at -
             SimTime::micros(kEpochInterval.ticks() * inst.id))
                .ticks()) *
        1e-3);
    out.completeness.push_back(inst.measurement.mean_completeness);
    out.msgs_sent += static_cast<double>(inst.network.messages_sent);
    out.msgs_delivered += static_cast<double>(inst.network.messages_delivered);
    out.bytes_sent += static_cast<double>(inst.network.bytes_sent);
  }
  // Instances the engine never reported still count as attempted and failed.
  if (seen < count) {
    t.attempted.fetch_add(count - seen);
    t.failed.fetch_add(count - seen);
  }
}

/// Runs batches until `budget_s` of wall time is used (at least one),
/// each preceded by a set-up probe so set-up is sampled across the run.
Batches run_batches(const Options& options, const Shape& shape,
                    std::size_t shards, double budget_s, bool telemetry,
                    SpanLog& spans) {
  Batches out;
  std::string sink;
  std::size_t b = 0;
  do {
    try {
      out.setup_s.push_back(udp_setup_s(shape.n, shards));
    } catch (const std::exception& e) {
      std::printf("set-up failed: %s\n", e.what());
      out.port_busy = true;
      tally().attempted.fetch_add(1);
      tally().failed.fetch_add(1);
      break;
    }
    UdpServiceConfig config =
        config_for(shape, shards, seed_of(options.seed, b++));
    if (telemetry) {
      config.service.experiment.telemetry.enabled = true;
      config.service.experiment.telemetry.sink = &sink;
    }
    run_batch(config, out, telemetry ? &sink : nullptr, spans);
  } while (out.wall_s < budget_s && !out.port_busy);
  return out;
}

Result finish(Result result, bool port_busy, std::size_t n) {
  result.attempted = std::max<std::uint64_t>(1, tally().attempted.load());
  result.failed = tally().failed.load();
  result.correct = result.failed == 0 && !port_busy;
  if (port_busy) {
    std::printf("FAILED: port window %u-%u is in use (counted as a failed "
                "run, not retried)\n", kPortBase,
                static_cast<unsigned>(kPortBase + n - 1));
  }
  return result;
}

}  // namespace

Result run_service_udp(const Options& options) {
  const std::size_t shards = std::min<std::size_t>(4, usable_cpus());
  std::printf("service: reactor_shards=%zu window=%zu epoch_interval_us=%lld "
              "round_us=%lld port_window=%u+N\n", shards, kWindow,
              static_cast<long long>(kEpochInterval.ticks()),
              static_cast<long long>(kRound.ticks()), kPortBase);
  Shape shape;
  if (options.tiny) {
    shape.n = 32;
    shape.instances_per_batch = 8;
    shape.window = 4;
  }

  // The first set-up probe, before anything is timed, is also the check
  // that the port window is free. Later probes precede each batch.
  std::vector<double> setups;
  try {
    setups.push_back(udp_setup_s(shape.n, shards));
  } catch (const std::exception& e) {
    std::printf("set-up failed: %s\n", e.what());
    tally().attempted.fetch_add(1);
    tally().failed.fetch_add(1);
    return finish(Result{}, true, shape.n);
  }

  if (options.tiny) {
    SpanLog no_spans(false);
    const Batches b = run_batches(options, shape, shards, 0.0, false, no_spans);
    for (const std::string& line : b.checks) std::printf("%s\n", line.c_str());
    return finish(Result{}, b.port_busy, shape.n);
  }

  if (!options.trace) {
    const Noise noise0 = noise_now();
    SpanLog no_spans(false);
    const Batches b =
        run_batches(options, shape, shards, options.seconds, false, no_spans);
    print_noise(noise_delta(noise0, noise_now()));
    Result result = finish(Result{}, b.port_busy, shape.n);
    const auto done =
        static_cast<double>(std::max<std::size_t>(1, b.completed));
    print_run_summary(b.latency_ms, result, b.min_cohort_share);
    result.add("aggregations_per_s",
               static_cast<double>(b.completed) / b.wall_s, "1/s");
    result.add("agg_ms_p50", median(b.latency_ms), "ms");
    result.add("cpu_ms_per_agg", b.cpu_s * 1e3 / done, "ms");
    setups.insert(setups.end(), b.setup_s.begin(), b.setup_s.end());
    result.add("setup_s", median(setups), "s");
    result.add("peak_rss_mb", peak_rss_mib(), "MiB");
    result.add("msgs_per_member",
               b.msgs_sent / (done * static_cast<double>(shape.n)), "msgs");
    result.add("completeness", mean(b.completeness), "fraction");
    return result;
  }

  // Traced: an untraced share as the overhead baseline, then the same
  // batches with telemetry armed and spans around each call.
  SpanLog no_spans(false);
  SpanLog spans(true);
  LayerMetrics lm;
  const CpuTimes cpu0 = process_cpu();
  const Batches plain = run_batches(options, shape, shards,
                                    options.seconds * 0.4, false, no_spans);
  const CpuTimes cpu1 = process_cpu();
  lm.udp_sys_cpu_share =
      (cpu1.sys_s - cpu0.sys_s) / (cpu1.total_s() - cpu0.total_s());
  const Batches traced = run_batches(options, shape, shards,
                                     options.seconds * 0.4, true, spans);
  const double plain_per = plain.wall_s / static_cast<double>(plain.completed);
  const double traced_per =
      traced.wall_s / static_cast<double>(traced.completed);
  lm.trace_overhead_share = traced_per / plain_per - 1.0;

  const auto done = static_cast<double>(traced.completed);
  const TelemetryTotals& tel = traced.telemetry;
  lm.reactor_polls_per_agg = static_cast<double>(tel.polls) / done;
  lm.reactor_wake_io_ratio =
      static_cast<double>(tel.wakes_io) /
      static_cast<double>(tel.wakes_io + tel.wakes_timeout);
  lm.reactor_drain_per_wake_p50 = hist_quantile(tel.drain, 0.5);
  lm.reactor_dispatch_per_tick_p50 = hist_quantile(tel.dispatch, 0.5);
  lm.reactor_timer_late_us_p99 = hist_quantile(tel.lateness, 0.99);
  lm.reactor_post_queue_hw = static_cast<double>(tel.post_queue_hw);
  lm.service_in_flight_hw = static_cast<double>(tel.in_flight_hw);
  lm.service_defer_ms_p50 = median(traced.defer_ms);
  lm.net_delivery_ratio = traced.msgs_delivered / traced.msgs_sent;
  lm.net_bytes_per_msg = traced.bytes_sent / traced.msgs_sent;
  const auto& d = traced.demux;
  const double wasted = static_cast<double>(
      d.malformed_envelope + d.unknown_instance + d.retired_instance +
      d.unrouted_member);
  const double received = static_cast<double>(d.delivered) + wasted;
  lm.mux_frames_per_agg = received / done;
  lm.mux_wasted_share = wasted / received;
  lm.mux_closed_sends = static_cast<double>(d.closed_sends) / done;

  {
    const ScopedSpan s(spans, "layer.isolated");
    const auto frame_bytes = static_cast<std::size_t>(lm.net_bytes_per_msg);
    std::vector<double> builds;
    time_world_builds(
        config_for(shape, shards, seed_of(options.seed, 0)).service.experiment,
        0.25, 3, builds, spans);
    lm.runner_setup_ms = median(builds) * 1e3;
    measure_isolated(lm, shape.n, 4 * shape.n, frame_bytes);
  }
  std::printf("trace overhead: traced %.4f ms vs untraced %.4f ms of wall "
              "per aggregation (%.4f)\n", traced_per * 1e3, plain_per * 1e3,
              lm.trace_overhead_share);
  report_spans(spans, options);

  Result result =
      finish(Result{}, plain.port_busy || traced.port_busy, shape.n);
  lm.append_to(result);
  return result;
}

}  // namespace gridbench
