#include "workloads.h"

#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace gridbench {

std::string verdict(bool completed,
                    const gridbox::protocols::RunMeasurement& m,
                    std::size_t invariant_violations, std::size_t cohort) {
  std::ostringstream why;
  if (!completed) why << "did not complete; ";
  if (m.finished_nodes != m.survivors) {
    why << "finished " << m.finished_nodes << "/" << m.survivors
        << " survivors; ";
  }
  if (m.audit_violations != 0) {
    why << "audit violations " << m.audit_violations << "; ";
  }
  if (m.reconstruction_failures != 0) {
    why << "reconstruction failures " << m.reconstruction_failures << "; ";
  }
  if (invariant_violations != 0) {
    why << "invariant violations " << invariant_violations << "; ";
  }
  const double of_cohort = cohort_share(m, cohort);
  if (of_cohort < kCompletenessFloor) {
    why << "completeness " << m.mean_completeness << " (" << of_cohort
        << " of a cohort of " << cohort << ") below floor "
        << kCompletenessFloor << "; ";
  }
  return why.str();
}

double cohort_share(const gridbox::protocols::RunMeasurement& m,
                    std::size_t cohort) {
  return cohort == 0 ? 0.0
                     : m.mean_completeness *
                           static_cast<double>(m.group_size) /
                           static_cast<double>(cohort);
}

Tally& tally() {
  static Tally t;
  return t;
}

Watchdog::Watchdog(double deadline_s) {
  thread_ = std::thread([this, deadline_s]() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (cv_.wait_for(lock, std::chrono::duration<double>(deadline_s),
                     [this]() { return disarmed_; })) {
      return;
    }
    Tally& t = tally();
    const std::uint64_t pending = t.in_progress.load();
    Result r;
    r.correct = false;
    r.attempted = std::max<std::uint64_t>(1, t.attempted.load() + pending);
    r.failed = t.failed.load() + std::max<std::uint64_t>(1, pending);
    std::printf("watchdog: run exceeded its %.0f s wall deadline; %llu "
                "in-progress aggregations counted failed\n",
                deadline_s, static_cast<unsigned long long>(pending));
    std::printf("%s\n", r.to_json().c_str());
    std::fflush(stdout);
    // The stalled work holds threads that cannot be joined; end here.
    std::_Exit(0);
  });
}

Watchdog::~Watchdog() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    disarmed_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void LayerMetrics::append_to(Result& r) const {
  r.add("runner.setup_ms", runner_setup_ms, "ms");
  r.add("sim.events_per_agg", sim_events_per_agg, "count");
  r.add("sim.events_per_s", sim_events_per_s, "1/s");
  r.add("sim.queue_peak", sim_queue_peak, "count");
  r.add("sim.queue_push_pop_ns", sim_queue_push_pop_ns, "ns");
  r.add("net.delivery_ratio", net_delivery_ratio, "fraction");
  r.add("net.bytes_per_msg", net_bytes_per_msg, "B");
  r.add("net.send_deliver_ns", net_send_deliver_ns, "ns");
  r.add("udp.datagram_codec_ns", udp_datagram_codec_ns, "ns");
  r.add("udp.sys_cpu_share", udp_sys_cpu_share, "fraction");
  r.add("reactor.polls_per_agg", reactor_polls_per_agg, "count");
  r.add("reactor.wake_io_ratio", reactor_wake_io_ratio, "fraction");
  r.add("reactor.drain_per_wake_p50", reactor_drain_per_wake_p50, "count");
  r.add("reactor.dispatch_per_tick_p50", reactor_dispatch_per_tick_p50,
        "count");
  r.add("reactor.timer_late_us_p99", reactor_timer_late_us_p99, "us");
  r.add("reactor.post_queue_hw", reactor_post_queue_hw, "count");
  r.add("gossip.rounds_per_member", gossip_rounds_per_member, "count");
  r.add("gossip.useful_ratio", gossip_useful_ratio, "fraction");
  r.add("gossip.phase_conclusions", gossip_phase_conclusions, "count");
  r.add("invariant.cost_ms", invariant_cost_ms, "ms");
  r.add("audit.cost_ms", audit_cost_ms, "ms");
  r.add("bitset.merge_ns", bitset_merge_ns, "ns");
  r.add("codec.partial_ns", codec_partial_ns, "ns");
  r.add("mux.frames_per_agg", mux_frames_per_agg, "count");
  r.add("mux.wasted_share", mux_wasted_share, "fraction");
  r.add("mux.closed_sends", mux_closed_sends, "count");
  r.add("envelope.wrap_unwrap_ns", envelope_wrap_unwrap_ns, "ns");
  r.add("service.defer_ms_p50", service_defer_ms_p50, "ms");
  r.add("service.in_flight_hw", service_in_flight_hw, "count");
  r.add("obs.metrics_cost_ms", obs_metrics_cost_ms, "ms");
  r.add("ledger.residual_share", ledger_residual_share, "fraction");
  r.add("trace.overhead_share", trace_overhead_share, "fraction");
}

void print_noise(const Noise& n) {
  std::printf("noise: steal_ticks=%llu voluntary_csw=%llu "
              "involuntary_csw=%llu\n",
              static_cast<unsigned long long>(n.steal_ticks),
              static_cast<unsigned long long>(n.voluntary_csw),
              static_cast<unsigned long long>(n.involuntary_csw));
}

void print_run_summary(const std::vector<double>& wall_ms,
                       const Result& result, double min_cohort_share) {
  const Tail tail = tail_of(wall_ms);
  if (tail.percentile > 0.0) {
    std::printf("agg_ms_tail: p%g = %.4f ms (n=%zu, %zu beyond)\n",
                tail.percentile, tail.value, tail.samples, tail.beyond);
  } else {
    std::printf("agg_ms_tail: not reported (n=%zu, fewer than 10 beyond any "
                "percentile)\n", tail.samples);
  }
  std::printf("fail_share: %.6f (%llu/%llu)\n",
              static_cast<double>(result.failed) /
                  static_cast<double>(
                      std::max<std::uint64_t>(1, result.attempted)),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::printf("completeness_min: %.4f of the cohort (floor %.2f)\n",
              min_cohort_share, kCompletenessFloor);
}

void measure_isolated(LayerMetrics& lm, std::size_t n, std::size_t queue_depth,
                      std::size_t frame_bytes) {
  lm.sim_queue_push_pop_ns = queue_push_pop_ns(queue_depth);
  lm.net_send_deliver_ns = send_deliver_ns(n);
  lm.bitset_merge_ns = bitset_merge_ns(n);
  lm.codec_partial_ns = partial_codec_ns();
  lm.udp_datagram_codec_ns = datagram_codec_ns(frame_bytes);
  lm.envelope_wrap_unwrap_ns = envelope_wrap_unwrap_ns(frame_bytes);
}

void report_spans(const SpanLog& spans, const Options& options) {
  for (const std::string& line : spans.summary()) {
    std::printf("%s\n", line.c_str());
  }
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  spans.write_jsonl(path);
  std::printf("spans written to %s\n", path.c_str());
}

}  // namespace gridbench
