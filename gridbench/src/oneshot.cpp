// The simulator workloads: a closed loop of one-shot run_experiment calls
// over consecutive seeds, one thread, audit and invariant checking on.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "src/runner/experiment.h"
#include "workloads.h"
#include "world.h"

namespace gridbench {

namespace {

using gridbox::runner::ExperimentConfig;
using gridbox::runner::RunResult;

/// The paper's §7 protocol and faults (hier-gossip, K=4, M=2,
/// ucastl=0.25, pf=0.001 are the config defaults), audited and
/// invariant-checked so every aggregation can be judged.
ExperimentConfig config_for(std::size_t n, std::uint64_t seed) {
  ExperimentConfig config;
  config.protocol = gridbox::runner::ProtocolKind::kHierGossip;
  config.group_size = n;
  config.audit = true;
  config.check_invariants = true;
  config.seed = seed;
  config.jobs = 1;
  return config;
}

/// The deterministic fingerprint of one aggregation: what a repeat of the
/// same seed must reproduce exactly.
struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t completeness_bits = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint fingerprint_of(const RunResult& r) {
  Fingerprint f;
  f.events = r.sim_events;
  f.sent = r.network.messages_sent;
  f.delivered = r.network.messages_delivered;
  std::memcpy(&f.completeness_bits, &r.measurement.mean_completeness,
              sizeof f.completeness_bits);
  return f;
}

/// One timed, judged aggregation.
struct Sample {
  double wall_ms = 0.0;
  bool ok = false;
  RunResult result;
};

Sample run_one(const ExperimentConfig& config) {
  Tally& t = tally();
  t.in_progress.store(1);
  Sample s;
  const auto t0 = Clock::now();
  std::string why;
  try {
    s.result = gridbox::runner::run_experiment(config);
    s.wall_ms = seconds_between(t0, Clock::now()) * 1e3;
    why = verdict(true, s.result.measurement, 0, config.group_size);
  } catch (const std::exception& e) {
    // InvariantError (a violated invariant) and every other escape fail
    // the aggregation; they never end the benchmark.
    s.wall_ms = seconds_between(t0, Clock::now()) * 1e3;
    why = std::string("threw: ") + e.what();
  }
  s.ok = why.empty();
  t.in_progress.store(0);
  t.attempted.fetch_add(1);
  if (!s.ok) {
    t.failed.fetch_add(1);
    std::printf("FAILED seed=%llu: %s\n",
                static_cast<unsigned long long>(config.seed), why.c_str());
  }
  return s;
}

/// Self-test: three aggregations, deterministic fingerprints only.
Result run_tiny(const Options& options, std::size_t n) {
  Result result;
  for (std::size_t i = 0; i < 3; ++i) {
    const Sample s = run_one(config_for(n, seed_of(options.seed, i)));
    const Fingerprint f = fingerprint_of(s.result);
    std::printf("check: seed=%llu ok=%d events=%llu sent=%llu delivered=%llu "
                "completeness_bits=%016llx\n",
                static_cast<unsigned long long>(seed_of(options.seed, i)),
                s.ok ? 1 : 0, static_cast<unsigned long long>(f.events),
                static_cast<unsigned long long>(f.sent),
                static_cast<unsigned long long>(f.delivered),
                static_cast<unsigned long long>(f.completeness_bits));
  }
  result.attempted = tally().attempted.load();
  result.failed = tally().failed.load();
  result.correct = result.failed == 0;
  return result;
}

/// Untraced: the end-to-end metrics.
Result run_timed(const Options& options, std::size_t n) {
  Result result;
  SpanLog no_spans(false);
  std::vector<double> setup_s;
  time_world_builds(config_for(n, seed_of(options.seed, 0)), 0.25, 3, setup_s,
                    no_spans);

  // Warm-up aggregations (untimed) so allocator pools and caches reach
  // their steady state; skipped where one run alone is seconds long.
  if (n < 5000) {
    for (std::size_t i = 0; i < 5; ++i) {
      (void)run_one(config_for(n, seed_of(options.seed, 900'000 + i)));
    }
  }

  std::vector<double> wall_ms;
  std::vector<double> completeness;
  double min_cohort_share = 1.0;
  double msgs_per_member_sum = 0.0;
  Fingerprint first;
  // Per-5-second window medians, printed so a slow run shows whether the
  // host was slow throughout or in bursts.
  std::vector<double> window_p50;
  std::size_t window_start = 0;
  // Wall and CPU are summed over the aggregations alone: the set-up
  // samples taken between them are not aggregation work.
  double agg_wall_s = 0.0;
  double agg_cpu_s = 0.0;
  const Noise noise0 = noise_now();
  const auto t0 = Clock::now();
  const auto budget = std::chrono::duration<double>(options.seconds);
  std::size_t i = 0;
  do {
    const CpuTimes c0 = process_cpu();
    const Sample s = run_one(config_for(n, seed_of(options.seed, i)));
    agg_cpu_s += process_cpu().total_s() - c0.total_s();
    agg_wall_s += s.wall_ms * 1e-3;
    if (i == 0) first = fingerprint_of(s.result);
    wall_ms.push_back(s.wall_ms);
    completeness.push_back(s.result.measurement.mean_completeness);
    min_cohort_share =
        std::min(min_cohort_share, cohort_share(s.result.measurement, n));
    msgs_per_member_sum += static_cast<double>(s.result.network.messages_sent) /
                           static_cast<double>(n);
    ++i;
    if (seconds_between(t0, Clock::now()) >= 5.0 * (window_p50.size() + 1)) {
      window_p50.push_back(median(std::vector<double>(
          wall_ms.begin() + static_cast<std::ptrdiff_t>(window_start),
          wall_ms.end())));
      window_start = wall_ms.size();
    }
    // Set-up is sampled across the whole run (about 1% of its time), so
    // it sees the same host conditions as the aggregations.
    time_world_builds(config_for(n, seed_of(options.seed, 0)),
                      0.01 * s.wall_ms * 1e-3, 1, setup_s, no_spans);
  } while (Clock::now() - t0 < budget);
  print_noise(noise_delta(noise0, noise_now()));
  std::printf("windows: 5 s agg_ms_p50 =");
  for (const double w : window_p50) std::printf(" %.4g", w);
  std::printf("\n");

  // A repeat of the first seed must reproduce it bit for bit.
  const Sample again = run_one(config_for(n, seed_of(options.seed, 0)));
  const bool reproducible = fingerprint_of(again.result) == first;
  if (!reproducible) std::printf("FAILED: seed repeat did not reproduce\n");

  const auto aggs = static_cast<double>(wall_ms.size());
  result.attempted = tally().attempted.load();
  result.failed = tally().failed.load();
  result.correct = result.failed == 0 && reproducible;
  print_run_summary(wall_ms, result, min_cohort_share);

  result.add("aggregations_per_s", aggs / agg_wall_s, "1/s");
  result.add("agg_ms_p50", median(wall_ms), "ms");
  result.add("cpu_ms_per_agg", agg_cpu_s * 1e3 / aggs, "ms");
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", peak_rss_mib(), "MiB");
  result.add("msgs_per_member", msgs_per_member_sum / aggs, "msgs");
  result.add("completeness", mean(completeness), "fraction");
  return result;
}

/// Mean wall ms of `config` variants over `seeds`, run interleaved with
/// the base configuration so host drift hits both sides alike. Returns
/// (variant − base) per aggregation.
template <typename Tweak>
double differential_ms(std::size_t n, const std::vector<std::uint64_t>& seeds,
                       Tweak tweak, SpanLog& spans, const char* name,
                       RunResult* variant_out = nullptr) {
  double diff = 0.0;
  for (const std::uint64_t seed : seeds) {
    const ExperimentConfig base = config_for(n, seed);
    ExperimentConfig variant = base;
    tweak(variant);
    const Sample b = run_one(base);
    Sample v;
    {
      const ScopedSpan span(spans, name);
      v = run_one(variant);
    }
    diff += v.wall_ms - b.wall_ms;
    if (variant_out != nullptr) *variant_out = v.result;
  }
  return diff / static_cast<double>(seeds.size());
}

/// Traced: per-layer metrics, the ledger, and the tracing overhead.
Result run_traced(const Options& options, std::size_t n) {
  Result result;
  SpanLog spans(true);
  LayerMetrics lm;
  const bool large = n >= 5000;
  const auto share = std::chrono::duration<double>(options.seconds * 0.3);

  // A: untraced loop (the overhead baseline).
  std::vector<std::uint64_t> seeds;
  std::vector<double> untraced_ms;
  std::vector<Fingerprint> untraced_fp;
  const CpuTimes cpu0 = process_cpu();
  const auto t0 = Clock::now();
  do {
    const std::uint64_t seed = seed_of(options.seed, seeds.size());
    const Sample s = run_one(config_for(n, seed));
    seeds.push_back(seed);
    untraced_ms.push_back(s.wall_ms);
    untraced_fp.push_back(fingerprint_of(s.result));
  } while (Clock::now() - t0 < share || (large && seeds.size() < 2));
  const CpuTimes cpu1 = process_cpu();
  lm.udp_sys_cpu_share =
      (cpu1.sys_s - cpu0.sys_s) / (cpu1.total_s() - cpu0.total_s());

  // B: the same seeds traced — spans around each call, gossip counts.
  std::vector<double> traced_ms;
  CountingTrace counts;
  double events = 0, sent = 0, delivered = 0, dead = 0, bytes = 0;
  bool reproducible = true;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ExperimentConfig config = config_for(n, seeds[i]);
    config.gossip.trace = &counts;
    Sample s;
    const auto a0 = Clock::now();
    {
      const ScopedSpan run(spans, "runner.run_experiment");
      s = run_one(config);
    }
    traced_ms.push_back(seconds_between(a0, Clock::now()) * 1e3);
    reproducible = reproducible && fingerprint_of(s.result) == untraced_fp[i];
    events += static_cast<double>(s.result.sim_events);
    sent += static_cast<double>(s.result.network.messages_sent);
    delivered += static_cast<double>(s.result.network.messages_delivered);
    dead += static_cast<double>(s.result.network.messages_dead_dest);
    bytes += static_cast<double>(s.result.network.bytes_sent);
  }
  if (!reproducible) std::printf("FAILED: traced repeat did not reproduce\n");
  const auto aggs = static_cast<double>(seeds.size());
  const double traced_mean = mean(traced_ms);
  lm.trace_overhead_share = traced_mean / mean(untraced_ms) - 1.0;
  lm.sim_events_per_agg = events / aggs;
  lm.sim_events_per_s = events / (traced_mean * aggs * 1e-3);
  lm.net_delivery_ratio = delivered / sent;
  lm.net_bytes_per_msg = bytes / sent;
  lm.gossip_rounds_per_member = static_cast<double>(counts.rounds) /
                                (aggs * static_cast<double>(n));
  lm.gossip_useful_ratio =
      static_cast<double>(counts.remote_gains) / delivered;
  lm.gossip_phase_conclusions = static_cast<double>(counts.conclusions) /
                                (aggs * static_cast<double>(n));

  // C: on/off differentials, paired per seed.
  const std::vector<std::uint64_t> diff_seeds(
      seeds.begin(), seeds.begin() + (large ? 1 : std::min<std::size_t>(
                                                      seeds.size(), 40)));
  lm.audit_cost_ms = -differential_ms(
      n, diff_seeds, [](ExperimentConfig& c) { c.audit = false; }, spans,
      "diff.audit_off");
  lm.invariant_cost_ms = -differential_ms(
      n, diff_seeds, [](ExperimentConfig& c) { c.check_invariants = false; },
      spans, "diff.invariants_off");
  RunResult with_metrics;
  lm.obs_metrics_cost_ms = differential_ms(
      n, diff_seeds, [](ExperimentConfig& c) { c.collect_metrics = true; },
      spans, "diff.metrics_on", &with_metrics);
  lm.sim_queue_peak = static_cast<double>(
      with_metrics.metrics.gauges.count("event_queue_depth") != 0
          ? with_metrics.metrics.gauges.at("event_queue_depth")
          : 0);

  // D: isolated per-layer costs at this workload's sizes.
  const auto frame_bytes = static_cast<std::size_t>(lm.net_bytes_per_msg);
  {
    const ScopedSpan s(spans, "layer.isolated");
    std::vector<double> builds;
    time_world_builds(config_for(n, seeds.front()), 0.25, 3, builds, spans);
    lm.runner_setup_ms = median(builds) * 1e3;
    measure_isolated(
        lm, n, static_cast<std::size_t>(std::max(1.0, lm.sim_queue_peak)),
        frame_bytes);
  }

  // Ledger: Σ(ns/op × op count) plus the differentials, against the span
  // around the run call. Bitset merges happen inside the audit layer, so
  // they are covered by the audit differential, not added again.
  const double per = 1.0 / aggs;
  const double delivery_events = (delivered + dead) * per;
  const double remote_gains =
      static_cast<double>(counts.remote_gains) * per;
  struct Term {
    const char* name;
    double count;
    double unit_ns;
    [[nodiscard]] double ms() const { return count * unit_ns * 1e-6; }
  };
  const Term terms[] = {
      {"runner.world_build", 1, lm.runner_setup_ms * 1e6},
      {"net.send_deliver", delivery_events, lm.net_send_deliver_ns},
      {"sim.queue_push_pop", lm.sim_events_per_agg - delivery_events,
       lm.sim_queue_push_pop_ns},
      {"codec.partial", remote_gains, lm.codec_partial_ns},
      {"audit (on-off)", 1, lm.audit_cost_ms * 1e6},
      {"invariant (on-off)", 1, lm.invariant_cost_ms * 1e6},
  };
  double explained = 0.0;
  for (const Term& t : terms) explained += t.ms();
  const double residual = traced_mean - explained;
  lm.ledger_residual_share = residual / traced_mean;
  std::printf("ledger %s (per aggregation, span runner.run_experiment = "
              "%.4f ms)\n", options.workload.c_str(), traced_mean);
  for (const Term& t : terms) {
    std::printf("ledger   %-20s count=%-12.1f ns/op=%-12.2f ms=%-10.4f "
                "share=%.4f\n", t.name, t.count, t.unit_ns, t.ms(),
                t.ms() / traced_mean);
  }
  std::printf("ledger   %-20s ms=%.4f share=%.4f\n", "residual", residual,
              lm.ledger_residual_share);
  std::printf("trace overhead: traced %.4f ms vs untraced %.4f ms per "
              "aggregation over %zu seeds (%.4f)\n", traced_mean,
              mean(untraced_ms), seeds.size(), lm.trace_overhead_share);

  report_spans(spans, options);

  result.attempted = tally().attempted.load();
  result.failed = tally().failed.load();
  result.correct = result.failed == 0 && reproducible;
  lm.append_to(result);
  return result;
}

}  // namespace

Result run_oneshot(const Options& options, std::size_t n) {
  if (options.tiny) return run_tiny(options, n);
  return options.trace ? run_traced(options, n) : run_timed(options, n);
}

}  // namespace gridbench
