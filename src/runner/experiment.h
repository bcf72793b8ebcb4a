// One end-to-end simulated run: group -> votes -> hierarchy -> network ->
// protocol nodes -> measurement.
#pragma once

#include <cstdint>

#include "src/net/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/protocols/protocol_stats.h"
#include "src/runner/config.h"

namespace gridbox::runner {

struct RunResult {
  protocols::RunMeasurement measurement;
  net::NetworkStats network;
  /// Mean Euclidean link distance per message (0 unless positions assigned).
  double mean_link_distance = 0.0;
  /// Effective analysis-model b for these knobs (hier-gossip only, else 0).
  double effective_b = 0.0;

  /// Simulator events executed (always filled; drives events/s in benches).
  std::uint64_t sim_events = 0;
  /// Last simulated timestamp (always filled).
  std::int64_t sim_end_us = 0;

  // Observability outputs, empty unless config.collect_metrics.
  obs::MetricsSnapshot metrics;
  obs::PhaseTimeline timeline;
};

/// Executes one run. Deterministic in config (including config.seed).
[[nodiscard]] RunResult run_experiment(const ExperimentConfig& config);

}  // namespace gridbox::runner
