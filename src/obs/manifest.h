// Per-invocation run manifest (run.json).
//
// A manifest makes a result file self-describing: it records everything
// needed to reproduce the runs it covers (canonical config text + hash,
// chaos spec, git revision, seeds, jobs) plus what each run did (phase
// timeline, message totals, metric snapshot). The obs layer cannot see
// runner::ExperimentConfig, so the runner hands in the already-canonical
// config text; the hash is computed here so every producer hashes the same
// way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/timeline.h"

namespace gridbox::obs {

/// FNV-1a 64-bit over bytes; the config fingerprint hash.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& bytes);

struct RunManifest {
  /// Bumped when the JSON layout changes shape.
  static constexpr const char* kSchema = "gridbox-run-manifest/1";

  std::string tool;            ///< producing binary, e.g. "gridbox_sim"
  std::string git_rev;         ///< obs::git_revision()
  std::string config_text;     ///< canonical key=value config serialization
  std::string chaos_spec;      ///< raw spec text; empty = none
  std::uint64_t base_seed = 0;
  std::size_t jobs = 1;
  double wall_s = 0.0;         ///< host wall-clock for the whole invocation

  struct RunEntry {
    std::uint64_t seed = 0;
    double mean_completeness = 0.0;
    std::uint64_t network_messages = 0;
    std::uint64_t sim_events = 0;
    std::int64_t sim_end_us = 0;       ///< last simulated timestamp
    PhaseTimeline timeline;            ///< may be empty (metrics off)
    MetricsSnapshot metrics;           ///< may be empty (metrics off)
  };
  std::vector<RunEntry> runs;

  [[nodiscard]] std::uint64_t config_hash() const {
    return fnv1a64(config_text);
  }

  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path` (overwrites). Returns false on IO error.
  bool write(const std::string& path) const;
};

}  // namespace gridbox::obs
