// Command-line front end for the experiment runner (the `gridbox_sim` tool).
//
// The parser is a library function so tests can exercise it without spawning
// processes; the tool's main() is a thin wrapper (tools/gridbox_sim.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/runner/config.h"

namespace gridbox::runner {

struct CliOptions {
  ExperimentConfig config;
  std::size_t runs = 1;
  std::string csv_path;  ///< empty = no CSV output
  bool show_help = false;
  /// Differential oracle mode: run all four protocols over the same
  /// scenario and cross-check their audited estimates (--differential).
  bool differential = false;

  /// --metrics: collect per-run metric snapshots and print the merged
  /// snapshot (run order) as JSON after the summary.
  bool metrics = false;
  /// --trace-out PATH: JSONL trace per run. With --runs R > 1, run r writes
  /// PATH with "-run<r>" inserted before the extension.
  std::string trace_out;
  /// --run-manifest PATH: write a run.json manifest covering all runs
  /// (implies metric collection so per-run timelines exist).
  std::string manifest_path;
  /// --lineage PATH: write the causal vote-lineage forest per run as a
  /// "gridbox-lineage/1" JSON document (per-run "-run<r>" suffix as above).
  std::string lineage_out;
  /// --curves-out PATH: write per-run empirical epidemic curves (plus the
  /// analytic model for hier-gossip) as a "gridbox-curves/1" JSON document.
  std::string curves_out;
  /// --flight-recorder PATH: arm a bounded in-memory event ring per run and
  /// dump it (config + chaos spec + event tail) to PATH when the run dies on
  /// an invariant violation. Nothing is written for clean runs.
  std::string flight_out;

  /// --instances I > 0: service mode — stream I concurrent protocol
  /// instances through one simulated membership/transport (docs/service.md).
  /// Incompatible with --runs/--differential; --lineage then writes one
  /// "gridbox-lineage-multi/1" document for gridbox_explain --instance.
  std::size_t instances = 0;
  /// --epoch-interval-us U: service launch cadence.
  SimTime epoch_interval = SimTime::millis(50);
  /// --in-flight W: service bounded in-flight window.
  std::size_t in_flight = 8;
};

/// The trace file a given run writes: `base` itself for a single run, else
/// "-run<run>" inserted before the extension (trace.jsonl -> trace-run3.jsonl).
[[nodiscard]] std::string trace_path_for_run(const std::string& base,
                                             std::size_t run,
                                             std::size_t total_runs);

struct CliParseResult {
  std::optional<CliOptions> options;  ///< set on success
  std::string error;                  ///< set on failure
};

/// Strict numeric flag values, shared by the gridbox_sim and gridbox_node
/// front ends. The whole of `value` must parse; an integer is plain decimal
/// digits (no sign, no spaces) no greater than `max`. On failure returns
/// false and sets `*error` to a one-line message naming the flag.
[[nodiscard]] bool parse_uint_flag(const std::string& flag,
                                   const std::string& value, std::uint64_t max,
                                   std::uint64_t* out, std::string* error);
[[nodiscard]] bool parse_double_flag(const std::string& flag,
                                     const std::string& value, double* out,
                                     std::string* error);

/// parse_uint_flag bounded by the type of `*out` (65535 for a port), so no
/// value can wrap into a different one.
template <typename T>
[[nodiscard]] bool parse_uint_flag(const std::string& flag,
                                   const std::string& value, T* out,
                                   std::string* error) {
  std::uint64_t parsed = 0;
  if (!parse_uint_flag(flag, value, std::numeric_limits<T>::max(), &parsed,
                       error)) {
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

/// Parses gridbox_sim flags (see usage_text()). `args` excludes argv[0].
[[nodiscard]] CliParseResult parse_cli(const std::vector<std::string>& args);

/// The --help text.
[[nodiscard]] std::string usage_text();

/// Runs the experiment(s) described by `options` and prints per-run rows and
/// a summary to stdout. Returns a process exit code.
int run_cli(const CliOptions& options);

}  // namespace gridbox::runner
