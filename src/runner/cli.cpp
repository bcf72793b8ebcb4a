#include "src/runner/cli.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "src/common/ensure.h"
#include "src/common/thread_pool.h"
#include "src/net/chaos.h"
#include "src/obs/build_info.h"
#include "src/obs/curves.h"
#include "src/obs/event_log.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lineage.h"
#include "src/obs/manifest.h"
#include "src/obs/trace_sink.h"
#include "src/runner/differential.h"
#include "src/runner/experiment.h"
#include "src/runner/stats.h"
#include "src/runner/table.h"
#include "src/service/service.h"

namespace gridbox::runner {

bool parse_uint_flag(const std::string& flag, const std::string& value,
                     std::uint64_t max, std::uint64_t* out,
                     std::string* error) {
  std::uint64_t parsed = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  const bool too_big = ec == std::errc::result_out_of_range;
  if (ptr != end || (ec != std::errc{} && !too_big)) {
    *error = flag + ": not a non-negative integer: " + value;
    return false;
  }
  if (too_big || parsed > max) {
    *error = flag + ": out of range (max " + std::to_string(max) +
             "): " + value;
    return false;
  }
  *out = parsed;
  return true;
}

bool parse_double_flag(const std::string& flag, const std::string& value,
                       double* out, std::string* error) {
  try {
    std::size_t used = 0;
    *out = std::stod(value, &used);
    if (used == value.size()) return true;
  } catch (const std::exception&) {
    // Not a number, or beyond double's range: reported below.
  }
  *error = flag + ": not a number: " + value;
  return false;
}

namespace {

struct Parser {
  CliOptions options;
  std::string error;

  [[nodiscard]] bool fail(const std::string& message) {
    error = message;
    return false;
  }

  [[nodiscard]] bool parse_protocol(const std::string& value) {
    static const std::map<std::string, ProtocolKind> kNames = {
        {"hier-gossip", ProtocolKind::kHierGossip},
        {"all-to-all", ProtocolKind::kFullyDistributed},
        {"centralized", ProtocolKind::kCentralized},
        {"leader", ProtocolKind::kLeaderElection},
        {"committee", ProtocolKind::kCommittee},
    };
    const auto it = kNames.find(value);
    if (it == kNames.end()) return fail("--protocol: unknown: " + value);
    options.config.protocol = it->second;
    return true;
  }

  [[nodiscard]] bool parse_aggregate(const std::string& value) {
    static const std::map<std::string, agg::AggregateKind> kNames = {
        {"average", agg::AggregateKind::kAverage},
        {"sum", agg::AggregateKind::kSum},
        {"min", agg::AggregateKind::kMin},
        {"max", agg::AggregateKind::kMax},
        {"count", agg::AggregateKind::kCount},
        {"range", agg::AggregateKind::kRange},
        {"stddev", agg::AggregateKind::kStdDev},
    };
    const auto it = kNames.find(value);
    if (it == kNames.end()) return fail("--aggregate: unknown: " + value);
    options.config.aggregate = it->second;
    return true;
  }

  /// --chaos accepts a spec file path or inline text (';' = newline). The
  /// spec is validated here so a typo fails at the command line, not three
  /// runs into a sweep.
  [[nodiscard]] bool parse_chaos(const std::string& value) {
    std::string text;
    if (std::ifstream file(value); file.good()) {
      std::ostringstream content;
      content << file.rdbuf();
      text = content.str();
    } else {
      text = value;
      std::replace(text.begin(), text.end(), ';', '\n');
    }
    try {
      (void)net::ChaosSpec::parse(text);
    } catch (const std::exception& e) {
      return fail(std::string("--chaos: ") + e.what());
    }
    options.config.chaos_spec = text;
    return true;
  }
};

}  // namespace

std::string usage_text() {
  return R"(gridbox_sim — one-shot aggregation experiments (DSN'01 reproduction)

usage: gridbox_sim [flags]

protocol
  --protocol NAME        hier-gossip (default) | all-to-all | centralized |
                         leader | committee
  --committee-size N     committee size K' for --protocol committee (default 3)

group & hierarchy
  --n N                  group size (default 200)
  --k K                  members per grid box / tree fanout (default 4)
  --view-coverage F      fraction of members in each view, (0,1] (default 1)
  --hash NAME            fair (default) | topo   (topo assigns positions)

gossip tuning
  --m M                  gossipees per round (default 2)
  --c C                  rounds-per-phase multiplier (default 1.0)
  --rounds-per-phase R   override the round formula with exactly R rounds
  --exchange MODE        full (default) | single  (values per message)
  --no-early-bump        synchronous phases (analysis model)
  --no-linger            terminate on final-phase saturation

faults
  --loss P               iid unicast loss probability (default 0.25)
  --partition-loss P     soft-partition cross loss; unset = no partition
  --pf P                 per-round member crash probability (default 0.001)
  --chaos SPEC           chaos script: a spec file path, or inline directives
                         separated by ';' (see docs/chaos.md). Network
                         directives replace --loss/--partition-loss

workload & measurement
  --workload NAME        uniform (default) | normal | field
  --aggregate NAME       average (default) | sum | min | max | count |
                         range | stddev
  --audit                verify no-double-counting per run
  --no-invariants        disable the always-on run invariant checker
  --differential         run hier-gossip + all baselines over the same
                         scenario and cross-check audited estimates
                         (exit 2 on any disagreement)
  --seed S               root seed (default 1); run r uses seed S+r
  --runs R               independent runs (default 1)
  --jobs N               worker threads for multi-run execution (default:
                         GRIDBOX_JOBS env var, else hardware concurrency);
                         results are identical for every N
  --csv PATH             also write per-run rows as CSV

service (docs/service.md)
  --instances I          stream I concurrent protocol instances through one
                         membership (service mode; chaos specs may add
                         join/recover churn directives)
  --epoch-interval-us U  launch cadence in µs (default 50000)
  --in-flight W          bounded in-flight window (default 8)

observability
  --metrics              collect per-run metrics and print the merged
                         snapshot (counters/gauges/histograms) as JSON
  --trace-out PATH       write a JSONL event trace per run; with --runs R>1
                         run r writes PATH-run<r> (before the extension)
  --run-manifest PATH    write a run.json manifest: config fingerprint,
                         seeds, per-run phase timelines and metrics
  --lineage PATH         write the causal vote-lineage forest per run as
                         JSON (gridbox-lineage/1; query with gridbox_explain)
  --curves-out PATH      write empirical epidemic curves per run as JSON
                         (gridbox-curves/1; hier-gossip also carries the
                         analytic Bailey model for the same N, K, b)
  --flight-recorder PATH arm a bounded in-memory event ring per run; when a
                         run dies on an invariant violation, dump config +
                         chaos spec + event tail to PATH for replay
  --telemetry-out PATH   stream gridbox-telemetry/1 JSONL health samples
                         (per-lane counters + log2 histograms; view live
                         with gridbox_top --file PATH)
  --telemetry-interval-us U
                         telemetry sampling cadence in simulated µs
                         (default 100000)

  --help                 this text
)";
}

CliParseResult parse_cli(const std::vector<std::string>& args) {
  Parser p;
  ExperimentConfig& config = p.options.config;

  std::size_t i = 0;
  const auto next_value = [&](const std::string& flag,
                              std::string* out) -> bool {
    if (i + 1 >= args.size()) return p.fail(flag + ": missing value");
    *out = args[++i];
    return true;
  };
  const auto uint_value = [&](const std::string& flag, auto* out) {
    std::string value;
    return next_value(flag, &value) &&
           parse_uint_flag(flag, value, out, &p.error);
  };
  const auto double_value = [&](const std::string& flag, double* out) {
    std::string value;
    return next_value(flag, &value) &&
           parse_double_flag(flag, value, out, &p.error);
  };

  for (; i < args.size(); ++i) {
    const std::string& flag = args[i];
    std::string value;
    std::uint64_t u = 0;
    SimTime::underlying us = 0;

    if (flag == "--help" || flag == "-h") {
      p.options.show_help = true;
      return CliParseResult{p.options, ""};
    } else if (flag == "--protocol") {
      if (!next_value(flag, &value) || !p.parse_protocol(value)) break;
    } else if (flag == "--aggregate") {
      if (!next_value(flag, &value) || !p.parse_aggregate(value)) break;
    } else if (flag == "--n") {
      if (!uint_value(flag, &config.group_size)) break;
    } else if (flag == "--k") {
      if (!uint_value(flag, &config.gossip.k)) break;
      config.hierarchy_k = config.gossip.k;
    } else if (flag == "--m") {
      if (!uint_value(flag, &config.gossip.fanout_m)) break;
    } else if (flag == "--c") {
      if (!double_value(flag, &config.gossip.round_multiplier_c)) break;
    } else if (flag == "--rounds-per-phase") {
      if (!uint_value(flag, &config.gossip.rounds_per_phase_override)) break;
    } else if (flag == "--exchange") {
      if (!next_value(flag, &value)) break;
      if (value == "full") {
        config.gossip.exchange_mode =
            protocols::gossip::ExchangeMode::kFullState;
      } else if (value == "single") {
        config.gossip.exchange_mode =
            protocols::gossip::ExchangeMode::kSingleValue;
      } else {
        (void)p.fail("--exchange: unknown: " + value);
        break;
      }
    } else if (flag == "--no-early-bump") {
      config.gossip.early_bump = false;
    } else if (flag == "--no-linger") {
      config.gossip.final_phase_linger = false;
    } else if (flag == "--committee-size") {
      if (!uint_value(flag, &config.committee.committee_size)) break;
    } else if (flag == "--view-coverage") {
      if (!double_value(flag, &config.view_coverage)) break;
    } else if (flag == "--hash") {
      if (!next_value(flag, &value)) break;
      if (value == "fair") {
        config.hash = HashKind::kFair;
      } else if (value == "topo") {
        config.hash = HashKind::kTopoAware;
        config.assign_positions = true;
      } else {
        (void)p.fail("--hash: unknown: " + value);
        break;
      }
    } else if (flag == "--loss") {
      if (!double_value(flag, &config.ucast_loss)) break;
    } else if (flag == "--partition-loss") {
      if (!double_value(flag, &config.partition_loss)) break;
    } else if (flag == "--pf") {
      if (!double_value(flag, &config.crash_probability)) break;
    } else if (flag == "--workload") {
      if (!next_value(flag, &value)) break;
      if (value == "uniform") {
        config.workload = WorkloadKind::kUniform;
      } else if (value == "normal") {
        config.workload = WorkloadKind::kNormal;
      } else if (value == "field") {
        config.workload = WorkloadKind::kField;
        config.assign_positions = true;
      } else {
        (void)p.fail("--workload: unknown: " + value);
        break;
      }
    } else if (flag == "--audit") {
      config.audit = true;
    } else if (flag == "--chaos") {
      if (!next_value(flag, &value) || !p.parse_chaos(value)) break;
    } else if (flag == "--no-invariants") {
      config.check_invariants = false;
    } else if (flag == "--differential") {
      p.options.differential = true;
    } else if (flag == "--seed") {
      if (!uint_value(flag, &config.seed)) break;
    } else if (flag == "--runs") {
      if (!uint_value(flag, &u)) break;
      if (u == 0) {
        (void)p.fail("--runs: must be at least 1");
        break;
      }
      p.options.runs = static_cast<std::size_t>(u);
    } else if (flag == "--jobs") {
      if (!uint_value(flag, &u)) break;
      if (u == 0) {
        (void)p.fail("--jobs: must be at least 1");
        break;
      }
      config.jobs = static_cast<std::size_t>(u);
    } else if (flag == "--csv") {
      if (!next_value(flag, &value)) break;
      p.options.csv_path = value;
    } else if (flag == "--metrics") {
      p.options.metrics = true;
      config.collect_metrics = true;
    } else if (flag == "--trace-out") {
      if (!next_value(flag, &value)) break;
      p.options.trace_out = value;
    } else if (flag == "--run-manifest") {
      if (!next_value(flag, &value)) break;
      p.options.manifest_path = value;
      config.collect_metrics = true;  // manifests carry timelines + metrics
    } else if (flag == "--lineage") {
      if (!next_value(flag, &value)) break;
      p.options.lineage_out = value;
    } else if (flag == "--curves-out") {
      if (!next_value(flag, &value)) break;
      p.options.curves_out = value;
    } else if (flag == "--telemetry-out") {
      if (!next_value(flag, &value)) break;
      config.telemetry.out_path = value;
      config.telemetry.enabled = true;
    } else if (flag == "--telemetry-interval-us") {
      if (!uint_value(flag, &us)) break;
      if (us == 0) {
        (void)p.fail("--telemetry-interval-us: must be positive");
        break;
      }
      config.telemetry.interval = SimTime::micros(us);
      config.telemetry.enabled = true;
    } else if (flag == "--flight-recorder") {
      if (!next_value(flag, &value)) break;
      p.options.flight_out = value;
    } else if (flag == "--instances") {
      if (!uint_value(flag, &p.options.instances)) break;
    } else if (flag == "--epoch-interval-us") {
      if (!uint_value(flag, &us)) break;
      p.options.epoch_interval = SimTime::micros(us);
    } else if (flag == "--in-flight") {
      if (!uint_value(flag, &u)) break;
      if (u == 0) {
        (void)p.fail("--in-flight: must be at least 1");
        break;
      }
      p.options.in_flight = static_cast<std::size_t>(u);
    } else {
      (void)p.fail("unknown flag: " + flag);
      break;
    }
  }

  if (p.error.empty() && p.options.instances > 0) {
    if (p.options.runs > 1) {
      (void)p.fail("--instances: service mode streams one run; drop --runs");
    } else if (p.options.differential) {
      (void)p.fail(
          "--instances: the service differential lives in gridbox_node "
          "--instances --differential");
    }
  }
  if (!p.error.empty()) return CliParseResult{std::nullopt, p.error};
  return CliParseResult{p.options, ""};
}

namespace {

int run_differential_cli(const CliOptions& options) {
  Table table({"run", "protocol", "completeness", "survivors", "finished",
               "true value", "audit", "reconstruct"});
  bool all_ok = true;
  for (std::size_t run = 0; run < options.runs; ++run) {
    ExperimentConfig config = options.config;
    config.seed = options.config.seed + run;
    const DifferentialReport report = run_differential(config);
    if (!report.ok()) all_ok = false;
    for (const DifferentialRow& row : report.rows) {
      if (!row.ran) {
        table.add_row({std::to_string(run), to_string(row.protocol),
                       "error: " + row.error, "-", "-", "-", "-", "-"});
        continue;
      }
      const auto& m = row.measurement;
      table.add_row(
          {std::to_string(run), to_string(row.protocol),
           Table::num(m.mean_completeness), std::to_string(m.survivors),
           std::to_string(m.finished_nodes), Table::num(m.true_value),
           std::to_string(m.audit_violations),
           m.reconstruction_failures == 0 ? "ok"
                                          : std::to_string(
                                                m.reconstruction_failures) +
                                                " failed"});
    }
  }
  std::fputs(table.to_text().c_str(), stdout);
  std::printf("\ndifferential oracle: %s\n",
              all_ok ? "all protocols agree (clean)" : "DISAGREEMENT — BUG");
  return all_ok ? 0 : 2;
}

/// Service mode: one streaming run, a per-instance table, service metrics,
/// and (with --lineage) one gridbox-lineage-multi/1 document.
int run_service_cli(const CliOptions& options) {
  service::ServiceConfig sc;
  sc.experiment = options.config;
  sc.instances = options.instances;
  sc.epoch_interval = options.epoch_interval;
  sc.max_in_flight = options.in_flight;
  sc.collect_lineage = !options.lineage_out.empty();

  const auto started = std::chrono::steady_clock::now();
  service::ServiceResult result;
  try {
    result = service::run_service_experiment(sc);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  Table table({"instance", "launched_ms", "done_ms", "participants",
               "completeness", "true value", "audit", "invariants", "msgs"});
  bool clean = result.completed;
  for (const service::InstanceResult& inst : result.instances) {
    const auto& m = inst.measurement;
    clean = clean && inst.completed && m.audit_violations == 0 &&
            m.reconstruction_failures == 0 && inst.invariant_violations == 0;
    table.add_row(
        {std::to_string(inst.id),
         std::to_string(inst.launched_at.ticks() / 1000),
         inst.completed ? std::to_string(inst.completed_at.ticks() / 1000)
                        : "FAILED",
         std::to_string(inst.participants), Table::num(m.mean_completeness),
         Table::num(m.true_value), std::to_string(m.audit_violations),
         std::to_string(inst.invariant_violations),
         std::to_string(inst.network.messages_sent)});
  }
  std::fputs(table.to_text().c_str(), stdout);
  if (!options.csv_path.empty()) {
    if (table.write_csv(options.csv_path)) {
      std::printf("[csv] %s\n", options.csv_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.csv_path.c_str());
      return 1;
    }
  }

  const service::ServiceMetrics& sm = result.metrics;
  std::printf(
      "\nservice: %zu/%zu instance(s) completed, %zu failed, %zu deferred "
      "launch(es)\n"
      "throughput %.2f instances/s (sim time), completion p50 %.1f ms "
      "p90 %.1f ms p99 %.1f ms\n"
      "demux: delivered %llu, malformed %llu, unknown %llu, retired %llu, "
      "closed sends %llu\n"
      "elapsed %.1f ms sim, wall-clock %.3f s\n",
      sm.completed, sm.launched, sm.failed, sm.deferred, sm.instances_per_sec,
      static_cast<double>(sm.p50_completion.ticks()) / 1000.0,
      static_cast<double>(sm.p90_completion.ticks()) / 1000.0,
      static_cast<double>(sm.p99_completion.ticks()) / 1000.0,
      static_cast<unsigned long long>(sm.demux.delivered),
      static_cast<unsigned long long>(sm.demux.malformed_envelope),
      static_cast<unsigned long long>(sm.demux.unknown_instance),
      static_cast<unsigned long long>(sm.demux.retired_instance),
      static_cast<unsigned long long>(sm.demux.closed_sends),
      static_cast<double>(result.elapsed.ticks()) / 1000.0, wall_seconds);

  if (!options.lineage_out.empty()) {
    std::ofstream out(options.lineage_out,
                      std::ios::binary | std::ios::trunc);
    out << service::lineage_multi_json(result.instances) << '\n';
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.lineage_out.c_str());
      return 1;
    }
    std::printf("[lineage] %s (gridbox-lineage-multi/1; query with "
                "gridbox_explain --instance ID)\n",
                options.lineage_out.c_str());
  }
  return clean ? 0 : 1;
}

}  // namespace

std::string trace_path_for_run(const std::string& base, std::size_t run,
                               std::size_t total_runs) {
  if (total_runs <= 1) return base;
  const std::size_t dot = base.find_last_of('.');
  const std::size_t slash = base.find_last_of('/');
  const std::string suffix = "-run" + std::to_string(run);
  // No extension, the last '.' is in a directory name, or the '.' leads a
  // hidden file (".trace", "out/.trace"): plain append.
  if (dot == std::string::npos ||
      (slash != std::string::npos && slash > dot) ||
      dot == (slash == std::string::npos ? 0 : slash + 1)) {
    return base + suffix;
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

int run_cli(const CliOptions& options) {
  if (options.show_help) {
    std::fputs(usage_text().c_str(), stdout);
    return 0;
  }
  if (options.differential) return run_differential_cli(options);
  if (options.instances > 0) return run_service_cli(options);

  Table table({"run", "seed", "completeness", "incompleteness", "survivors",
               "true value", "mean abs err", "msgs", "rounds"});
  std::vector<double> completeness;
  std::vector<double> incompleteness;
  std::uint64_t audit_violations = 0;

  // Runs are independent (seed = base seed + run index) and fan across a
  // thread pool; results land in per-run slots so the printed rows and
  // summaries are identical for every --jobs value.
  const std::size_t jobs =
      std::min(options.config.resolved_jobs(), std::max<std::size_t>(options.runs, 1));
  const auto started = std::chrono::steady_clock::now();
  std::vector<RunResult> results(options.runs);
  const auto write_json = [](const std::string& path,
                             const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.put('\n');
    if (!out) throw std::runtime_error("cannot write " + path);
  };
  const auto run_one = [&](std::size_t run) {
    ExperimentConfig config = options.config;
    config.seed = options.config.seed + run;
    // Each run owns its telemetry series, so parallel runs never contend
    // for one file; like traces, run r writes PATH-run<r>.
    if (config.telemetry.enabled && !config.telemetry.out_path.empty()) {
      config.telemetry.out_path = trace_path_for_run(
          config.telemetry.out_path, run, options.runs);
    }
    // Each run owns its trace file and event log, so parallel runs never
    // interleave lines.
    std::unique_ptr<obs::TraceSink> sink;
    if (!options.trace_out.empty()) {
      sink = obs::TraceSink::to_file(
          trace_path_for_run(options.trace_out, run, options.runs));
    }
    obs::EventLog::Options eopt;
    eopt.trace = sink.get();
    eopt.flight = !options.flight_out.empty();
    eopt.replay = !options.lineage_out.empty() || !options.curves_out.empty();
    eopt.group_size = config.group_size;
    std::unique_ptr<obs::EventLog> events;
    if (eopt.trace != nullptr || eopt.flight || eopt.replay) {
      events = std::make_unique<obs::EventLog>(eopt);
      config.events = events.get();
    }
    std::unique_ptr<obs::LineageTracker> lineage;
    if (!options.lineage_out.empty()) {
      obs::LineageTracker::Options lopt;
      lopt.group_size = config.group_size;
      lineage = std::make_unique<obs::LineageTracker>(*events, lopt);
      config.lineage = lineage.get();
    }
    std::unique_ptr<obs::CurveRecorder> curves;
    if (!options.curves_out.empty()) {
      obs::CurveRecorder::Options copt;
      copt.round_us =
          static_cast<std::uint64_t>(config.round_duration().ticks());
      curves = std::make_unique<obs::CurveRecorder>(*events, copt);
      config.curves = curves.get();
    }
    std::unique_ptr<obs::FlightRecorder> flight;
    if (eopt.flight) {
      obs::FlightRecorder::Options fopt;
      fopt.config_text = config_canonical_text(config);
      fopt.chaos_spec = config.chaos_spec;
      fopt.seed = config.seed;
      flight = std::make_unique<obs::FlightRecorder>(*events, fopt);
    }
    try {
      results[run] = run_experiment(config);
    } catch (const InvariantError&) {
      // The flight recorder holds the log's tail leading up to the violation
      // plus the config and chaos spec needed to replay it; dump before
      // unwinding.
      if (flight != nullptr) {
        const std::string path =
            trace_path_for_run(options.flight_out, run, options.runs);
        if (flight->dump_to_file(path)) {
          std::fprintf(stderr,
                       "[flight] invariant violated: dump written to %s\n",
                       path.c_str());
        }
      }
      throw;
    }
    if (lineage != nullptr) {
      for (const std::string& e : lineage->errors()) {
        std::fprintf(stderr, "[lineage] accounting error: %s\n", e.c_str());
      }
      write_json(trace_path_for_run(options.lineage_out, run, options.runs),
                 lineage->to_json());
    }
    if (curves != nullptr) {
      write_json(trace_path_for_run(options.curves_out, run, options.runs),
                 curves->to_json());
    }
  };
  try {
    if (jobs <= 1) {
      for (std::size_t run = 0; run < options.runs; ++run) run_one(run);
    } else {
      common::ThreadPool pool(jobs);
      std::vector<std::future<void>> futures;
      futures.reserve(options.runs);
      for (std::size_t run = 0; run < options.runs; ++run) {
        futures.push_back(pool.submit([&run_one, run] { run_one(run); }));
      }
      std::exception_ptr first_error;
      for (auto& future : futures) {
        try {
          future.get();
        } catch (...) {
          if (!first_error) first_error = std::current_exception();
        }
      }
      if (first_error) std::rethrow_exception(first_error);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  for (std::size_t run = 0; run < options.runs; ++run) {
    const auto& m = results[run].measurement;
    completeness.push_back(m.mean_completeness);
    incompleteness.push_back(m.mean_incompleteness);
    audit_violations += m.audit_violations;
    table.add_row({std::to_string(run),
                   std::to_string(options.config.seed + run),
                   Table::num(m.mean_completeness),
                   Table::num(m.mean_incompleteness),
                   std::to_string(m.survivors),
                   Table::num(m.true_value), Table::num(m.mean_abs_error),
                   std::to_string(m.network_messages),
                   std::to_string(m.max_rounds)});
  }

  std::fputs(table.to_text().c_str(), stdout);
  if (!options.csv_path.empty()) {
    if (table.write_csv(options.csv_path)) {
      std::printf("[csv] %s\n", options.csv_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.csv_path.c_str());
      return 1;
    }
  }

  const SummaryStats c = summarize(completeness);
  const SummaryStats q = summarize(incompleteness);
  std::printf(
      "\nsummary over %zu run(s): completeness %.6f +/- %.6f (95%% CI), "
      "incompleteness mean %.3g geomean %.3g\n"
      "wall-clock: %.3f s on %zu job(s)\n",
      options.runs, c.mean, c.ci95_half_width, q.mean,
      geometric_mean(incompleteness), wall_seconds, jobs);
  if (options.config.audit) {
    std::printf("audit: %llu double-counting violations%s\n",
                static_cast<unsigned long long>(audit_violations),
                audit_violations == 0 ? " (clean)" : " — BUG");
  }

  // Observability outputs, merged over runs in run (slot) order so the
  // emitted JSON is bitwise-identical for every --jobs value.
  obs::MetricsSnapshot merged_metrics;
  for (const RunResult& r : results) merged_metrics.merge(r.metrics);
  if (options.metrics) {
    std::printf("\n[metrics] %s\n", merged_metrics.to_json().c_str());
  }
  if (!options.trace_out.empty()) {
    std::printf("[trace] %s (%zu file%s)\n", options.trace_out.c_str(),
                options.runs, options.runs == 1 ? "" : "s");
  }
  if (!options.lineage_out.empty()) {
    std::printf("[lineage] %s (%zu file%s)\n", options.lineage_out.c_str(),
                options.runs, options.runs == 1 ? "" : "s");
  }
  if (!options.curves_out.empty()) {
    std::printf("[curves] %s (%zu file%s)\n", options.curves_out.c_str(),
                options.runs, options.runs == 1 ? "" : "s");
  }
  if (!options.manifest_path.empty()) {
    obs::RunManifest manifest;
    manifest.tool = "gridbox_sim";
    manifest.git_rev = obs::git_revision();
    manifest.config_text = config_canonical_text(options.config);
    manifest.chaos_spec = options.config.chaos_spec;
    manifest.base_seed = options.config.seed;
    manifest.jobs = jobs;
    manifest.wall_s = wall_seconds;
    for (std::size_t run = 0; run < options.runs; ++run) {
      obs::RunManifest::RunEntry entry;
      entry.seed = options.config.seed + run;
      entry.mean_completeness = results[run].measurement.mean_completeness;
      entry.network_messages = results[run].measurement.network_messages;
      entry.sim_events = results[run].sim_events;
      entry.sim_end_us = results[run].sim_end_us;
      entry.timeline = results[run].timeline;
      entry.metrics = results[run].metrics;
      manifest.runs.push_back(std::move(entry));
    }
    if (manifest.write(options.manifest_path)) {
      std::printf("[manifest] %s\n", options.manifest_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.manifest_path.c_str());
      return 1;
    }
  }
  return audit_violations == 0 ? 0 : 2;
}

}  // namespace gridbox::runner
