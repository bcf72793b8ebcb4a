// gridbox_node: run an aggregation group over real UDP sockets on loopback.
//
// Every member of the group runs as a protocol node inside this process,
// sharded over a few reactor threads, each member with its own nonblocking
// UDP socket bound to port_base + member id — the deployable counterpart of
// gridbox_sim (docs/udp_runtime.md). With --differential the same config
// also runs in the simulator and the two results are cross-checked; exit
// status 2 signals divergence, matching `gridbox_sim --differential`.
//
// Exit codes: 0 success / agreement, 1 usage or run error, 2 divergence.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "src/net/chaos.h"
#include "src/obs/build_info.h"
#include "src/obs/manifest.h"
#include "src/runner/cli.h"
#include "src/runner/config.h"
#include "src/runner/udp_differential.h"
#include "src/runner/udp_runtime.h"
#include "src/service/udp_service.h"

namespace {

using namespace gridbox;

void print_help() {
  std::cout << R"(gridbox_node — aggregation over real UDP sockets on loopback

usage: gridbox_node [options]

group
  --n N                  group size (default 200)
  --protocol NAME        hier-gossip (default) | all-to-all | centralized |
                         leader | committee
  --seed S               root seed (default 1)
  --aggregate NAME       average (default) | sum | min | max | count | range

network
  --port-base P          member m listens on 127.0.0.1:(P + m) (default 38000)
  --threads T            reactor shard threads (default auto)
  --loss P               iid unicast loss, applied via the userspace shim
  --chaos FILE           chaos spec file (docs/chaos.md grammar)
  --chaos-spec TEXT      inline chaos spec text
  --round-us U           gossip round duration in µs (default 10000)
  --deadline-factor F    wall-clock deadline multiplier (default 20)

service (docs/service.md)
  --instances I          run I protocol instances as a streaming service
                         over one socket set (enables service mode)
  --epoch-interval-us U  launch cadence in µs (default 50000)
  --in-flight W          bounded in-flight window (default 8)
                         chaos specs may add join/recover churn directives

telemetry (docs/observability.md)
  --telemetry-out PATH   stream gridbox-telemetry/1 JSONL health samples
                         to PATH (enables live telemetry)
  --telemetry-interval-us U
                         sampling cadence in µs (default 100000)
  --telemetry-port P     also serve the latest record one-shot from a UDP
                         stats socket on 127.0.0.1:P (gridbox_top --udp)

harness
  --differential         also run the simulator; exit 2 unless both runs
                         are audit-clean, reconstruct, and agree on ground
                         truth (see docs/udp_runtime.md). In service mode
                         the check applies per instance.
  --report-dir DIR       write summary.txt, chaos.spec, and manifest.json
                         (CI failure artifacts)
  --help
)";
}

struct Options {
  runner::UdpRunConfig udp;
  bool differential = false;
  std::string report_dir;
  /// Service mode: > 0 streams this many instances (docs/service.md).
  std::size_t instances = 0;
  SimTime epoch_interval = SimTime::millis(50);
  std::size_t in_flight = 8;
};

[[nodiscard]] bool parse_args(int argc, char** argv, Options& options,
                              bool& help) {
  runner::ExperimentConfig& config = options.udp.experiment;
  config.crash_probability = 0.0;  // real runs default crash-free
  config.audit = true;
  auto need_value = [&](int& i, const char* flag, std::string& out) {
    if (i + 1 >= argc) {
      std::cerr << flag << ": missing value\n";
      return false;
    }
    out = argv[++i];
    return true;
  };
  // Numeric values go through the strict parsers gridbox_sim uses.
  const auto uint_value = [&](int& i, const char* flag, auto* out) {
    std::string value, error;
    if (!need_value(i, flag, value)) return false;
    if (runner::parse_uint_flag(flag, value, out, &error)) return true;
    std::cerr << error << "\n";
    return false;
  };
  const auto double_value = [&](int& i, const char* flag, double* out) {
    std::string value, error;
    if (!need_value(i, flag, value)) return false;
    if (runner::parse_double_flag(flag, value, out, &error)) return true;
    std::cerr << error << "\n";
    return false;
  };
  SimTime::underlying us = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    std::string value;
    if (flag == "--help") {
      help = true;
      return true;
    } else if (flag == "--n") {
      if (!uint_value(i, "--n", &config.group_size)) return false;
    } else if (flag == "--protocol") {
      if (!need_value(i, "--protocol", value)) return false;
      static const std::map<std::string, runner::ProtocolKind> kNames = {
          {"hier-gossip", runner::ProtocolKind::kHierGossip},
          {"all-to-all", runner::ProtocolKind::kFullyDistributed},
          {"centralized", runner::ProtocolKind::kCentralized},
          {"leader", runner::ProtocolKind::kLeaderElection},
          {"committee", runner::ProtocolKind::kCommittee},
      };
      const auto it = kNames.find(value);
      if (it == kNames.end()) {
        std::cerr << "--protocol: unknown: " << value << "\n";
        return false;
      }
      config.protocol = it->second;
    } else if (flag == "--seed") {
      if (!uint_value(i, "--seed", &config.seed)) return false;
    } else if (flag == "--aggregate") {
      if (!need_value(i, "--aggregate", value)) return false;
      static const std::map<std::string, agg::AggregateKind> kNames = {
          {"average", agg::AggregateKind::kAverage},
          {"sum", agg::AggregateKind::kSum},
          {"min", agg::AggregateKind::kMin},
          {"max", agg::AggregateKind::kMax},
          {"count", agg::AggregateKind::kCount},
          {"range", agg::AggregateKind::kRange},
      };
      const auto it = kNames.find(value);
      if (it == kNames.end()) {
        std::cerr << "--aggregate: unknown: " << value << "\n";
        return false;
      }
      config.aggregate = it->second;
    } else if (flag == "--port-base") {
      if (!uint_value(i, "--port-base", &options.udp.port_base)) return false;
    } else if (flag == "--threads") {
      if (!uint_value(i, "--threads", &options.udp.shards)) return false;
    } else if (flag == "--loss") {
      if (!double_value(i, "--loss", &config.ucast_loss)) return false;
    } else if (flag == "--chaos") {
      if (!need_value(i, "--chaos", value)) return false;
      std::ifstream in(value);
      if (!in) {
        std::cerr << "--chaos: cannot read " << value << "\n";
        return false;
      }
      std::ostringstream text;
      text << in.rdbuf();
      config.chaos_spec = text.str();
    } else if (flag == "--chaos-spec") {
      if (!need_value(i, "--chaos-spec", value)) return false;
      config.chaos_spec = value;
    } else if (flag == "--round-us") {
      if (!uint_value(i, "--round-us", &us)) return false;
      config.gossip.round_duration = SimTime::micros(us);
    } else if (flag == "--deadline-factor") {
      if (!double_value(i, "--deadline-factor",
                        &options.udp.deadline_factor)) {
        return false;
      }
    } else if (flag == "--instances") {
      if (!uint_value(i, "--instances", &options.instances)) return false;
    } else if (flag == "--epoch-interval-us") {
      if (!uint_value(i, "--epoch-interval-us", &us)) return false;
      options.epoch_interval = SimTime::micros(us);
    } else if (flag == "--in-flight") {
      if (!uint_value(i, "--in-flight", &options.in_flight)) return false;
    } else if (flag == "--telemetry-out") {
      if (!need_value(i, "--telemetry-out", value)) return false;
      config.telemetry.out_path = value;
      config.telemetry.enabled = true;
    } else if (flag == "--telemetry-interval-us") {
      if (!uint_value(i, "--telemetry-interval-us", &us)) return false;
      config.telemetry.interval = SimTime::micros(us);
      config.telemetry.enabled = true;
    } else if (flag == "--telemetry-port") {
      if (!uint_value(i, "--telemetry-port", &config.telemetry.udp_port)) {
        return false;
      }
      config.telemetry.enabled = true;
    } else if (flag == "--differential") {
      options.differential = true;
    } else if (flag == "--report-dir") {
      if (!need_value(i, "--report-dir", value)) return false;
      options.report_dir = value;
    } else {
      std::cerr << "unknown flag: " << flag << " (see --help)\n";
      return false;
    }
  }
  // Validate the chaos spec up front so a typo fails fast with a line
  // number instead of mid-run.
  (void)net::ChaosSpec::parse(config.chaos_spec);
  return true;
}

void write_report(const Options& options, const std::string& summary) {
  if (options.report_dir.empty()) return;
  const std::string dir = options.report_dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort, like write()
  std::ofstream(dir + "/summary.txt") << summary;
  std::ofstream(dir + "/chaos.spec")
      << net::ChaosSpec::parse(options.udp.experiment.chaos_spec).to_text();
  obs::RunManifest manifest;
  manifest.tool = "gridbox_node";
  manifest.git_rev = obs::git_revision();
  manifest.config_text =
      runner::config_canonical_text(options.udp.experiment);
  manifest.chaos_spec = options.udp.experiment.chaos_spec;
  manifest.base_seed = options.udp.experiment.seed;
  manifest.jobs = options.udp.shards;
  (void)manifest.write(dir + "/manifest.json");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool help = false;
  try {
    if (!parse_args(argc, argv, options, help)) return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (help) {
    print_help();
    return 0;
  }

  try {
    if (options.instances > 0) {
      service::UdpServiceConfig sc;
      sc.service.experiment = options.udp.experiment;
      sc.service.instances = options.instances;
      sc.service.epoch_interval = options.epoch_interval;
      sc.service.max_in_flight = options.in_flight;
      sc.service.deadline_factor = options.udp.deadline_factor;
      sc.service.min_deadline = options.udp.min_deadline;
      sc.port_base = options.udp.port_base;
      sc.shards = options.udp.shards;
      if (options.differential) {
        const service::ServiceDifferentialReport report =
            service::run_service_differential(sc);
        const std::string summary = report.describe();
        std::cout << summary;
        write_report(options, summary);
        return report.ok() ? 0 : 2;
      }
      const service::UdpServiceResult result = service::run_udp_service(sc);
      const service::ServiceMetrics& m = result.result.metrics;
      bool clean = result.result.completed;
      for (const service::InstanceResult& inst : result.result.instances) {
        clean = clean && inst.completed &&
                inst.measurement.audit_violations == 0 &&
                inst.measurement.reconstruction_failures == 0 &&
                inst.invariant_violations == 0;
      }
      std::ostringstream out;
      out << "service n=" << sc.service.experiment.group_size
          << " shards=" << result.shards << " instances=" << m.completed
          << "/" << m.launched << " failed=" << m.failed
          << " deferred=" << m.deferred << " inst_per_s=" << m.instances_per_sec
          << " p50_ms=" << m.p50_completion.ticks() / 1000
          << " p99_ms=" << m.p99_completion.ticks() / 1000
          << " demux_delivered=" << m.demux.delivered
          << " demux_malformed=" << m.demux.malformed_envelope
          << " demux_unknown=" << m.demux.unknown_instance
          << " demux_retired=" << m.demux.retired_instance
          << " closed_sends=" << m.demux.closed_sends
          << " elapsed_ms=" << result.result.elapsed.ticks() / 1000 << "\n";
      const std::string summary = out.str();
      std::cout << summary;
      write_report(options, summary);
      return clean ? 0 : 1;
    }
    if (options.differential) {
      const runner::UdpDifferentialReport report =
          runner::run_udp_differential(options.udp);
      const std::string summary = report.describe();
      std::cout << summary;
      write_report(options, summary);
      return report.ok() ? 0 : 2;
    }
    const runner::UdpRunResult result =
        runner::run_udp_experiment(options.udp);
    std::ostringstream out;
    const protocols::RunMeasurement& m = result.measurement;
    out << "n=" << m.group_size << " shards=" << result.shards
        << " completed=" << (result.completed ? "yes" : "no")
        << " finished=" << m.finished_nodes << "/" << m.survivors
        << " completeness=" << m.mean_completeness
        << " audit_violations=" << m.audit_violations
        << " reconstruction_failures=" << m.reconstruction_failures
        << " invariant_violations=" << result.invariant_violations
        << " sent=" << result.network.messages_sent
        << " delivered=" << result.network.messages_delivered
        << " dropped=" << result.network.messages_dropped
        << " elapsed_ms=" << result.elapsed.ticks() / 1000 << "\n";
    const std::string summary = out.str();
    std::cout << summary;
    write_report(options, summary);
    const bool clean = result.completed && m.audit_violations == 0 &&
                       m.reconstruction_failures == 0 &&
                       result.invariant_violations == 0;
    return clean ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    write_report(options, std::string("error: ") + e.what() + "\n");
    return 1;
  }
}
