#include "src/service/udp_service.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/ensure.h"
#include "src/net/chaos.h"
#include "src/net/reactor.h"
#include "src/net/telemetry_socket.h"
#include "src/net/udp_transport.h"
#include "src/runner/udp_runtime.h"
#include "src/runner/world_setup.h"

namespace gridbox::service {

UdpServiceResult run_udp_service(const UdpServiceConfig& udp_config) {
  const ServiceConfig& service = udp_config.service;
  const runner::ExperimentConfig& config = service.experiment;
  expects(config.group_size >= 2, "need at least two members");
  // Member m binds port_base + m; checked before any fd arithmetic, which
  // would wrap for an absurd group size.
  expects(config.group_size - 1 <= 65535u - udp_config.port_base,
          "group does not fit the port space: port_base + n - 1 > 65535");
  // One socket per member for the whole service — the mux keeps the fd
  // count independent of the instance count.
  const std::uint64_t fd_need = config.group_size + 64;
  runner::require_fd_capacity(fd_need);

  const Rng root(config.seed);
  membership::Group shared_group(config.group_size);

  const std::size_t shard_count =
      udp_config.shards > 0
          ? udp_config.shards
          : std::max<std::size_t>(
                1, std::min<std::size_t>(
                       {4, std::thread::hardware_concurrency(),
                        config.group_size}));
  const auto epoch = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<net::Reactor>> reactors;
  std::vector<std::unique_ptr<net::UdpTransport>> transports;
  reactors.reserve(shard_count);
  transports.reserve(shard_count);
  const net::ChaosSpec chaos = net::ChaosSpec::parse(config.chaos_spec);
  const bool shim_active = chaos.affects_network() ||
                           config.ucast_loss > 0.0 ||
                           config.partition_loss >= 0.0;
  const Rng chaos_root = root.derive(runner::streams::kChaos);
  for (std::size_t s = 0; s < shard_count; ++s) {
    // No dispatch mutex: each shard dispatches its own members lock-free
    // (DESIGN.md §14); the mux and the engine are built for that.
    reactors.push_back(std::make_unique<net::Reactor>(net::Reactor::Options{}));
    reactors.back()->bind_epoch(epoch);
    net::UdpTransport::Options topt;
    topt.port_base = udp_config.port_base;
    auto transport =
        std::make_unique<net::UdpTransport>(*reactors.back(), topt);
    transport->set_liveness(
        [&shared_group](MemberId m) { return shared_group.is_alive(m); });
    if (shim_active) {
      auto schedule = std::make_unique<net::ChaosSchedule>(
          chaos, runner::make_faults(config), config.group_size,
          chaos_root.derive(s));
      transport->install_chaos(std::move(schedule));
    }
    transports.push_back(std::move(transport));
  }

  InstanceMux::Options mopt;
  mopt.group_size = config.group_size;
  mopt.transport_of = [&transports, shard_count](MemberId m) ->
      net::Transport* { return transports[m.value() % shard_count].get(); };
  mopt.max_instances = service.instances;
  mopt.shard_count = shard_count;
  mopt.shard_of = [shard_count](MemberId m) -> std::size_t {
    return m.value() % shard_count;
  };
  InstanceMux mux(std::move(mopt));
  mux.attach_all();  // sockets bind here, once, for every epoch to come

  std::vector<net::Reactor*> shard_reactors;
  shard_reactors.reserve(shard_count);
  for (const auto& reactor : reactors) shard_reactors.push_back(reactor.get());

  ServiceEngine::Substrate substrate;
  substrate.control = shard_reactors.front();
  substrate.scheduler_of = [shard_reactors, shard_count](MemberId m) ->
      sim::Scheduler* { return shard_reactors[m.value() % shard_count]; };
  substrate.post_to_member = [shard_reactors, shard_count](MemberId m,
                                                           sim::Action a) {
    shard_reactors[m.value() % shard_count]->post(std::move(a));
  };
  // Drain detection hops every shard in turn (counting is only legal on
  // the shard's own thread), then lands the total back on the control
  // reactor. Built back-to-front so each hop knows its successor.
  substrate.count_timers =
      [shard_reactors](std::function<bool(const sim::TimerTarget*)> pred,
                       std::function<void(std::size_t)> done) {
        auto total = std::make_shared<std::size_t>(0);
        std::function<void()> next = [r0 = shard_reactors.front(),
                                      done = std::move(done), total]() {
          r0->post([done, total]() { done(*total); });
        };
        for (std::size_t s = shard_reactors.size(); s-- > 0;) {
          next = [r = shard_reactors[s], pred, total,
                  next = std::move(next)]() {
            r->post([r, pred, total, next]() {
              *total += r->count_timers_where(pred);
              next();
            });
          };
        }
        next();
      };
  substrate.sim_clock = nullptr;
  substrate.shards = shard_count;

  // Every shard's lanes — its reactor's loop lane beside its transport's
  // traffic lane — as live telemetry and the result both read them.
  std::vector<obs::ShardLanes> shard_lanes;
  for (std::size_t s = 0; s < shard_count; ++s) {
    shard_lanes.push_back({&reactors[s]->telemetry(), &transports[s]->traffic()});
  }
  obs::TelemetryHub tel_hub(std::move(shard_lanes));
  std::unique_ptr<obs::TelemetrySampler> tel_sampler;
  if (config.telemetry.enabled) {
    tel_hub.enable_service();
    substrate.telemetry = &tel_hub;
    tel_sampler =
        std::make_unique<obs::TelemetrySampler>(tel_hub, config.telemetry);
  }

  // The engine's whole schedule lands on reactor 0 before its thread
  // starts; all later rescheduling happens on that thread.
  ServiceEngine engine(service, mux, shared_group, substrate);
  engine.begin();

  // Sampler cadence and (optionally) the stats socket live on reactor 0 —
  // the control shard, the same thread the engine mutates the service
  // section on, so latest() is served without locks.
  runner::SamplerTick sampler_tick;
  std::unique_ptr<net::TelemetrySocket> tel_socket;
  if (tel_sampler != nullptr) {
    sampler_tick.sampler = tel_sampler.get();
    sampler_tick.clock = shard_reactors.front();
    sampler_tick.keep_going = [&engine]() { return !engine.finished(); };
    shard_reactors.front()->schedule_periodic(
        config.telemetry.interval, config.telemetry.interval, sampler_tick);
    if (config.telemetry.udp_port != 0) {
      tel_socket = std::make_unique<net::TelemetrySocket>(
          *shard_reactors.front(), config.telemetry.udp_port,
          [sampler = tel_sampler.get()]() { return sampler->latest(); });
    }
  }

  (void)net::run_reactors(
      reactors, [&engine]() { return engine.finished(); },
      engine.global_deadline());

  UdpServiceResult result;
  result.result = engine.collect();
  result.shards = shard_count;
  // Final sample post-join: the joins ordered every shard's lane writes
  // before this read, so the closing record is exact, not torn.
  if (tel_sampler != nullptr) {
    tel_sampler->sample(shard_reactors.front()->now());
  }
  for (const auto& transport : transports) {
    net::fold(result.result.network, transport->traffic());
  }
  const obs::LaneSnapshot loop = tel_hub.snapshot_total();
  result.timers_fired = loop.timers_fired;
  result.polls = loop.polls;
  result.eintr_retries = loop.eintr_retries;
  mux.detach_all();
  return result;
}

namespace {

/// The one-shot oracle's agreement definition, applied to one instance on
/// one substrate.
void check_side(const char* side, const InstanceResult& row,
                std::ostringstream& why) {
  if (!row.completed) why << side << " did not complete; ";
  if (row.measurement.audit_violations != 0) {
    why << side << " audit violations: " << row.measurement.audit_violations
        << "; ";
  }
  if (row.measurement.reconstruction_failures != 0) {
    why << side << " reconstruction failures: "
        << row.measurement.reconstruction_failures << "; ";
  }
  if (row.invariant_violations != 0) {
    why << side << " invariant violations: " << row.invariant_violations
        << " (" << row.first_violation << "); ";
  }
  if (row.measurement.finished_nodes != row.measurement.survivors) {
    why << side << " finished " << row.measurement.finished_nodes << "/"
        << row.measurement.survivors << " survivors; ";
  }
}

}  // namespace

bool ServiceDifferentialReport::ok() const {
  if (rows.empty()) return false;
  return std::all_of(rows.begin(), rows.end(),
                     [](const ServiceDifferentialRow& r) { return r.ok; });
}

std::string ServiceDifferentialReport::describe() const {
  std::ostringstream out;
  out << "service differential: " << rows.size() << " instances, sim "
      << sim.metrics.completed << " completed / " << sim.metrics.failed
      << " failed, udp " << udp.result.metrics.completed << " completed / "
      << udp.result.metrics.failed << " failed\n";
  for (const ServiceDifferentialRow& row : rows) {
    if (!row.ok) out << "  instance " << row.id << ": " << row.why << "\n";
  }
  out << (ok() ? "OK" : "DIVERGED") << "\n";
  return out.str();
}

ServiceDifferentialReport run_service_differential(
    const UdpServiceConfig& config) {
  UdpServiceConfig forced = config;
  forced.service.experiment.audit = true;
  forced.service.experiment.check_invariants = true;

  ServiceDifferentialReport report;
  report.sim = run_service_experiment(forced.service);
  report.udp = run_udp_service(forced);

  const std::vector<InstanceResult>& sim_rows = report.sim.instances;
  const std::vector<InstanceResult>& udp_rows = report.udp.result.instances;
  const std::size_t count = std::max(sim_rows.size(), udp_rows.size());
  report.rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ServiceDifferentialRow row;
    row.id = static_cast<std::uint32_t>(i);
    if (i >= sim_rows.size() || i >= udp_rows.size()) {
      row.ok = false;
      row.why = "instance missing on one substrate";
      report.rows.push_back(std::move(row));
      continue;
    }
    const InstanceResult& s = sim_rows[i];
    const InstanceResult& u = udp_rows[i];
    std::ostringstream why;
    check_side("sim", s, why);
    check_side("udp", u, why);
    // Ground truth is derived, not measured: instance i's true value must
    // be bit-identical across substrates or world derivation has drifted.
    if (s.measurement.true_value != u.measurement.true_value) {
      why << "true value mismatch (sim " << s.measurement.true_value
          << " vs udp " << u.measurement.true_value << "); ";
    }
    if (s.participants != u.participants) {
      why << "participant cohorts differ (sim " << s.participants
          << " vs udp " << u.participants << "); ";
    }
    row.why = why.str();
    row.ok = row.why.empty();
    report.rows.push_back(std::move(row));
  }
  return report;
}

}  // namespace gridbox::service
