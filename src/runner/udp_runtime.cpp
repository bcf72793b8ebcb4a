#include "src/runner/udp_runtime.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/ensure.h"
#include "src/membership/group.h"
#include "src/net/chaos.h"
#include "src/net/reactor.h"
#include "src/net/telemetry_socket.h"
#include "src/net/udp_transport.h"
#include "src/obs/telemetry.h"
#include "src/protocols/invariant_checker.h"
#include "src/runner/world_setup.h"

namespace gridbox::runner {

namespace {

/// Per-shard completion counters folded into one atomic: each member
/// settles exactly once — when its node finishes (NodeEnv::on_finished,
/// on its shard thread) or when it crashes (Group crash listener) — and
/// the run is done when the fold hits zero. Replaces the old done() probe
/// that scanned every node from every shard thread each loop iteration.
class CompletionBoard {
 public:
  explicit CompletionBoard(std::size_t members)
      : settled_(new std::atomic<bool>[members]),
        remaining_(members) {
    for (std::size_t i = 0; i < members; ++i) {
      settled_[i].store(false, std::memory_order_relaxed);
    }
  }

  /// Idempotent: a member that finished and later crashes (or crashes on
  /// two paths) decrements the fold exactly once.
  void settle(MemberId m) {
    if (!settled_[m.value()].exchange(true, std::memory_order_acq_rel)) {
      remaining_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  [[nodiscard]] bool done() const {
    return remaining_.load(std::memory_order_acquire) == 0;
  }

 private:
  std::unique_ptr<std::atomic<bool>[]> settled_;
  std::atomic<std::size_t> remaining_;
};

}  // namespace

std::uint64_t raise_fd_limit(std::uint64_t need) {
  rlimit limit{};
  expects(getrlimit(RLIMIT_NOFILE, &limit) == 0, "getrlimit failed");
  if (limit.rlim_cur >= need) return limit.rlim_cur;
  rlimit raised = limit;
  raised.rlim_cur = limit.rlim_max == RLIM_INFINITY
                        ? need
                        : std::min<rlim_t>(limit.rlim_max, need);
  if (raised.rlim_cur > limit.rlim_cur) {
    (void)setrlimit(RLIMIT_NOFILE, &raised);
    const rlim_t old_soft = limit.rlim_cur;
    expects(getrlimit(RLIMIT_NOFILE, &raised) == 0, "getrlimit failed");
    if (raised.rlim_cur > old_soft) {
      // Visible at startup, not silent: a run that needed more descriptors
      // than the inherited soft limit says so once, with the numbers.
      std::fprintf(stderr,
                   "gridbox: raised RLIMIT_NOFILE soft limit %llu -> %llu "
                   "(need %llu fds)\n",
                   static_cast<unsigned long long>(old_soft),
                   static_cast<unsigned long long>(raised.rlim_cur),
                   static_cast<unsigned long long>(need));
    }
    return raised.rlim_cur;
  }
  return limit.rlim_cur;
}

void require_fd_capacity(std::uint64_t need) {
  const std::uint64_t got = raise_fd_limit(need);
  if (got >= need) return;
  rlimit limit{};
  (void)getrlimit(RLIMIT_NOFILE, &limit);
  const auto hard = limit.rlim_max == RLIM_INFINITY
                        ? std::string("unlimited")
                        : std::to_string(limit.rlim_max);
  throw PreconditionError(
      "this run needs " + std::to_string(need) +
      " file descriptors (one UDP socket per member plus slack) but "
      "RLIMIT_NOFILE allows only " + std::to_string(got) +
      " (hard limit " + hard +
      "); raise it (e.g. `ulimit -n " + std::to_string(need) +
      "`) or run with a smaller --n");
}

UdpRunResult run_udp_experiment(const UdpRunConfig& udp_config) {
  const ExperimentConfig& config = udp_config.experiment;
  expects(config.group_size >= 2, "need at least two members");
  // Member m binds port_base + m; checked before any fd arithmetic, which
  // would wrap for an absurd group size.
  expects(config.group_size - 1 <= 65535u - udp_config.port_base,
          "group does not fit the port space: port_base + n - 1 > 65535");
  // Sockets + stdio + test-framework slack; fail early with the numbers if
  // the hard limit cannot cover the run instead of mid-setup on bind().
  require_fd_capacity(config.group_size + 64);

  // === World construction: identical derivations to run_experiment. ===
  const Rng root(config.seed);
  membership::Group group(config.group_size);
  if (config.assign_positions || config.hash == HashKind::kTopoAware ||
      config.workload == WorkloadKind::kField) {
    Rng pos_rng = root.derive(streams::kPosition);
    group.scatter_positions(pos_rng);
  }
  Rng vote_rng = root.derive(streams::kVote);
  const agg::VoteTable votes = make_votes(config, group, vote_rng);
  const std::unique_ptr<hashing::HashFunction> hash =
      make_hash(config, group, root);
  hierarchy::GridBoxHierarchy hier(config.group_size, hierarchy_fanout(config),
                                   *hash);
  const std::unique_ptr<agg::AuditRegistry> audit =
      make_audit(config, group, hier);
  protocols::StateArena arena(group.shared_members());
  arena.build_phase_tables(hier);

  // === Real-time substrate: reactors (one thread each) + transports. ===
  // Shard s owns members with id % shard_count == s, end to end: their
  // sockets, their timers, their deliveries, their arena lanes. Dispatch
  // runs lock-free on the owning shard's thread; the state a callback can
  // reach outside its shard is concurrency-safe by construction (atomic
  // Group liveness, mutex-gated AuditRegistry, the completion board).
  const std::size_t shard_count =
      udp_config.shards > 0
          ? udp_config.shards
          : std::max<std::size_t>(
                1, std::min<std::size_t>(
                       {4, std::thread::hardware_concurrency(),
                        config.group_size}));
  const bool concurrent = shard_count > 1;
  if (audit != nullptr) audit->set_concurrent(concurrent);
  const auto epoch = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<net::Reactor>> reactors;
  std::vector<std::unique_ptr<net::UdpTransport>> transports;
  reactors.reserve(shard_count);
  transports.reserve(shard_count);
  const net::ChaosSpec chaos = net::ChaosSpec::parse(config.chaos_spec);
  // Churn needs an epoch boundary for a joiner to enter at; the one-shot
  // protocol has none. The service runtime (src/service) honors these.
  expects(!chaos.has_churn(),
          "join/recover directives require the service runtime");
  const bool shim_active = chaos.affects_network() ||
                           config.ucast_loss > 0.0 ||
                           config.partition_loss >= 0.0;
  const Rng chaos_root = root.derive(streams::kChaos);
  for (std::size_t s = 0; s < shard_count; ++s) {
    reactors.push_back(std::make_unique<net::Reactor>(net::Reactor::Options{}));
    reactors.back()->bind_epoch(epoch);
    net::UdpTransport::Options topt;
    topt.port_base = udp_config.port_base;
    auto transport =
        std::make_unique<net::UdpTransport>(*reactors.back(), topt);
    transport->set_liveness([&group](MemberId m) { return group.is_alive(m); });
    if (shim_active) {
      // One schedule per shard, each with its own derived streams: with
      // real sockets there is no global send order for a single schedule
      // to consume in, so parity with the simulator is statistical (same
      // marginal loss/jitter/dup law), not per-message.
      auto schedule = std::make_unique<net::ChaosSchedule>(
          chaos, make_faults(config), config.group_size, chaos_root.derive(s));
      transport->install_chaos(std::move(schedule));
    }
    transports.push_back(std::move(transport));
  }

  // Completion: every member settles once, on finish or on crash; done()
  // is a single atomic read from any shard thread.
  CompletionBoard board(config.group_size);
  group.set_crash_listener([&board](MemberId m) { board.settle(m); });

  // Scripted crashes fire as reactor actions on the member's own shard;
  // liveness publication is atomic, so other shards observe it safely.
  for (const net::CrashEvent& event : chaos.crashes) {
    const std::size_t s = event.member.value() % shard_count;
    reactors[s]->schedule_at(event.at,
                             [&group, m = event.member]() { group.crash(m); });
  }

  // === Nodes: same construction order and RNG streams as the simulator. ===
  protocols::NodeEnv base_env;
  base_env.hierarchy = &hier;
  base_env.audit = audit.get();
  base_env.arena = &arena;
  base_env.is_alive = [&group](MemberId m) { return group.is_alive(m); };
  base_env.kind = config.aggregate;
  base_env.on_finished = [&board](MemberId m) { board.settle(m); };

  const SimTime horizon = protocol_horizon(config, hier.num_phases());
  const SimTime deadline = std::max(
      udp_config.min_deadline,
      SimTime::micros(static_cast<SimTime::underlying>(
          static_cast<double>(horizon.ticks()) * udp_config.deadline_factor)));

  std::unique_ptr<protocols::InvariantChecker> checker;
  ExperimentConfig node_config = config;
  node_config.gossip.trace = nullptr;
  if (config.check_invariants &&
      config.protocol == ProtocolKind::kHierGossip) {
    protocols::InvariantChecker::Config icfg;
    icfg.group_size = config.group_size;
    icfg.fanout = config.gossip.k;
    icfg.num_phases = hier.num_phases();
    icfg.scheduler = reactors[0].get();
    icfg.audit = audit.get();
    // The Theorem-1 deadline is meaningful on the virtual clock; on a real
    // host the run-level deadline (already a generous multiple of the
    // horizon) plays that role, so scheduler noise cannot fake a
    // violation.
    icfg.deadline = deadline;
    // Never throw across reactor threads; collect and report after join.
    icfg.fail_fast = false;
    // Trace events arrive from every shard thread.
    icfg.concurrent = concurrent;
    checker = std::make_unique<protocols::InvariantChecker>(icfg);
    node_config.gossip.trace = checker.get();
  }
  base_env.trace = node_config.gossip.trace;

  Rng view_rng = root.derive(streams::kView);
  std::vector<std::unique_ptr<protocols::ProtocolNode>> nodes;
  nodes.reserve(config.group_size);
  for (const MemberId m : group.members()) {
    const std::size_t s = m.value() % shard_count;
    protocols::NodeEnv env = base_env;
    env.scheduler = reactors[s].get();
    env.network = transports[s].get();
    auto node = make_node(node_config, m, votes.of(m),
                          make_view(config, group, m, view_rng), env,
                          root.derive(streams::kNodeBase + m.value()));
    transports[s]->attach(m, *node);
    nodes.push_back(std::move(node));
  }
  // Still single-threaded here: start() arms each node's timers on its
  // shard reactor before any loop runs, and the thread starts in
  // net::run_reactors publish everything built so far to the shard threads.
  for (auto& node : nodes) node->start(SimTime::zero());

  // Per-round crash clock (paper §7 pf), ticking as a self-rescheduling
  // action on shard 0. It reads only cross-thread-safe state: atomic node
  // finished() flags, atomic liveness, and crash() publication.
  const membership::PerRoundCrash crash_model(config.crash_probability);
  auto crash_rng = std::make_shared<Rng>(root.derive(streams::kCrash));
  if (config.crash_probability > 0.0) {
    auto round = std::make_shared<std::uint64_t>(0);
    auto tick = std::make_shared<std::function<void()>>();
    net::Reactor& r0 = *reactors[0];
    // Only the pending wheel entry owns the tick: a strong self-capture
    // would be a cycle that outlives the run.
    *tick = [&group, &nodes, &crash_model, &r0, crash_rng, round,
             self = std::weak_ptr<std::function<void()>>(tick),
             interval = config.round_duration()]() {
      (void)group.apply_round_crashes(crash_model, (*round)++, *crash_rng);
      for (const auto& node : nodes) {
        if (!node->finished() && group.is_alive(node->self())) {
          r0.schedule_after(interval, [next = self.lock()]() { (*next)(); });
          return;
        }
      }
    };
    r0.schedule_after(config.round_duration(), [tick]() { (*tick)(); });
  }

  // Every shard's lanes — its reactor's loop lane beside its transport's
  // traffic lane — as live telemetry and the result both read them. The
  // sampler and optional stats socket run on shard 0 (scheduling is still
  // single-threaded here, before the loops).
  std::vector<obs::ShardLanes> shard_lanes;
  for (std::size_t s = 0; s < shard_count; ++s) {
    shard_lanes.push_back({&reactors[s]->telemetry(), &transports[s]->traffic()});
  }
  const obs::TelemetryHub tel_hub(std::move(shard_lanes));
  std::unique_ptr<obs::TelemetrySampler> tel_sampler;
  std::unique_ptr<net::TelemetrySocket> tel_socket;
  SamplerTick sampler_tick;
  if (config.telemetry.enabled) {
    tel_sampler =
        std::make_unique<obs::TelemetrySampler>(tel_hub, config.telemetry);
    sampler_tick.sampler = tel_sampler.get();
    sampler_tick.clock = reactors[0].get();
    sampler_tick.keep_going = [&board]() { return !board.done(); };
    reactors[0]->schedule_periodic(config.telemetry.interval,
                                   config.telemetry.interval, sampler_tick);
    if (config.telemetry.udp_port != 0) {
      tel_socket = std::make_unique<net::TelemetrySocket>(
          *reactors[0], config.telemetry.udp_port,
          [sampler = tel_sampler.get()]() { return sampler->latest(); });
    }
  }

  // === Run: one thread per reactor until global completion or deadline.
  // A shard must keep serving datagrams until *everyone* finished, not
  // just its own members; done() is one atomic load, not a scan.
  const bool completed = net::run_reactors(
      reactors, [&board]() { return board.done(); }, deadline);

  // Final sample post-join: exact closing record, ordered by the joins.
  if (tel_sampler != nullptr) tel_sampler->sample(reactors[0]->now());

  UdpRunResult result;
  result.shards = shard_count;
  result.completed = completed;
  result.elapsed = reactors[0]->now();

  if (checker != nullptr) {
    std::vector<MemberId> alive;
    for (const MemberId m : group.members()) {
      if (group.is_alive(m)) alive.push_back(m);
    }
    checker->expect_all_finished(alive);
    result.invariant_violations = checker->violations().size();
    if (!checker->violations().empty()) {
      result.first_violation = checker->violations().front().what;
    }
  }

  // Fold the shards' lanes in shard order (deterministic, same trick as
  // the sweep reducer): traffic lanes, then loop lanes.
  for (const auto& transport : transports) {
    net::fold(result.network, transport->traffic());
  }
  result.measurement = protocols::measure_run(group, nodes, votes,
                                              config.aggregate, result.network,
                                              audit.get());
  const obs::LaneSnapshot loop = tel_hub.snapshot_total();
  result.timers_fired = loop.timers_fired;
  result.actions_run = loop.actions_run;
  result.polls = loop.polls;
  result.eintr_retries = loop.eintr_retries;
  return result;
}

}  // namespace gridbox::runner
