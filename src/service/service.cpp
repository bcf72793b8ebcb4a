#include "src/service/service.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/ensure.h"
#include "src/hashing/fair_hash.h"
#include "src/net/network.h"
#include "src/obs/lineage.h"
#include "src/runner/world_setup.h"

namespace gridbox::service {

namespace {

/// Nearest-rank percentile over a sorted sample (zero when empty).
SimTime percentile(const std::vector<SimTime>& sorted, double p) {
  if (sorted.empty()) return SimTime::zero();
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto i = static_cast<std::size_t>(rank + 0.5);
  return sorted[std::min(i, sorted.size() - 1)];
}

}  // namespace

ServiceEngine::ServiceEngine(const ServiceConfig& config, InstanceMux& mux,
                             membership::Group& shared_group,
                             Substrate substrate)
    : config_(config),
      mux_(mux),
      shared_group_(shared_group),
      substrate_(std::move(substrate)),
      crash_model_(config.experiment.crash_probability),
      crash_rng_(
          Rng(config.experiment.seed).derive(runner::streams::kCrash)) {
  const runner::ExperimentConfig& xc = config_.experiment;
  expects(xc.group_size >= 2, "need at least two members");
  expects(config_.instances >= 1, "need at least one instance");
  expects(config_.epoch_interval > SimTime::zero(),
          "epoch interval must be positive");
  expects(config_.max_in_flight >= 1, "in-flight window must be at least 1");
  expects(substrate_.control != nullptr, "substrate needs a control scheduler");
  expects(static_cast<bool>(substrate_.scheduler_of) &&
              static_cast<bool>(substrate_.post_to_member) &&
              static_cast<bool>(substrate_.count_timers),
          "substrate seam incomplete");
  expects(shared_group_.size() == xc.group_size,
          "shared group size must match the experiment config");

  chaos_ = net::ChaosSpec::parse(xc.chaos_spec);
  for (const net::ChurnEvent& e : chaos_.joins) {
    expects(e.member.value() < xc.group_size, "join member outside the group");
  }
  for (const net::ChurnEvent& e : chaos_.recovers) {
    expects(e.member.value() < xc.group_size,
            "recover member outside the group");
  }

  scan_interval_ = xc.round_duration();

  // Deadlines are sized from the protocol horizon. The phase count is
  // structural (it depends on N and K, not on the per-instance hash salt),
  // so a probe hierarchy stands in for every instance's.
  const hashing::FairHash probe_hash(0);
  const hierarchy::GridBoxHierarchy probe(
      xc.group_size, runner::hierarchy_fanout(xc), probe_hash);
  const SimTime horizon = runner::protocol_horizon(xc, probe.num_phases());
  instance_deadline_ = std::max(
      config_.min_deadline,
      SimTime::micros(static_cast<SimTime::underlying>(
          static_cast<double>(horizon.ticks()) * config_.deadline_factor)));
  // Backstop for the event loop: even a fully serialized stream (every
  // launch deferred behind a failing predecessor) resolves within this.
  const auto n = static_cast<SimTime::underlying>(config_.instances);
  global_deadline_ =
      SimTime::micros(config_.epoch_interval.ticks() * n +
                      instance_deadline_.ticks() * (n + 1));
}

void ServiceEngine::begin() {
  // Crashes from any source (churn script, chaos crash directives, the
  // per-round pf model) fan into every running instance's membership view.
  shared_group_.set_crash_listener([this](MemberId m) { fan_crash(m); });

  // Joiners are absent from service start: they participate in nothing
  // until their join time, then enter at the next epoch boundary.
  for (const net::ChurnEvent& e : chaos_.joins) {
    shared_group_.crash(e.member);
  }
  for (const net::ChurnEvent& e : chaos_.joins) {
    substrate_.control->schedule_at(
        e.at, [this, m = e.member]() { shared_group_.recover(m); });
  }
  for (const net::ChurnEvent& e : chaos_.recovers) {
    substrate_.control->schedule_at(
        e.at, [this, m = e.member]() { shared_group_.recover(m); });
  }
  // Scripted chaos crashes are service-wide events here (the one-shot
  // runners schedule these themselves; the engine owns them in a service
  // run so they hit the shared view exactly once).
  for (const net::CrashEvent& e : chaos_.crashes) {
    substrate_.control->schedule_at(
        e.at, [this, m = e.member]() { shared_group_.crash(m); });
  }

  if (config_.experiment.crash_probability > 0.0) {
    substrate_.control->schedule_after(scan_interval_,
                                       [this]() { crash_tick(); });
  }

  for (std::size_t i = 0; i < config_.instances; ++i) {
    const SimTime due = SimTime::micros(
        config_.epoch_interval.ticks() * static_cast<SimTime::underlying>(i));
    substrate_.control->schedule_at(
        due, [this, id = static_cast<std::uint32_t>(i)]() {
          on_launch_due(id);
        });
  }

  substrate_.control->schedule_after(scan_interval_, [this]() { scan(); });
}

void ServiceEngine::crash_tick() {
  (void)shared_group_.apply_round_crashes(crash_model_, crash_round_++,
                                          crash_rng_);
  if (!done_.load(std::memory_order_relaxed)) {
    substrate_.control->schedule_after(scan_interval_,
                                       [this]() { crash_tick(); });
  }
}

void ServiceEngine::fan_crash(MemberId member) {
  for (auto& [id, inst] : live_) {
    if (inst->state == State::kRunning && inst->group.is_alive(member)) {
      inst->group.crash(member);
      if (inst->observer) inst->observer->on_crash(member);
    }
  }
}

std::size_t ServiceEngine::running_count() const { return in_flight_; }

void ServiceEngine::sync_telemetry() {
  if (substrate_.telemetry == nullptr) return;
  obs::ServiceTelemetry& s = substrate_.telemetry->service();
  s.launched = launched_;
  s.completed = completed_count_;
  s.failed = failed_count_;
  s.deferred = deferred_count_;
  s.note_occupancy(in_flight_, deferred_.size());
}

void ServiceEngine::on_launch_due(std::uint32_t id) {
  // Launches must stay in id order (the mux's monotone id space), so a due
  // epoch also defers while older deferred launches are still queued.
  if (!deferred_.empty() || running_count() >= config_.max_in_flight) {
    deferred_.push_back(id);
    ++deferred_count_;
    sync_telemetry();
    return;
  }
  launch(id);
}

void ServiceEngine::try_launches() {
  while (!deferred_.empty() && running_count() < config_.max_in_flight) {
    const std::uint32_t id = deferred_.front();
    deferred_.pop_front();
    launch(id);
  }
}

void ServiceEngine::launch(std::uint32_t id) {
  const runner::ExperimentConfig& xc = config_.experiment;
  const SimTime now = substrate_.control->now();

  // Per-instance world: same derivation order as run_experiment, but off an
  // instance-specific root, so every epoch aggregates fresh votes over a
  // fresh hash salt (hence a fresh hierarchy) — and both substrates derive
  // bit-identical worlds for the differential oracle.
  const Rng inst_root = Rng(xc.seed).derive(kInstanceWorld).derive(id);
  membership::Group igroup(xc.group_size);
  if (xc.assign_positions || xc.hash == runner::HashKind::kTopoAware ||
      xc.workload == runner::WorkloadKind::kField) {
    Rng pos_rng = inst_root.derive(runner::streams::kPosition);
    igroup.scatter_positions(pos_rng);
  }
  Rng vote_rng = inst_root.derive(runner::streams::kVote);
  agg::VoteTable votes = runner::make_votes(xc, igroup, vote_rng);
  auto inst =
      std::make_unique<Instance>(id, std::move(igroup), std::move(votes));
  inst->hash = runner::make_hash(xc, inst->group, inst_root);
  inst->hier = std::make_unique<hierarchy::GridBoxHierarchy>(
      xc.group_size, runner::hierarchy_fanout(xc), *inst->hash);
  inst->audit = runner::make_audit(xc, inst->group, *inst->hier);
  // With several reactor shards, this instance's nodes register votes and
  // merges from every shard concurrently; arm the registry's internal lock.
  if (inst->audit != nullptr && substrate_.shards > 1) {
    inst->audit->set_concurrent(true);
  }

  if (!arena_pool_.empty()) {
    inst->arena = std::move(arena_pool_.back());
    arena_pool_.pop_back();
    inst->arena->recycle(inst->group.shared_members(), *inst->hier);
  } else {
    inst->arena =
        std::make_unique<protocols::StateArena>(inst->group.shared_members());
    inst->arena->build_phase_tables(*inst->hier);
  }

  // The epoch's cohort: members alive in the shared view right now. To the
  // instance, everyone else is crashed from the start.
  for (const MemberId m : inst->group.members()) {
    if (!shared_group_.is_alive(m)) inst->group.crash(m);
  }
  inst->participants = inst->group.alive_count();

  inst->launched_at = now;
  inst->deadline = now + instance_deadline_;

  // Observability chain: node -> checker -> observer (the checker forwards
  // before checking, so the log keeps the offending event too).
  runner::ExperimentConfig node_config = xc;
  node_config.gossip.trace = nullptr;
  protocols::gossip::GossipTrace* tail = nullptr;
  if (config_.collect_lineage && substrate_.sim_clock != nullptr &&
      xc.protocol == runner::ProtocolKind::kHierGossip) {
    obs::EventLog::Options eopt;
    eopt.replay = true;
    eopt.group_size = xc.group_size;
    inst->events = std::make_unique<obs::EventLog>(eopt);
    obs::RunObserver::Options oopt;
    oopt.events = inst->events.get();
    oopt.simulator = substrate_.sim_clock;
    oopt.group_size = xc.group_size;
    inst->observer = std::make_unique<obs::RunObserver>(oopt);
    tail = inst->observer.get();
  }
  if (xc.check_invariants && xc.protocol == runner::ProtocolKind::kHierGossip) {
    protocols::InvariantChecker::Config icfg;
    icfg.group_size = xc.group_size;
    icfg.fanout = xc.gossip.k;
    icfg.num_phases = inst->hier->num_phases();
    icfg.scheduler = substrate_.control;
    icfg.audit = inst->audit.get();
    // Theorem 1 is meaningful on the virtual clock; on a real host the
    // instance deadline (a generous multiple of the horizon) plays that
    // role, so scheduler noise cannot fake a violation.
    icfg.deadline =
        substrate_.sim_clock != nullptr
            ? now + runner::protocol_horizon(xc, inst->hier->num_phases())
            : inst->deadline;
    icfg.fail_fast = substrate_.sim_clock != nullptr;
    icfg.concurrent = substrate_.shards > 1;
    icfg.next = tail;
    inst->checker = std::make_unique<protocols::InvariantChecker>(icfg);
    node_config.gossip.trace = inst->checker.get();
  } else {
    node_config.gossip.trace = tail;
  }

  inst->sender = mux_.open_instance(id);

  protocols::NodeEnv base_env;
  base_env.network = inst->sender.get();
  base_env.hierarchy = inst->hier.get();
  base_env.audit = inst->audit.get();
  base_env.arena = inst->arena.get();
  base_env.is_alive = [g = &inst->group](MemberId m) {
    return g->is_alive(m);
  };
  base_env.kind = xc.aggregate;
  base_env.trace = node_config.gossip.trace;

  // All N nodes are constructed (measure_run and the sequential view-RNG
  // consumption both require it); only participants attach and start.
  Rng view_rng = inst_root.derive(runner::streams::kView);
  inst->nodes.reserve(xc.group_size);
  for (const MemberId m : inst->group.members()) {
    protocols::NodeEnv env = base_env;
    env.scheduler = substrate_.scheduler_of(m);
    auto node = runner::make_node(
        node_config, m, inst->votes.of(m),
        runner::make_view(xc, inst->group, m, view_rng), env,
        inst_root.derive(runner::streams::kNodeBase + m.value()));
    if (inst->group.is_alive(m)) inst->sender->attach(m, *node);
    inst->nodes.push_back(std::move(node));
  }
  for (const auto& node : inst->nodes) {
    const MemberId m = node->self();
    if (!inst->group.is_alive(m)) continue;
    // Starting schedules timers, which is only thread-legal on the member's
    // own shard. The liveness re-check covers a crash landing between this
    // post and its execution.
    substrate_.post_to_member(
        m, [node = node.get(), g = &inst->group, m, at = now]() {
          if (g->is_alive(m)) node->start(at);
        });
  }

  live_.emplace(id, std::move(inst));
  ++launched_;
  ++in_flight_;
  sync_telemetry();
}

bool ServiceEngine::instance_done(const Instance& inst) const {
  for (const auto& node : inst.nodes) {
    if (!node->finished() && inst.group.is_alive(node->self())) return false;
  }
  return true;
}

void ServiceEngine::complete(Instance& inst, SimTime now) {
  inst.completed_at = now;
  completion_times_.push_back(now - inst.launched_at);
  mux_.close_instance(inst.id);
  inst.state = State::kDraining;
  --in_flight_;
  ++completed_count_;
  if (substrate_.telemetry != nullptr) {
    substrate_.telemetry->service().epoch_latency_us.observe(
        static_cast<std::uint64_t>((now - inst.launched_at).ticks()));
  }
  sync_telemetry();
}

void ServiceEngine::fail(Instance& inst) {
  mux_.close_instance(inst.id);
  inst.state = State::kFailed;
  --in_flight_;
  ++failed_count_;
  sync_telemetry();
  if (inst.checker) {
    // Materialize never-finished violations for the report (collect mode:
    // the UDP substrate never fail-fasts).
    std::vector<MemberId> alive;
    for (const MemberId m : inst.group.members()) {
      if (inst.group.is_alive(m)) alive.push_back(m);
    }
    inst.checker->expect_all_finished(alive);
  }
}

void ServiceEngine::probe_drain(Instance& inst) {
  inst.count_outstanding = true;
  // The nodes' TimerTarget identities; shared so the predicate survives the
  // asynchronous shard hop on the UDP substrate.
  auto targets = std::make_shared<std::vector<const sim::TimerTarget*>>();
  targets->reserve(inst.nodes.size());
  for (const auto& node : inst.nodes) {
    targets->push_back(static_cast<const sim::TimerTarget*>(node.get()));
  }
  std::sort(targets->begin(), targets->end());
  substrate_.count_timers(
      [targets](const sim::TimerTarget* t) {
        return std::binary_search(targets->begin(), targets->end(), t);
      },
      [this, id = inst.id](std::size_t pending) {
        on_drain_count(id, pending);
      });
}

void ServiceEngine::on_drain_count(std::uint32_t id, std::size_t pending) {
  const auto it = live_.find(id);
  if (it == live_.end()) return;
  Instance& inst = *it->second;
  inst.count_outstanding = false;
  if (pending > 0) return;  // linger timers remain; the scan probes again
  finalize(inst, /*teardown=*/true);
  live_.erase(it);
  maybe_done();
}

void ServiceEngine::finalize(Instance& inst, bool teardown) {
  InstanceResult row;
  row.id = inst.id;
  row.completed = true;
  row.launched_at = inst.launched_at;
  row.completed_at = inst.completed_at;
  row.participants = inst.participants;
  // Drained (or the loop stopped): no demux still races the lanes.
  row.network = inst.sender->stats();
  if (inst.checker) {
    std::vector<MemberId> alive;
    for (const MemberId m : inst.group.members()) {
      if (inst.group.is_alive(m)) alive.push_back(m);
    }
    inst.checker->expect_all_finished(alive);
    row.invariant_violations = inst.checker->violations().size();
    if (!inst.checker->violations().empty()) {
      row.first_violation = inst.checker->violations().front().what;
    }
  }
  row.measurement =
      protocols::measure_run(inst.group, inst.nodes, inst.votes,
                             config_.experiment.aggregate, row.network,
                             inst.audit.get());
  if (inst.events) {
    obs::LineageTracker::Options lopt;
    lopt.group_size = config_.experiment.group_size;
    obs::LineageTracker lineage(*inst.events, lopt);
    lineage.capture_hierarchy(*inst.hier);
    row.lineage_json = lineage.to_json();
  }
  results_.push_back(std::move(row));
  if (teardown) {
    inst.nodes.clear();
    inst.sender.reset();
    inst.checker.reset();
    inst.observer.reset();
    inst.events.reset();
    arena_pool_.push_back(std::move(inst.arena));
  }
}

void ServiceEngine::scan() {
  const SimTime now = substrate_.control->now();
  try_launches();
  std::vector<std::uint32_t> ids;
  ids.reserve(live_.size());
  for (const auto& [id, inst] : live_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t id : ids) {
    const auto it = live_.find(id);
    if (it == live_.end()) continue;
    Instance& inst = *it->second;
    if (inst.state == State::kRunning) {
      if (instance_done(inst)) {
        complete(inst, now);
      } else if (now >= inst.deadline) {
        fail(inst);
        parked_.push_back(std::move(it->second));
        live_.erase(it);
        continue;
      }
    }
    if (inst.state == State::kDraining && !inst.count_outstanding) {
      // In the simulator the count resolves inline (possibly finalizing and
      // erasing the instance right here); on UDP it hops the shards and
      // lands back on the control thread later.
      probe_drain(inst);
    }
  }
  try_launches();
  maybe_done();
  if (!done_.load(std::memory_order_relaxed)) {
    substrate_.control->schedule_after(scan_interval_, [this]() { scan(); });
  }
}

void ServiceEngine::maybe_done() {
  if (launched_ == config_.instances && live_.empty() && deferred_.empty()) {
    done_.store(true, std::memory_order_release);
  }
}

ServiceResult ServiceEngine::collect() {
  expects(!collected_, "collect() is single-shot");
  collected_ = true;

  ServiceResult result;
  result.elapsed = substrate_.control->now();

  // Stragglers the event loop abandoned (global deadline / event budget):
  // draining ones did answer — measure them in place, without destroying
  // nodes that may still own scheduled timers; running ones failed.
  for (auto& [id, inst] : live_) {
    if (inst->state == State::kDraining) {
      finalize(*inst, /*teardown=*/false);
    } else if (inst->state == State::kRunning) {
      mux_.close_instance(inst->id);
      inst->state = State::kFailed;
      --in_flight_;
      ++failed_count_;
      parked_.push_back(std::move(inst));
    }
  }
  live_.clear();

  for (const auto& inst : parked_) {
    InstanceResult row;
    row.id = inst->id;
    row.completed = false;
    row.launched_at = inst->launched_at;
    row.participants = inst->participants;
    row.network = inst->sender->stats();
    if (inst->checker) {
      row.invariant_violations = inst->checker->violations().size();
      if (!inst->checker->violations().empty()) {
        row.first_violation = inst->checker->violations().front().what;
      }
    }
    results_.push_back(std::move(row));
  }

  std::sort(results_.begin(), results_.end(),
            [](const InstanceResult& a, const InstanceResult& b) {
              return a.id < b.id;
            });
  result.instances = std::move(results_);

  ServiceMetrics& m = result.metrics;
  m.launched = launched_;
  m.completed = completed_count_;
  m.failed = failed_count_;
  m.deferred = deferred_count_;
  std::sort(completion_times_.begin(), completion_times_.end());
  m.p50_completion = percentile(completion_times_, 0.50);
  m.p90_completion = percentile(completion_times_, 0.90);
  m.p99_completion = percentile(completion_times_, 0.99);
  if (result.elapsed > SimTime::zero()) {
    m.instances_per_sec = static_cast<double>(completed_count_) /
                          (static_cast<double>(result.elapsed.ticks()) / 1e6);
  }
  m.demux = mux_.stats();

  result.completed =
      completed_count_ == config_.instances && failed_count_ == 0;
  return result;
}

std::string lineage_multi_json(const std::vector<InstanceResult>& instances) {
  // The per-instance documents are already serialized JSON objects; the
  // container only nests them, so plain concatenation is exact.
  std::string out = "{\"schema\":\"gridbox-lineage-multi/1\",\"instances\":[";
  bool first = true;
  for (const InstanceResult& inst : instances) {
    if (inst.lineage_json.empty()) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(inst.id) + ",\"doc\":";
    out += inst.lineage_json;
    out += "}";
  }
  out += "]}";
  return out;
}

ServiceResult run_service_experiment(const ServiceConfig& config) {
  const runner::ExperimentConfig& xc = config.experiment;
  sim::Simulator simulator;
  simulator.set_event_limit(
      std::max<std::uint64_t>(500'000'000, static_cast<std::uint64_t>(1000) *
                                               xc.group_size *
                                               config.instances));
  const Rng root(xc.seed);

  membership::Group shared_group(xc.group_size);
  net::SimNetwork network(simulator, runner::make_faults(xc),
                          std::make_unique<net::UniformLatency>(xc.latency_lo,
                                                               xc.latency_hi),
                          root.derive(runner::streams::kNet));
  network.set_liveness(
      [&shared_group](MemberId m) { return shared_group.is_alive(m); });
  const net::ChaosSpec chaos = net::ChaosSpec::parse(xc.chaos_spec);
  if (chaos.affects_network()) {
    network.install_chaos(std::make_unique<net::ChaosSchedule>(
        chaos, runner::make_faults(xc), xc.group_size,
        root.derive(runner::streams::kChaos)));
  }

  InstanceMux::Options mopt;
  mopt.group_size = xc.group_size;
  mopt.transport_of = [&network](MemberId) -> net::Transport* {
    return &network;
  };
  mopt.max_instances = config.instances;
  InstanceMux mux(std::move(mopt));
  mux.attach_all();

  ServiceEngine::Substrate substrate;
  substrate.control = &simulator;
  substrate.scheduler_of = [&simulator](MemberId) -> sim::Scheduler* {
    return &simulator;
  };
  substrate.post_to_member = [](MemberId, sim::Action action) { action(); };
  substrate.count_timers =
      [&simulator](std::function<bool(const sim::TimerTarget*)> pred,
                   std::function<void(std::size_t)> done) {
        done(simulator.count_timers_where(pred));
      };
  substrate.sim_clock = &simulator;

  // Live telemetry: the simulator is one shard, so one pair of lanes. The
  // sampler ticks on the virtual clock, making the whole JSONL series a
  // pure function of (config, seed) — the determinism tests pin the bytes.
  std::unique_ptr<obs::TelemetryHub> tel_hub;
  std::unique_ptr<obs::TelemetrySampler> tel_sampler;
  if (xc.telemetry.enabled) {
    tel_hub = std::make_unique<obs::TelemetryHub>(std::vector<obs::ShardLanes>{
        {&simulator.telemetry(), &network.traffic()}});
    tel_hub->enable_service();
    substrate.telemetry = tel_hub.get();
    tel_sampler = std::make_unique<obs::TelemetrySampler>(*tel_hub,
                                                          xc.telemetry);
  }

  ServiceEngine engine(config, mux, shared_group, substrate);
  engine.begin();
  if (tel_sampler != nullptr) {
    // The periodic tick rides the same event queue as the run; it stops
    // rescheduling once the stream resolves so the loop below still drains.
    simulator.schedule_periodic(xc.telemetry.interval, xc.telemetry.interval,
                                [&engine, &tel_sampler, &simulator]() {
                                  tel_sampler->sample(simulator.now());
                                  return !engine.finished();
                                });
  }
  const SimTime deadline = engine.global_deadline();
  while (!engine.finished() && !simulator.idle() &&
         simulator.now() <= deadline) {
    (void)simulator.step();
  }
  ServiceResult result = engine.collect();
  result.network = network.stats();
  // Final sample: the resolved stream's end state always makes the series.
  if (tel_sampler != nullptr) tel_sampler->sample(simulator.now());
  return result;
}

}  // namespace gridbox::service
