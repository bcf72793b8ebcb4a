#include "world.h"

#include "src/common/rng.h"
#include "src/net/latency_model.h"
#include "src/runner/world_setup.h"

namespace gridbench {

namespace runner = gridbox::runner;
namespace streams = gridbox::runner::streams;

namespace {

gridbox::agg::VoteTable votes_for(const runner::ExperimentConfig& config,
                                  const gridbox::membership::Group& group) {
  gridbox::Rng vote_rng = gridbox::Rng(config.seed).derive(streams::kVote);
  return runner::make_votes(config, group, vote_rng);
}

}  // namespace

SimWorld::SimWorld(const runner::ExperimentConfig& config)
    : group(config.group_size), votes(votes_for(config, group)) {
  const gridbox::Rng root(config.seed);
  hash = runner::make_hash(config, group, root);
  hier = std::make_unique<gridbox::hierarchy::GridBoxHierarchy>(
      config.group_size, runner::hierarchy_fanout(config), *hash);
  network = std::make_unique<gridbox::net::SimNetwork>(
      simulator, runner::make_faults(config),
      std::make_unique<gridbox::net::UniformLatency>(config.latency_lo,
                                                      config.latency_hi),
      root.derive(streams::kNet));
  network->set_liveness(
      [this](gridbox::MemberId m) { return group.is_alive(m); });
  audit = runner::make_audit(config, group, *hier);
  arena = std::make_unique<gridbox::protocols::StateArena>(
      group.shared_members());
  arena->build_phase_tables(*hier);
  simulator.reserve_events(4 * config.group_size);

  gridbox::protocols::NodeEnv env;
  env.scheduler = &simulator;
  env.network = network.get();
  env.hierarchy = hier.get();
  env.audit = audit.get();
  env.arena = arena.get();
  env.is_alive = [this](gridbox::MemberId m) { return group.is_alive(m); };
  env.kind = config.aggregate;

  gridbox::Rng view_rng = root.derive(streams::kView);
  nodes.reserve(config.group_size);
  for (const gridbox::MemberId m : group.members()) {
    auto node = runner::make_node(
        config, m, votes.of(m), runner::make_view(config, group, m, view_rng),
        env, root.derive(streams::kNodeBase + m.value()));
    network->attach(m, *node);
    nodes.push_back(std::move(node));
  }
}

void time_world_builds(const runner::ExperimentConfig& config,
                       double budget_s, std::size_t min_builds,
                       std::vector<double>& out, SpanLog& spans) {
  const auto t0 = Clock::now();
  for (std::size_t built = 0;
       built < min_builds || seconds_between(t0, Clock::now()) < budget_s;
       ++built) {
    runner::ExperimentConfig sample = config;
    sample.seed = config.seed + out.size();
    const ScopedSpan span(spans, "runner.world_build");
    const auto b0 = Clock::now();
    const SimWorld world(sample);
    out.push_back(seconds_between(b0, Clock::now()));
  }
}

}  // namespace gridbench
