// One simulator world built from the runner's public factories — the same
// set-up run_experiment performs before its event loop, without the loop.
// The benchmark times this as the simulator workloads' set-up.
#pragma once

#include <memory>
#include <vector>

#include "harness.h"
#include "src/agg/audit.h"
#include "src/agg/vote.h"
#include "src/hashing/hash_function.h"
#include "src/hierarchy/hierarchy.h"
#include "src/membership/group.h"
#include "src/net/network.h"
#include "src/protocols/arena.h"
#include "src/protocols/node.h"
#include "src/runner/config.h"
#include "src/sim/simulator.h"

namespace gridbench {

struct SimWorld {
  explicit SimWorld(const gridbox::runner::ExperimentConfig& config);
  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  gridbox::membership::Group group;
  gridbox::agg::VoteTable votes;
  std::unique_ptr<gridbox::hashing::HashFunction> hash;
  std::unique_ptr<gridbox::hierarchy::GridBoxHierarchy> hier;
  gridbox::sim::Simulator simulator;
  std::unique_ptr<gridbox::net::SimNetwork> network;
  std::unique_ptr<gridbox::agg::AuditRegistry> audit;
  std::unique_ptr<gridbox::protocols::StateArena> arena;
  std::vector<std::unique_ptr<gridbox::protocols::ProtocolNode>> nodes;
};

/// Builds worlds for `config` (seed + i for the i-th sample) until
/// `budget_s` is spent and at least `min_builds` times, appending each
/// build's wall seconds to `out`, each under a "runner.world_build" span.
void time_world_builds(const gridbox::runner::ExperimentConfig& config,
                       double budget_s, std::size_t min_builds,
                       std::vector<double>& out, SpanLog& spans);

}  // namespace gridbench
