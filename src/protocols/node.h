// Framework shared by every aggregation protocol.
//
// A protocol is a set of per-member state machines (ProtocolNode) driven by
// a scheduler's clock (simulated or real) and a transport's deliveries.
// Nodes act only on
//   - their own configuration and view,
//   - the well-known hierarchy parameters (H, K, N-estimate), and
//   - received messages;
// they never read the experiment's ground truth. The one exception is the
// liveness oracle: a crashed process simply stops executing, which we model
// by nodes checking their own liveness before acting.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "src/agg/aggregate.h"
#include "src/agg/audit.h"
#include "src/agg/vote.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/hierarchy/hierarchy.h"
#include "src/membership/view.h"
#include "src/net/transport.h"
#include "src/protocols/arena.h"
#include "src/protocols/gossip/trace.h"
#include "src/sim/scheduler.h"

namespace gridbox::protocols {

/// Everything a node needs from its environment. All pointers are non-owning
/// and must outlive the node; `audit` may be null (audit off).
///
/// `scheduler` and `network` are the two abstraction seams that make the
/// same node code run in the simulator and over real UDP sockets: the world
/// that builds the node decides which implementations back them.
struct NodeEnv {
  sim::Scheduler* scheduler = nullptr;
  net::Transport* network = nullptr;
  const hierarchy::GridBoxHierarchy* hierarchy = nullptr;
  agg::AuditRegistry* audit = nullptr;  // nullable
  /// Shared struct-of-arrays state for the run's nodes (nullable: a node
  /// without one gets a private single-slot arena).
  StateArena* arena = nullptr;  // nullable
  /// Liveness of *this* node: a crashed process stops executing.
  std::function<bool(MemberId)> is_alive;
  agg::AggregateKind kind = agg::AggregateKind::kAverage;
  /// Observability chain shared by every protocol (nullable). Hierarchical
  /// gossip keeps its own GossipConfig::trace; baselines emit through this.
  gossip::GossipTrace* trace = nullptr;  // nullable
  /// Fires once when this node sets its outcome (nullable; sim runs leave
  /// it unset). The sharded UDP runtimes hook it to tick their per-shard
  /// completion counters instead of scanning every node from done().
  /// Called on the node's own dispatch thread, after finished() is true.
  std::function<void(MemberId)> on_finished;
};

/// Final outcome at one member.
struct NodeOutcome {
  bool finished = false;              ///< protocol terminated at this member
  agg::Partial estimate;              ///< its global aggregate estimate
  std::uint64_t audit_token = agg::kNoAuditToken;
  SimTime finish_time = SimTime::zero();
};

class ProtocolNode : public net::Endpoint, public sim::TimerTarget {
 public:
  /// `vote` is this member's own input; `view` the members it knows about.
  ProtocolNode(MemberId self, double vote, membership::View view, NodeEnv env,
               Rng rng);
  ~ProtocolNode() override = default;

  /// Schedules this node's behaviour starting at `at`. Called once.
  virtual void start(SimTime at) = 0;

  [[nodiscard]] MemberId self() const { return self_; }
  [[nodiscard]] double own_vote() const { return arena_->vote(slot_); }
  [[nodiscard]] const membership::View& view() const { return view_; }

  [[nodiscard]] const NodeOutcome& outcome() const { return outcome_; }

  /// True once the protocol terminated at this member. Safe to read from
  /// other threads (atomic, acquire): a true result publishes the outcome
  /// fields written before the release store in set_outcome. The sharded
  /// runtimes probe this cross-shard (crash clock, service completion
  /// scan) while the owning shard is still dispatching.
  [[nodiscard]] bool finished() const {
    return finished_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t rounds_executed() const {
    return arena_->round(slot_);
  }

 protected:
  [[nodiscard]] sim::Scheduler& scheduler() { return *env_.scheduler; }
  [[nodiscard]] net::Transport& network() { return *env_.network; }
  [[nodiscard]] const hierarchy::GridBoxHierarchy& hier() const {
    return *env_.hierarchy;
  }
  [[nodiscard]] agg::AuditRegistry* audit() { return env_.audit; }
  [[nodiscard]] gossip::GossipTrace* env_trace() { return env_.trace; }
  [[nodiscard]] agg::AggregateKind kind() const { return env_.kind; }
  [[nodiscard]] Rng& rng() { return rng_; }

  [[nodiscard]] bool alive() const {
    return !env_.is_alive || env_.is_alive(self_);
  }

  /// Sends a wire frame to `to`, with bookkeeping. The frame is copied into
  /// the message by value — no heap allocation on this path.
  void send_to(MemberId to, const net::Frame& frame);

  /// sim::TimerTarget: the typed periodic-round timer calls this; the default
  /// forwards to on_round(). Protocols with a single round loop just override
  /// on_round(); ones with several timers may override on_timer directly.
  [[nodiscard]] bool on_timer(std::uint32_t timer_id) override;

  /// One protocol round tick; return true to keep the round timer armed.
  /// Default: stop (protocols without a round loop never arm the timer).
  [[nodiscard]] virtual bool on_round() { return false; }

  /// Arms the typed periodic round timer: on_round() fires at `start` and
  /// then every `interval` while it returns true. Allocation-free per tick.
  void start_rounds(SimTime start, SimTime interval);

  /// Registers this node's own vote with the audit registry (token 0 if
  /// audit is off) and records it in the arena's audit-token lane. Call
  /// once during start().
  [[nodiscard]] std::uint64_t register_own_vote();

  void count_round() { ++arena_->round(slot_); }
  void set_outcome(agg::Partial estimate, std::uint64_t token);

  /// The run's state arena and this node's slot in it. Protocols keep
  /// hot per-member scalars (phase, round budget) in arena lanes rather
  /// than member fields.
  [[nodiscard]] StateArena& arena() { return *arena_; }
  [[nodiscard]] const StateArena& arena() const { return *arena_; }
  [[nodiscard]] std::size_t slot() const { return slot_; }

 private:
  MemberId self_;
  membership::View view_;
  NodeEnv env_;
  std::unique_ptr<StateArena> solo_arena_;  // only when env.arena is null
  StateArena* arena_;
  std::size_t slot_;
  Rng rng_;
  NodeOutcome outcome_;
  /// Mirrors outcome_.finished for lock-free cross-thread reads; the
  /// release store in set_outcome publishes the full outcome_ record.
  std::atomic<bool> finished_{false};
};

}  // namespace gridbox::protocols
