// A gossip-style failure detection service (paper reference [16]:
// van Renesse, Minsky & Hayden, "A gossip-style failure detection service",
// Middleware '98).
//
// Why it is in this repo: §6.2 argues that leader-election approaches to
// aggregation either lose whole subtrees on leader crashes or "require the
// use of accurate failure detectors". This module implements that missing
// substrate so the claim can be *measured*: bench/cmp_fd_latency shows that
// gossip failure detection needs time comparable to the whole Hierarchical
// Gossiping run, which is exactly why the paper's one-shot protocol avoids
// failure detection altogether.
//
// Mechanics (per the Middleware '98 design, adapted to this repo's constant
// message bound): every member keeps a heartbeat counter per known member;
// each round it increments its own counter and gossips a bounded random
// slice of its table to a few random members; receivers keep the pointwise
// maximum. A member whose counter has not moved for `fail_rounds` rounds is
// suspected. The original protocol ships the whole table; shipping a random
// bounded slice preserves the epidemic argument at a constant message size
// (entries reach everyone in O(log N) gossip hops, repeated over rounds).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/membership/view.h"
#include "src/net/transport.h"
#include "src/sim/scheduler.h"

namespace gridbox::protocols::fd {

struct FdConfig {
  /// Gossip targets per round.
  std::uint32_t fanout = 2;

  /// Heartbeat entries per message (constant bound: 12 bytes each + header).
  std::uint32_t entries_per_message = 16;

  /// Rounds without heartbeat progress before suspecting a member.
  std::uint32_t fail_rounds = 20;

  SimTime round_duration = SimTime::millis(10);
};

class GossipFailureDetector final : public net::Endpoint,
                                    public sim::TimerTarget {
 public:
  static constexpr std::uint8_t kWireType = 0x20;

  GossipFailureDetector(MemberId self, membership::View view,
                        sim::Scheduler& scheduler, net::Transport& network,
                        Rng rng, FdConfig config);

  /// Begins heartbeating and gossiping at `at`; runs until stop().
  void start(SimTime at);

  /// Stops the round timer (the detector also stops if its member dies —
  /// callers wire liveness via `set_liveness`).
  void stop() { running_ = false; }

  /// Liveness of this detector's own member (a crashed process halts).
  void set_liveness(std::function<bool(MemberId)> is_alive);

  void on_message(const net::Message& message) override;

  /// Is `member` currently suspected of having failed?
  [[nodiscard]] bool suspects(MemberId member) const;

  /// All currently suspected members.
  [[nodiscard]] std::vector<MemberId> suspected() const;

  /// The round in which `member` became suspected (empty if not suspected).
  /// Suspicion clears if a newer heartbeat arrives (recovery / slow path).
  [[nodiscard]] std::optional<std::uint64_t> suspected_since(
      MemberId member) const;

  [[nodiscard]] std::uint64_t rounds_executed() const { return round_; }
  [[nodiscard]] MemberId self() const { return self_; }

 private:
  struct Entry {
    std::uint64_t heartbeat = 0;
    std::uint64_t last_progress_round = 0;
    std::optional<std::uint64_t> suspected_at;
  };

  bool on_round();
  [[nodiscard]] bool on_timer(std::uint32_t timer_id) override;
  void absorb(MemberId member, std::uint64_t heartbeat);
  [[nodiscard]] Entry* entry_of(MemberId member);
  [[nodiscard]] const Entry* entry_of(MemberId member) const;

  MemberId self_;
  membership::View view_;
  sim::Scheduler* scheduler_;
  net::Transport* network_;
  Rng rng_;
  FdConfig config_;
  std::function<bool(MemberId)> is_alive_;

  bool running_ = false;
  std::uint64_t round_ = 0;
  std::vector<Entry> table_;       // indexed by view order
  std::vector<MemberId> members_;  // view members (sorted)
  // Per-round sampling scratch, reused so steady-state rounds do not
  // allocate.
  std::vector<std::size_t> scratch_targets_;
  std::vector<std::size_t> scratch_slice_;
};

}  // namespace gridbox::protocols::fd
