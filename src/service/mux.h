// InstanceMux: many concurrent protocol instances over one transport.
//
// The service runtime runs a stream of aggregation queries — each a full
// protocol instance — over ONE shared membership and ONE transport per
// member. The mux is the routing layer that makes that possible:
//
//   - Receive side: every member gets one demux endpoint, attached to the
//     member's raw transport exactly once at setup (so the UDP runtime's fd
//     count is constant no matter how many instances stream through). An
//     arriving frame is strictly envelope-validated (envelope.h) and routed
//     to the addressed instance's endpoint for that member.
//   - Send side: each instance gets an InstanceSender — a net::Transport the
//     instance's nodes hold as their env.network. It wraps every outgoing
//     frame in the instance envelope and forwards it through the sending
//     member's raw transport, counting into the instance's traffic lanes.
//
// Instance ids are handed out monotonically. A frame addressed to an id
// never opened is counted `unknown_instance`; one addressed to an id that
// was opened and has since closed is counted `retired_instance`; a frame
// whose envelope fails validation is counted `malformed_envelope`. All
// three are dropped — never delivered, never a crash — mirroring the strict
// datagram codec one layer down.
//
// Threading (DESIGN.md §14): there is no dispatch lock. Control-plane calls
// (open/close/route/unroute, attach_all/detach_all, stats()) are made by
// ONE thread — the engine's control shard (the simulator thread in the sim
// substrate). Data-plane calls run concurrently on every reactor shard:
// demux(self, ...) on self's owning shard, forward(...) on the sending
// member's shard. The two planes meet lock-free:
//
//   - Instance slots are preallocated (Options::max_instances) and each
//     carries an atomic lifecycle state (unopened -> open -> retired, never
//     reused). open_instance publishes the slot with a release store of the
//     state and then of next_id_; demux acquires next_id_ first, so any id
//     below it has a fully visible slot. close_instance only flips the
//     state to retired — routes and the sender pointer stay intact, and the
//     engine's drain handshake (a count_timers hop through every shard)
//     guarantees no demux that saw the slot open is still running when the
//     instance's nodes and sender are destroyed.
//   - Counters are per-shard, single-writer lanes, each frame counted once:
//     an instance's traffic in its slot's net::TrafficLanes, the mux's own
//     drops in the mux lanes. stats() readers fold them.
//
// One honest caveat: a datagram can physically cross the kernel between two
// shards faster than an unrelated atomic store propagates, so a shard may
// transiently miss a just-opened instance (counted unknown_instance) or a
// just-added route (counted unrouted_member). Both count as datagram drops,
// which the protocol already tolerates; in practice store visibility is
// orders of magnitude faster than a syscall round trip, and the engine's
// post() of every node start hands the opening writes to the node's own
// shard before it can send a single frame.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/net/stats.h"
#include "src/net/transport.h"

namespace gridbox::service {

class InstanceMux;

/// Demultiplexer counters: what happened to envelope-bearing frames. A
/// view: `delivered` and `unrouted_member` are the instances' delivered and
/// dead-destination counts summed, the rest the mux's own lanes.
struct DemuxStats {
  std::uint64_t delivered = 0;           ///< routed to a live instance endpoint
  std::uint64_t malformed_envelope = 0;  ///< failed strict envelope validation
  std::uint64_t unknown_instance = 0;    ///< instance id never opened
  std::uint64_t retired_instance = 0;    ///< instance id opened, since closed
  std::uint64_t unrouted_member = 0;     ///< live instance, member not routed
                                         ///< (non-participant of the epoch)
  std::uint64_t closed_sends = 0;        ///< sends dropped: instance closed
};

/// The per-instance transport: what an instance's protocol nodes hold as
/// their env.network. attach()/detach() populate the instance's routing
/// table inside the mux; send() wraps the instance envelope and forwards
/// through the sending member's raw transport. Owned by the engine's
/// instance record, NOT by the mux — nodes keep their Transport* through
/// the final-phase linger window after the instance closes, and a send in
/// that window must land here (dropped and counted), not on a dangling
/// pointer. stats() folds the instance's traffic lanes (in its mux slot)
/// in shard order: exact once its frames settled — after the engine's
/// drain handshake, or after the reactor threads joined.
class InstanceSender final : public net::Transport {
 public:
  InstanceSender(InstanceMux& mux, std::uint32_t instance)
      : mux_(mux), instance_(instance) {}

  void attach(MemberId id, net::Endpoint& endpoint) override;
  void detach(MemberId id) override;
  void send(net::Message message) override;
  [[nodiscard]] net::NetworkStats stats() const override;

  [[nodiscard]] std::uint32_t instance() const { return instance_; }

 private:
  InstanceMux& mux_;
  std::uint32_t instance_ = 0;
};

class InstanceMux {
 public:
  struct Options {
    std::size_t group_size = 0;
    /// The raw transport that carries a given member's traffic (the shard
    /// transport in the UDP runtime; the one SimNetwork in the simulator).
    std::function<net::Transport*(MemberId)> transport_of;
    /// Upper bound on instance ids ever opened: slots are preallocated so
    /// the demux path can index them without locks or rehashing. The engine
    /// passes its configured instance count; the default covers direct use.
    std::size_t max_instances = 1024;
    /// Reactor shards feeding the data plane; sizes the stat lanes.
    std::size_t shard_count = 1;
    /// Maps a member to its owning shard (stat lane selection). Unset means
    /// everything on lane 0 (the simulator substrate, single-shard runs).
    std::function<std::size_t(MemberId)> shard_of;
  };

  explicit InstanceMux(Options options);
  InstanceMux(const InstanceMux&) = delete;
  InstanceMux& operator=(const InstanceMux&) = delete;

  /// Attaches one demux endpoint per member to its raw transport. Call once
  /// at setup, before any instance opens; sockets bind here (UDP) and stay
  /// bound for the whole service run.
  void attach_all();

  /// Detaches every demux endpoint (teardown symmetry; optional when the
  /// transports are destroyed right after anyway).
  void detach_all();

  /// Opens instance `id` and returns its sender. Ids must be handed out in
  /// increasing order with no gaps — the monotone id space is what lets the
  /// demux distinguish a retired instance from one that never existed.
  /// Control thread only.
  [[nodiscard]] std::unique_ptr<InstanceSender> open_instance(
      std::uint32_t id);

  /// Closes instance `id`: frames addressed to it count retired from now
  /// on, and its sender's send() calls drop (counted closed_sends). The
  /// slot's routing table is retained (bounded by max_instances) so demuxes
  /// racing the close on other shards never chase a freed pointer; the
  /// routed endpoints themselves must outlive the engine's drain handshake.
  /// Control thread only.
  void close_instance(std::uint32_t id);

  /// Thread-safe (acquire load of the slot state).
  [[nodiscard]] bool is_open(std::uint32_t id) const {
    return id < options_.max_instances &&
           slots_[id].state.load(std::memory_order_acquire) == kOpen;
  }

  [[nodiscard]] std::uint32_t instances_opened() const {
    return next_id_.load(std::memory_order_acquire);
  }

  /// Demux counters folded over the per-shard lanes, in shard order, and
  /// over every opened instance's traffic lanes. Control thread (or
  /// post-join) only: a mid-run fold on another thread would be a valid
  /// but torn snapshot.
  [[nodiscard]] DemuxStats stats() const;

 private:
  friend class InstanceSender;

  /// Slot lifecycle. Monotone per slot: kUnopened -> kOpen -> kRetired.
  enum : std::uint8_t { kUnopened = 0, kOpen = 1, kRetired = 2 };

  /// One instance's routing state and traffic lanes, preallocated and
  /// never reused.
  struct Slot {
    std::atomic<std::uint8_t> state{kUnopened};
    /// By member id; null = unrouted. Allocated at open, published by the
    /// release store of `state`, retained past retirement.
    std::unique_ptr<std::atomic<net::Endpoint*>[]> routes;
    /// The instance's traffic, one lane per shard: sent and bytes by the
    /// sender's shard, delivered and dead-destination (an unrouted member)
    /// by the receiver's. Allocated and published with `routes`; retained
    /// past retirement, so stats() still counts retired instances.
    std::unique_ptr<net::TrafficLane[]> traffic;
  };

  /// One shard's share of the frames the mux itself drops (single writer:
  /// that shard).
  struct alignas(64) Lane {
    std::atomic<std::uint64_t> malformed_envelope{0};
    std::atomic<std::uint64_t> unknown_instance{0};
    std::atomic<std::uint64_t> retired_instance{0};
    std::atomic<std::uint64_t> closed_sends{0};
  };

  /// One member's receive port: the Endpoint attached to the raw transport.
  class MemberPort final : public net::Endpoint {
   public:
    MemberPort(InstanceMux& mux, MemberId self) : mux_(mux), self_(self) {}
    void on_message(const net::Message& message) override {
      mux_.demux(self_, message);
    }

   private:
    InstanceMux& mux_;
    MemberId self_;
  };

  [[nodiscard]] std::size_t lane_of(MemberId member) const {
    return options_.shard_of ? options_.shard_of(member) : 0;
  }

  void demux(MemberId self, const net::Message& outer);
  void route(std::uint32_t instance, MemberId member, net::Endpoint& endpoint);
  void unroute(std::uint32_t instance, MemberId member);
  void forward(InstanceSender& sender, net::Message message);

  Options options_;
  std::vector<std::unique_ptr<MemberPort>> ports_;  ///< by member id
  std::unique_ptr<Slot[]> slots_;                   ///< by instance id
  std::unique_ptr<Lane[]> lanes_;                   ///< by shard
  std::atomic<std::uint32_t> next_id_{0};
  bool attached_ = false;
};

}  // namespace gridbox::service
