// Traffic accounting: each transport layer counts a frame once per hook
// site, into the TrafficLane of the shard that decided its fate.
// NetworkStats is the read-side view fold() builds from lanes, in shard
// order. Leaf header, so net/, sim/ and obs/ can all include it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace gridbox::net {

struct NetworkStats {
  std::uint64_t messages_sent = 0;       ///< send() calls accepted
  std::uint64_t messages_dropped = 0;    ///< lost to the fault model
  std::uint64_t messages_dead_dest = 0;  ///< destination crashed/detached at delivery
  std::uint64_t messages_delivered = 0;  ///< reached a live endpoint
  std::uint64_t messages_malformed = 0;  ///< rejected by the receiver's decoder
  std::uint64_t messages_duplicated = 0;  ///< extra deliveries from chaos dup

  /// Frame bytes put on the wire: counted once per wire traversal, so each
  /// chaos-injected duplicate adds the frame size again. The metrics
  /// bytes_on_wire counter is read from here.
  std::uint64_t bytes_sent = 0;

  /// Sum of Euclidean link distances over all sends; meaningful only when a
  /// distance function is registered (topology ablation). Together with
  /// messages_sent this gives mean hop distance per message. Kept by
  /// SimNetwork beside its lane.
  double link_distance_sum = 0.0;

  [[nodiscard]] double delivery_rate() const {
    return messages_sent == 0
               ? 0.0
               : static_cast<double>(messages_delivered) /
                     static_cast<double>(messages_sent);
  }
};

/// One shard's traffic counters, in NetworkStats' schema, on one cache
/// line. Single writer (the shard's thread), so an increment is bump(), not
/// a locked read-modify-write; a fold on another thread mid-run is a valid
/// snapshot, and exact after a join.
struct alignas(64) TrafficLane {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> duplicated{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> dead_dest{0};
  std::atomic<std::uint64_t> malformed{0};
};
static_assert(sizeof(TrafficLane) == 64, "a traffic lane is one cache line");

/// Adds `n` to a counter that has a single writer (the calling thread).
inline void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

/// Adds one lane into `into`: the only mapping from lane to view.
void fold(NetworkStats& into, const TrafficLane& lane);
/// `count` contiguous lanes folded in shard order.
[[nodiscard]] NetworkStats fold(const TrafficLane* lanes, std::size_t count);

}  // namespace gridbox::net
