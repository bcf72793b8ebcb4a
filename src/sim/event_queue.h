// Deterministically ordered discrete-event queue with typed events.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/types.h"
#include "src/net/message.h"

namespace gridbox::sim {

/// Generic action executed when an event fires. The escape hatch for setup
/// and test code; the two hot event kinds below avoid std::function (and its
/// per-capture heap allocation) entirely.
using Action = std::function<void()>;

/// Receiver of an in-queue frame delivery. Implemented by net::SimNetwork;
/// the event stores the sink pointer instead of a closure so delivering a
/// message never allocates.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void deliver_frame(const net::Message& message) = 0;
};

/// Receiver of a protocol timer tick. Returning true from on_timer asks the
/// simulator to re-arm the timer one interval later (periodic rounds);
/// returning false ends the chain.
class TimerTarget {
 public:
  virtual ~TimerTarget() = default;
  [[nodiscard]] virtual bool on_timer(std::uint32_t timer_id) = 0;
};

/// Message delivery: the frame rides inside the event, so the whole hop
/// (send -> queue -> deliver) is a couple of fixed-size copies.
struct DeliverFrame {
  net::Message message;
  FrameSink* sink = nullptr;
};

/// Protocol timer tick. interval > 0 makes it periodic: the simulator
/// re-arms it while the target's on_timer returns true.
struct TimerFire {
  TimerTarget* target = nullptr;
  SimTime interval = SimTime::zero();
  std::uint32_t timer_id = 0;
};

/// What fires when an event comes due.
using EventWork = std::variant<Action, DeliverFrame, TimerFire>;

/// A scheduled event. Events at equal times fire in scheduling order: the
/// monotone sequence number makes the whole simulation a deterministic
/// function of the seed, independent of container or heap internals.
struct Event {
  SimTime time;
  std::uint64_t sequence = 0;
  EventWork work;

  /// Executes the event's work once. Timer re-arming is the simulator's
  /// job (Simulator::step); firing a periodic TimerFire here invokes the
  /// target a single time and discards the reschedule request.
  void fire();
};

/// Min-queue of events ordered by (time, sequence): a calendar queue.
///
/// Bodies live in a slab of fixed-size chunks, so a body never moves while
/// it is pending or firing: the simulator fires an event inside its slot
/// (pop_slot, then release or relink) and builds deliveries directly in
/// their slot (emplace). Freed slots are recycled LIFO.
///
/// Ordering uses two structures:
/// - a ring of kRingSpan one-tick buckets covering [cursor, cursor +
///   kRingSpan), where the cursor is the time of the last pop. Each bucket
///   is a FIFO list of slots linked through the slot's `next` index, so
///   equal times keep push order; an occupancy bitmap with a summary
///   bitmap over its words finds the next non-empty bucket by
///   count-trailing-zeros.
/// - an overflow binary heap of 24-byte (time, sequence, slot) keys for
///   events due at or past the ring's end, or before the cursor (the raw
///   push allows the past).
/// Pop takes the smaller (time, sequence) of the ring front and the heap
/// top, so the order is exact without ever migrating heap keys into the
/// ring. The cursor only moves forward, and never past the last popped
/// time, so a simulator's pushes (all at or after `now`) land in the ring
/// whenever their delay is under the span.
///
/// In steady state (slab and heap at their high-water mark) push and pop
/// perform zero heap allocations — the property the zero-allocation
/// message path is built on, and the counting-allocator tests assert.
class EventQueue {
 public:
  /// Index of a slab slot.
  using SlotId = std::uint32_t;

  /// One-tick buckets in the ring: covers the 0.2–2 ms delivery latency
  /// and the 10 ms protocol round.
  static constexpr std::size_t kRingSpan = std::size_t{1} << 14;
  /// Slots per slab chunk; chunk addresses never change once allocated.
  static constexpr std::size_t kChunkSlots = std::size_t{1} << 9;

  /// Enqueues work at an absolute simulated time.
  void push(SimTime time, EventWork work) {
    const SlotId slot = acquire();
    body(slot).work = std::move(work);
    link(slot, time);
  }

  /// Enqueues a slot at `time` and returns its work for the caller to fill
  /// in place (e.g. `emplace(t).emplace<DeliverFrame>(message, &sink)`),
  /// before anything else touches the queue.
  [[nodiscard]] EventWork& emplace(SimTime time) {
    const SlotId slot = acquire();
    link(slot, time);
    return body(slot).work;
  }

  /// Reserves bookkeeping for `capacity` simultaneously pending events.
  /// Bodies are not built or touched: chunks are allocated as the queue
  /// first grows into them.
  void reserve(std::size_t capacity) {
    chunks_.reserve((capacity + kChunkSlots - 1) / kChunkSlots);
  }

  /// Removes and returns the earliest event. Requires !empty().
  [[nodiscard]] Event pop();

  /// Unlinks the earliest event and returns its slot; the body stays in
  /// place (see body()) until the caller hands the slot back with release()
  /// or relink(). Requires !empty().
  [[nodiscard]] SlotId pop_slot();

  /// The event stored in `slot`. The reference stays valid while the slot is
  /// pending or popped, across any number of pushes.
  [[nodiscard]] Event& body(SlotId slot) { return slot_at(slot).event; }

  /// Returns a popped slot to the free list.
  void release(SlotId slot);

  /// Re-enqueues a popped slot at `time` under a new sequence number — a
  /// push that leaves the body where it is (periodic timer re-arm).
  void relink(SlotId slot, SimTime time) { link(slot, time); }

  /// Time of the earliest event. Requires !empty().
  [[nodiscard]] SimTime next_time() const;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Total events ever pushed or relinked (also the next sequence number).
  [[nodiscard]] std::uint64_t total_pushed() const { return next_sequence_; }

  /// High-watermark of size() over the queue's lifetime (backlog telemetry:
  /// the event_queue_depth gauge). Deterministic — a pure function of the
  /// push/pop sequence.
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }

  /// Counts pending TimerFire events whose target satisfies `pred`. O(size
  /// + ring words): a cold-path probe the service runtime uses as a
  /// quiescence proof before destroying timer targets (a pending TimerFire
  /// holds a raw pointer into the node it would fire on).
  [[nodiscard]] std::size_t count_timers_where(
      const std::function<bool(const TimerTarget*)>& pred) const;

  /// Discards all pending events AND resets the queue's statistics:
  /// total_pushed()/peak_size() return 0 and sequence numbering restarts,
  /// exactly as if the queue were freshly constructed (capacity is kept).
  /// A cleared queue is therefore indistinguishable from a new one — the
  /// semantics replay tooling relies on when it reuses a queue across runs.
  void clear();

 private:
  static constexpr SlotId kNil = ~SlotId{0};
  static constexpr std::size_t kRingMask = kRingSpan - 1;
  static constexpr std::size_t kRingWords = kRingSpan / 64;
  static_assert(kRingWords % 64 == 0, "summary words cover whole ring words");

  /// A slab slot. `next` links the slot into its bucket's FIFO list while
  /// it waits in the ring, or into the free list once released.
  struct Slot {
    SlotId next = kNil;
    Event event;
  };

  /// A ring bucket; meaningful only while its occupancy bit is set.
  struct Bucket {
    SlotId head = kNil;
    SlotId tail = kNil;
  };

  /// Overflow-heap element: orders events without touching their bodies.
  struct Key {
    SimTime time;
    std::uint64_t sequence = 0;
    SlotId slot = 0;
  };

  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  [[nodiscard]] Slot& slot_at(SlotId slot) {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }
  [[nodiscard]] const Slot& slot_at(SlotId slot) const {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }

  /// A free slot (recycled, else the next never-used one).
  SlotId acquire();
  /// Stamps `slot` with `time` and the next sequence number, then files it
  /// in the ring or the overflow heap.
  void link(SlotId slot, SimTime time);
  /// The ring bucket holding the earliest ring event. Requires ring_size_.
  [[nodiscard]] std::size_t ring_front() const;
  /// First non-empty ring word at or after `word`, else kRingWords.
  [[nodiscard]] std::size_t next_word(std::size_t word) const;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  SlotId used_ = 0;         ///< slots ever handed out (slab high-water)
  SlotId free_head_ = kNil; ///< LIFO free list through Slot::next

  std::vector<Bucket> buckets_ = std::vector<Bucket>(kRingSpan);
  std::array<std::uint64_t, kRingWords> occupied_{};  ///< bucket bitmap
  /// Bit w set iff occupied_[w] != 0.
  std::array<std::uint64_t, kRingWords / 64> summary_{};
  std::size_t ring_size_ = 0;
  SimTime cursor_ = SimTime::zero();  ///< time of the latest pop, monotone

  std::vector<Key> heap_;  ///< overflow: max-heap under Later
  std::size_t size_ = 0;
  std::uint64_t next_sequence_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace gridbox::sim
