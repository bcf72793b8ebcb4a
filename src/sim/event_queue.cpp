#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/common/ensure.h"

namespace gridbox::sim {

namespace {

/// Index of the lowest set bit of a non-zero word.
std::size_t lowest_bit(std::uint64_t bits) {
  return static_cast<std::size_t>(std::countr_zero(bits));
}

}  // namespace

void Event::fire() {
  if (auto* action = std::get_if<Action>(&work)) {
    (*action)();
  } else if (auto* deliver = std::get_if<DeliverFrame>(&work)) {
    deliver->sink->deliver_frame(deliver->message);
  } else if (auto* timer = std::get_if<TimerFire>(&work)) {
    (void)timer->target->on_timer(timer->timer_id);
  }
}

EventQueue::SlotId EventQueue::acquire() {
  if (free_head_ != kNil) {
    const SlotId slot = free_head_;
    free_head_ = slot_at(slot).next;
    return slot;
  }
  if (used_ == chunks_.size() * kChunkSlots) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return used_++;
}

void EventQueue::link(SlotId slot, SimTime time) {
  Slot& s = slot_at(slot);
  s.event.time = time;
  s.event.sequence = next_sequence_;
  if (time >= cursor_ &&
      static_cast<std::uint64_t>((time - cursor_).ticks()) < kRingSpan) {
    const std::size_t b = static_cast<std::size_t>(time.ticks()) & kRingMask;
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    s.next = kNil;
    if ((occupied_[b / 64] & bit) != 0) {
      slot_at(buckets_[b].tail).next = slot;
      buckets_[b].tail = slot;
    } else {
      buckets_[b] = Bucket{slot, slot};
      occupied_[b / 64] |= bit;
      summary_[b / 4096] |= std::uint64_t{1} << (b / 64 % 64);
    }
    ++ring_size_;
  } else {
    heap_.push_back(Key{time, next_sequence_, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  ++next_sequence_;
  if (++size_ > peak_size_) peak_size_ = size_;
}

std::size_t EventQueue::next_word(std::size_t word) const {
  for (std::size_t s = word / 64; s < summary_.size(); ++s) {
    std::uint64_t bits = summary_[s];
    if (s == word / 64) bits &= ~std::uint64_t{0} << (word % 64);
    if (bits != 0) return s * 64 + lowest_bit(bits);
  }
  return kRingWords;
}

std::size_t EventQueue::ring_front() const {
  // Ring times lie in [cursor, cursor + kRingSpan), so circular order from
  // the cursor's bucket is time order.
  const std::size_t start =
      static_cast<std::size_t>(cursor_.ticks()) & kRingMask;
  const std::size_t w = start / 64;
  const std::uint64_t here = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  if (here != 0) return w * 64 + lowest_bit(here);
  std::size_t word = next_word(w + 1);
  if (word == kRingWords) word = next_word(0);  // wrap around
  return word * 64 + lowest_bit(occupied_[word]);
}

EventQueue::SlotId EventQueue::pop_slot() {
  expects(size_ != 0, "pop on empty event queue");
  SlotId slot = kNil;
  if (ring_size_ != 0) {
    const std::size_t b = ring_front();
    const Event& front = slot_at(buckets_[b].head).event;
    if (heap_.empty() || front.time < heap_.front().time ||
        (front.time == heap_.front().time &&
         front.sequence < heap_.front().sequence)) {
      Bucket& bucket = buckets_[b];
      slot = bucket.head;
      bucket.head = slot_at(slot).next;
      if (bucket.head == kNil) {
        occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
        if (occupied_[b / 64] == 0) {
          summary_[b / 4096] &= ~(std::uint64_t{1} << (b / 64 % 64));
        }
      }
      --ring_size_;
    }
  }
  if (slot == kNil) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    slot = heap_.back().slot;
    heap_.pop_back();
  }
  --size_;
  const SimTime time = slot_at(slot).event.time;
  if (time > cursor_) cursor_ = time;
  return slot;
}

void EventQueue::release(SlotId slot) {
  Slot& s = slot_at(slot);
  // Drop a closure's captured state now rather than when the slot is reused.
  if (auto* action = std::get_if<Action>(&s.event.work)) *action = nullptr;
  s.next = free_head_;
  free_head_ = slot;
}

Event EventQueue::pop() {
  const SlotId slot = pop_slot();
  Event event = std::move(body(slot));
  release(slot);
  return event;
}

SimTime EventQueue::next_time() const {
  expects(size_ != 0, "next_time on empty event queue");
  if (ring_size_ == 0) return heap_.front().time;
  const SimTime ring = slot_at(buckets_[ring_front()].head).event.time;
  return heap_.empty() ? ring : std::min(ring, heap_.front().time);
}

std::size_t EventQueue::count_timers_where(
    const std::function<bool(const TimerTarget*)>& pred) const {
  std::size_t count = 0;
  const auto consider = [&](SlotId slot) {
    const auto* fire = std::get_if<TimerFire>(&slot_at(slot).event.work);
    if (fire != nullptr && pred(fire->target)) ++count;
  };
  for (std::size_t w = 0; w < kRingWords; ++w) {
    for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t b = w * 64 + lowest_bit(bits);
      for (SlotId s = buckets_[b].head; s != kNil; s = slot_at(s).next) {
        consider(s);
      }
    }
  }
  for (const Key& key : heap_) consider(key.slot);
  return count;
}

void EventQueue::clear() {
  for (SlotId s = 0; s < used_; ++s) slot_at(s).event.work = Action{};
  used_ = 0;
  free_head_ = kNil;
  occupied_.fill(0);
  summary_.fill(0);
  ring_size_ = 0;
  cursor_ = SimTime::zero();
  heap_.clear();
  size_ = 0;
  next_sequence_ = 0;
  peak_size_ = 0;
}

}  // namespace gridbox::sim
