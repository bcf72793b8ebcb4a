#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/ensure.h"
#include "src/common/rng.h"
#include "src/sim/event_queue.h"

namespace gridbox::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(SimTime{30}, [&] { fired.push_back(3); });
  q.push(SimTime{10}, [&] { fired.push_back(1); });
  q.push(SimTime{20}, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(SimTime{5}, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fire();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, EqualTimesStayFifoAcrossInterleavedPushAndPop) {
  // Regression for the vector+push_heap/pop_heap rewrite: popping must not
  // disturb the (time, sequence) order of the events left in the heap, even
  // when pushes and pops interleave at a single timestamp.
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 4; ++i) {
    q.push(SimTime{5}, [&fired, i] { fired.push_back(i); });
  }
  q.pop().fire();  // 0
  for (int i = 4; i < 8; ++i) {
    q.push(SimTime{5}, [&fired, i] { fired.push_back(i); });
  }
  q.pop().fire();  // 1
  q.push(SimTime{5}, [&fired] { fired.push_back(8); });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), PreconditionError);
}

TEST(EventQueue, NextTimePeeksEarliest) {
  EventQueue q;
  q.push(SimTime{42}, [] {});
  q.push(SimTime{7}, [] {});
  EXPECT_EQ(q.next_time(), SimTime{7});
}

TEST(EventQueue, ClearResets) {
  // clear() means "as if freshly constructed": pending events, the pushed
  // total, sequence numbering, AND the peak-size high-watermark all reset.
  EventQueue q;
  q.push(SimTime{1}, [] {});
  q.push(SimTime{2}, [] {});
  ASSERT_EQ(q.peak_size(), 2u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.total_pushed(), 0u);
  EXPECT_EQ(q.peak_size(), 0u);
  // Sequence numbering restarts: same-time pushes after clear() still fire
  // in scheduling order, exactly like on a new queue.
  std::vector<int> fired;
  for (int i = 0; i < 3; ++i) {
    q.push(SimTime{5}, [&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(q.total_pushed(), 3u);
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, PeakSizeTracksHighWatermark) {
  EventQueue q;
  EXPECT_EQ(q.peak_size(), 0u);
  q.push(SimTime{1}, [] {});
  q.push(SimTime{2}, [] {});
  q.push(SimTime{3}, [] {});
  (void)q.pop();
  (void)q.pop();
  q.push(SimTime{4}, [] {});
  EXPECT_EQ(q.peak_size(), 3u);  // never reached 4 after the pops
}

class CountingSink final : public FrameSink {
 public:
  void deliver_frame(const net::Message& message) override {
    delivered.push_back(message);
  }
  std::vector<net::Message> delivered;
};

TEST(EventQueue, DeliverFrameEventCarriesTheMessage) {
  EventQueue q;
  CountingSink sink;
  net::Message m{MemberId{1}, MemberId{2}, net::Frame{{0xAB, 0xCD}}};
  q.push(SimTime{3}, DeliverFrame{m, &sink});
  q.pop().fire();
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(sink.delivered[0].source, MemberId{1});
  EXPECT_EQ(sink.delivered[0].destination, MemberId{2});
  EXPECT_EQ(sink.delivered[0].frame, (net::Frame{{0xAB, 0xCD}}));
}

/// Reference model for the calendar queue: a plain ordered set of
/// (time, sequence, id) — the order the queue promises, with no ring, no
/// cursor and no overflow split.
class ReferenceQueue {
 public:
  using Entry = std::tuple<SimTime::underlying, std::uint64_t, std::uint32_t>;

  void push(SimTime time, std::uint32_t id) {
    pending_.emplace(time.ticks(), next_sequence_++, id);
    peak_ = std::max(peak_, pending_.size());
  }
  Entry pop() {
    const Entry front = *pending_.begin();
    pending_.erase(pending_.begin());
    return front;
  }
  void clear() { *this = ReferenceQueue{}; }
  [[nodiscard]] SimTime::underlying next_time() const {
    return std::get<0>(*pending_.begin());
  }
  [[nodiscard]] std::size_t count_id_mod3_zero() const {
    std::size_t n = 0;
    for (const Entry& e : pending_) n += std::get<2>(e) % 3 == 0 ? 1 : 0;
    return n;
  }
  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] std::size_t peak() const { return peak_; }
  [[nodiscard]] std::uint64_t pushed() const { return next_sequence_; }

 private:
  std::set<Entry> pending_;
  std::uint64_t next_sequence_ = 0;
  std::size_t peak_ = 0;
};

/// Inert timer target: the differential test only needs distinct pointers.
class NullTimer final : public TimerTarget {
 public:
  bool on_timer(std::uint32_t) override { return false; }
};

TEST(EventQueue, MatchesReferenceOrderUnderRandomPushPopAndReArm) {
  constexpr auto kSpan =
      static_cast<SimTime::underlying>(EventQueue::kRingSpan);
  EventQueue q;
  ReferenceQueue ref;
  Rng rng(20010701);
  NullTimer targets[3];
  std::uint32_t next_id = 0;
  SimTime::underlying last_pop = 0;

  // A push time relative to the latest pop: mostly inside the ring, some
  // exactly at its edge, some seconds out (overflow heap), some earlier
  // than the latest pop — even negative (raw API, overflow heap too).
  const auto draw = [&](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<SimTime::underlying>(rng.uniform_int(lo, hi));
  };
  const auto pick_time = [&]() -> SimTime {
    const std::uint64_t kind = rng.uniform_int(0, 99);
    if (kind < 45) return SimTime{last_pop + draw(0, 2'000)};
    if (kind < 60) return SimTime{last_pop + draw(0, 3)};
    if (kind < 72) return SimTime{last_pop + kSpan - 3 + draw(0, 6)};
    if (kind < 85) return SimTime{last_pop + draw(0, 3'000'000)};
    return SimTime{last_pop - draw(1, 40'000)};
  };
  const auto fire_of = [&](std::uint32_t id) {
    return TimerFire{&targets[id % 3], SimTime::zero(), id};
  };
  const auto expect_same_front = [&](const Event& got) {
    const auto [time, sequence, id] = ref.pop();
    ASSERT_EQ(got.time.ticks(), time);
    ASSERT_EQ(got.sequence, sequence);
    ASSERT_EQ(std::get<TimerFire>(got.work).timer_id, id);
    last_pop = std::max(last_pop, time);
  };

  for (int op = 0; op < 200'000; ++op) {
    const std::uint64_t what = rng.uniform_int(0, 99);
    if (what < 40) {
      const SimTime t = pick_time();
      const std::uint32_t id = next_id++;
      if (what < 20) {
        q.push(t, fire_of(id));
      } else {
        q.emplace(t) = fire_of(id);
      }
      ref.push(t, id);
    } else if (what < 75) {
      if (ref.empty()) continue;
      ASSERT_EQ(q.next_time().ticks(), ref.next_time());
      expect_same_front(q.pop());
    } else if (what < 97) {
      // In-place fire: pop a slot, push more while it is out, then re-arm
      // it under a new sequence number or release it.
      if (ref.empty()) continue;
      const EventQueue::SlotId slot = q.pop_slot();
      expect_same_front(q.body(slot));
      const std::uint32_t id = std::get<TimerFire>(q.body(slot).work).timer_id;
      const std::uint32_t extra = next_id++;
      const SimTime t = pick_time();
      q.push(t, fire_of(extra));
      ref.push(t, extra);
      if (rng.bernoulli(0.6)) {
        const SimTime again = pick_time();
        q.relink(slot, again);
        ref.push(again, id);
      } else {
        q.release(slot);
      }
    } else if (what < 99) {
      ASSERT_EQ(q.count_timers_where([&](const TimerTarget* target) {
                  return target == &targets[0];
                }),
                ref.count_id_mod3_zero());
    } else if (rng.bernoulli(0.05)) {
      q.clear();
      ref.clear();
      last_pop = 0;
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
    ASSERT_EQ(q.peak_size(), ref.peak());
    ASSERT_EQ(q.total_pushed(), ref.pushed());
  }
  while (!ref.empty()) expect_same_front(q.pop());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CountTimersWhereSeesRingAndOverflowEvents) {
  constexpr auto kSpan =
      static_cast<SimTime::underlying>(EventQueue::kRingSpan);
  EventQueue q;
  NullTimer a;
  NullTimer b;
  CountingSink sink;
  const auto count = [&](const TimerTarget* want) {
    return q.count_timers_where(
        [want](const TimerTarget* target) { return target == want; });
  };
  q.push(SimTime{10}, TimerFire{&a, SimTime::zero(), 0});           // ring
  q.push(SimTime{10}, TimerFire{&b, SimTime::zero(), 0});           // ring
  q.push(SimTime{kSpan - 1}, TimerFire{&a, SimTime{5}, 1});         // ring end
  q.push(SimTime{kSpan}, TimerFire{&a, SimTime::zero(), 2});        // overflow
  q.push(SimTime::seconds(30), TimerFire{&b, SimTime::zero(), 3});  // overflow
  q.push(SimTime{12}, [] {});
  q.push(SimTime{kSpan + 7}, DeliverFrame{net::Message{}, &sink});
  EXPECT_EQ(count(&a), 3u);
  EXPECT_EQ(count(&b), 2u);
  EXPECT_EQ(count(nullptr), 0u);

  // Advance the cursor; then a push before it lands in the overflow heap.
  (void)q.pop();
  (void)q.pop();
  (void)q.pop();  // the action at 12; the cursor is now 12
  q.push(SimTime{3}, TimerFire{&b, SimTime::zero(), 4});
  EXPECT_EQ(count(&a), 2u);
  EXPECT_EQ(count(&b), 2u);
  EXPECT_EQ(q.pop().time, SimTime{3});
  EXPECT_EQ(count(&b), 1u);
  while (!q.empty()) (void)q.pop();
  EXPECT_EQ(count(&a), 0u);
  EXPECT_EQ(count(&b), 0u);
}

class CountingTimer final : public TimerTarget {
 public:
  bool on_timer(std::uint32_t timer_id) override {
    ids.push_back(timer_id);
    return keep_going;
  }
  bool keep_going = true;
  std::vector<std::uint32_t> ids;
};

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime::underlying> times;
  sim.schedule_at(SimTime{100}, [&] { times.push_back(sim.now().ticks()); });
  sim.schedule_at(SimTime{50}, [&] { times.push_back(sim.now().ticks()); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(times, (std::vector<SimTime::underlying>{50, 100}));
  EXPECT_EQ(sim.now(), SimTime{100});
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  sim.schedule_at(SimTime{10}, [&] {
    sim.schedule_after(SimTime{5}, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, SimTime{15});
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(SimTime{100}, [&] {
    sim.schedule_at(SimTime{10}, [&] { fired = true; });  // in the past
  });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime{100});
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_after(SimTime{-1}, [] {}), PreconditionError);
}

TEST(Simulator, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(SimTime{10}, [&] { fired.push_back(10); });
  sim.schedule_at(SimTime{20}, [&] { fired.push_back(20); });
  sim.schedule_at(SimTime{30}, [&] { fired.push_back(30); });
  sim.run_until(SimTime{20});
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), SimTime{20});
  sim.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Simulator, RunUntilAdvancesClockToDeadlineWhenIdle) {
  Simulator sim;
  sim.run_until(SimTime{500});
  EXPECT_EQ(sim.now(), SimTime{500});
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime{1}, [&] { ++count; });
  sim.schedule_at(SimTime{2}, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PeriodicRunsUntilTickReturnsFalse) {
  Simulator sim;
  int ticks = 0;
  sim.schedule_periodic(SimTime{0}, SimTime{10}, [&] { return ++ticks < 5; });
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), SimTime{40});
}

TEST(Simulator, PeriodicIntervalMustBePositive) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_periodic(SimTime{0}, SimTime{0}, [] { return false; }),
               PreconditionError);
}

TEST(Simulator, EventLimitCatchesRunawayLoops) {
  Simulator sim;
  sim.set_event_limit(100);
  sim.schedule_periodic(SimTime{0}, SimTime{1}, [] { return true; });
  EXPECT_THROW(sim.run(), InvariantError);
}

TEST(Simulator, EventLimitIsLifetimeAcrossRunUntilCalls) {
  // Regression: the runaway-reschedule guard used to reset per call, so a
  // caller stepping time forward with repeated run_until() never tripped it.
  Simulator sim;
  sim.set_event_limit(100);
  sim.schedule_periodic(SimTime{0}, SimTime{1}, [] { return true; });
  EXPECT_NO_THROW(sim.run_until(SimTime{50}));
  EXPECT_THROW(sim.run_until(SimTime{1000}), InvariantError);
}

TEST(Simulator, EventLimitIsLifetimeAcrossMixedRunCalls) {
  Simulator sim;
  sim.set_event_limit(100);
  sim.schedule_periodic(SimTime{0}, SimTime{1}, [] { return true; });
  EXPECT_NO_THROW(sim.run_until(SimTime{80}));
  EXPECT_THROW(sim.run(), InvariantError);  // 81st..101st event trips it
}

TEST(Simulator, EventsExecutedAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(SimTime{i}, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, TypedPeriodicTimerReArmsWhileTrue) {
  Simulator sim;
  class FiveTicks final : public TimerTarget {
   public:
    explicit FiveTicks(Simulator& s) : sim_(&s) {}
    bool on_timer(std::uint32_t) override {
      times.push_back(sim_->now().ticks());
      return times.size() < 5;
    }
    Simulator* sim_;
    std::vector<SimTime::underlying> times;
  } target(sim);
  sim.schedule_periodic(SimTime{0}, SimTime{10}, target);
  sim.run();
  EXPECT_EQ(target.times,
            (std::vector<SimTime::underlying>{0, 10, 20, 30, 40}));
  EXPECT_EQ(sim.now(), SimTime{40});
}

TEST(Simulator, TypedPeriodicTimerPassesTimerId) {
  Simulator sim;
  CountingTimer target;
  target.keep_going = false;
  sim.schedule_periodic(SimTime{5}, SimTime{10}, target, 7);
  sim.run();
  EXPECT_EQ(target.ids, (std::vector<std::uint32_t>{7}));
}

TEST(Simulator, TypedOneShotTimerIgnoresReturnValue) {
  Simulator sim;
  CountingTimer target;
  target.keep_going = true;  // would re-arm if periodic; must not here
  sim.schedule_timer_at(SimTime{3}, target, 1);
  sim.run();
  EXPECT_EQ(target.ids.size(), 1u);
  EXPECT_EQ(sim.now(), SimTime{3});
}

TEST(Simulator, TypedAndClosurePeriodicTimersTickIdentically) {
  // The typed timer must be a drop-in for the closure Repeater: same tick
  // times, same executed-event count, so traces do not shift.
  const auto run_closure = [] {
    Simulator sim;
    std::vector<SimTime::underlying> times;
    sim.schedule_periodic(SimTime{2}, SimTime{7}, [&] {
      times.push_back(sim.now().ticks());
      return times.size() < 4;
    });
    sim.run();
    return std::pair{times, sim.events_executed()};
  };
  const auto run_typed = [] {
    Simulator sim;
    class T final : public TimerTarget {
     public:
      explicit T(Simulator& s) : sim_(&s) {}
      bool on_timer(std::uint32_t) override {
        times.push_back(sim_->now().ticks());
        return times.size() < 4;
      }
      Simulator* sim_;
      std::vector<SimTime::underlying> times;
    } target(sim);
    sim.schedule_periodic(SimTime{2}, SimTime{7}, target);
    sim.run();
    return std::pair{target.times, sim.events_executed()};
  };
  EXPECT_EQ(run_closure(), run_typed());
}

TEST(Simulator, ScheduleFrameAfterDeliversToSink) {
  Simulator sim;
  CountingSink sink;
  const net::Message m{MemberId{4}, MemberId{5}, net::Frame{{9, 9, 9}}};
  sim.schedule_at(SimTime{10}, [&] {
    sim.schedule_frame_after(SimTime{6}, m, sink);
  });
  sim.run();
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(sim.now(), SimTime{16});
  EXPECT_EQ(sink.delivered[0].frame.size(), 3u);
}

TEST(Simulator, InterleavedSchedulingIsDeterministic) {
  // Two structurally identical simulations must produce identical traces.
  const auto trace = [] {
    Simulator sim;
    std::vector<int> fired;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(SimTime{i % 7}, [&fired, i] { fired.push_back(i); });
    }
    sim.run();
    return fired;
  };
  EXPECT_EQ(trace(), trace());
}

/// On its first delivery, schedules enough frames to grow the event slab by
/// more than a chunk, then checks that its own in-slot message is intact.
class FloodingSink final : public FrameSink {
 public:
  explicit FloodingSink(Simulator& sim) : sim_(&sim) {}

  void deliver_frame(const net::Message& message) override {
    ++delivered;
    if (flooded) return;
    flooded = true;
    const net::Message filler{MemberId{7}, MemberId{8}, net::Frame{{1, 2}}};
    for (std::size_t i = 0; i < 3 * EventQueue::kChunkSlots; ++i) {
      const auto delay = static_cast<SimTime::underlying>(i % 50);
      sim_->schedule_frame_after(SimTime{delay}, filler, *this);
    }
    pending_after_flood = sim_->pending_events();
    source_after = message.source;
    destination_after = message.destination;
    frame_after = message.frame;
  }

  Simulator* sim_;
  bool flooded = false;
  std::size_t delivered = 0;
  std::size_t pending_after_flood = 0;
  MemberId source_after{};
  MemberId destination_after{};
  net::Frame frame_after;
};

TEST(Simulator, FiringEventKeepsItsBodyWhileTheSlabGrows) {
  // The event fires in its own queue slot. Pushes made while it runs grow
  // the slab past chunk boundaries; the slot must not move or be reused
  // under it (ASan flags a dangling reference here).
  Simulator sim;
  FloodingSink sink(sim);
  const net::Frame frame{{0xDE, 0xAD, 0xBE, 0xEF, 0x42}};
  sim.schedule_frame_after(
      SimTime{3}, net::Message{MemberId{1}, MemberId{2}, frame}, sink);
  sim.run();
  EXPECT_GT(sink.pending_after_flood, 2 * EventQueue::kChunkSlots);
  EXPECT_EQ(sink.source_after, MemberId{1});
  EXPECT_EQ(sink.destination_after, MemberId{2});
  EXPECT_EQ(sink.frame_after, frame);
  EXPECT_EQ(sink.delivered, 1 + 3 * EventQueue::kChunkSlots);
}

TEST(Simulator, PeriodicTimerReArmsInPlaceAcrossSlabGrowth) {
  // A re-arming timer whose tick floods the queue: the re-armed tick keeps
  // its period and id although its body never left its slot.
  Simulator sim;
  CountingSink sink;
  class Flooder final : public TimerTarget {
   public:
    Flooder(Simulator& s, CountingSink& k) : sim_(&s), sink_(&k) {}
    bool on_timer(std::uint32_t id) override {
      times.push_back(sim_->now().ticks());
      ids.push_back(id);
      for (std::size_t i = 0; i < EventQueue::kChunkSlots + 1; ++i) {
        sim_->schedule_frame_after(SimTime{1}, net::Message{}, *sink_);
      }
      return times.size() < 3;
    }
    Simulator* sim_;
    CountingSink* sink_;
    std::vector<SimTime::underlying> times;
    std::vector<std::uint32_t> ids;
  } target(sim, sink);
  sim.schedule_periodic(SimTime{5}, SimTime{20'000}, target, 9);
  sim.run();
  EXPECT_EQ(target.times,
            (std::vector<SimTime::underlying>{5, 20'005, 40'005}));
  EXPECT_EQ(target.ids, (std::vector<std::uint32_t>{9, 9, 9}));
  EXPECT_EQ(sink.delivered.size(), 3 * (EventQueue::kChunkSlots + 1));
}

}  // namespace
}  // namespace gridbox::sim
