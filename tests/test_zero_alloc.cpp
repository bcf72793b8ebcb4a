// Allocation-count proof for the zero-allocation message path.
//
// This binary replaces the global operator new with a counting shim and
// asserts that the steady-state transport path — send -> event queue ->
// deliver_frame -> on_message — and the typed periodic-timer re-arm path
// execute without touching the heap once warmed up. Warm-up is allowed to
// allocate: the event-queue slab chunks, its overflow heap, and the
// endpoint map all grow to their high-water mark there. After that, every
// per-message and per-tick structure is either inline (net::Frame,
// sim::Event) or reused.
//
// Kept as a separate test executable so the operator-new override cannot
// perturb the main suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/agg/codec.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/net/fault_model.h"
#include "src/net/latency_model.h"
#include "src/net/message.h"
#include "src/net/network.h"
#include "src/obs/event_log.h"
#include "src/obs/telemetry.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace

// Counting shims. Only the unaligned forms are replaced: the containers on
// the suspect list (std::vector, std::unordered_map, std::function) all
// allocate through plain operator new. (The tests below keep their
// simulator and network — and with them the over-aligned lanes those
// carry — on the stack, so the aligned forms never enter the measured
// window.)
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gridbox {
namespace {

/// Receiver that decodes like a real protocol node (header reads) but keeps
/// no per-message state, so any allocation observed is the transport's.
class DecodingSink final : public net::Endpoint {
 public:
  void on_message(const net::Message& message) override {
    agg::ByteReader r(message.frame);
    checksum_ += r.u8();
    checksum_ += r.u64();
    ++received_;
  }

  [[nodiscard]] std::uint64_t received() const { return received_; }

 private:
  std::uint64_t received_ = 0;
  std::uint64_t checksum_ = 0;
};

TEST(ZeroAlloc, SteadyStateSendDeliverPathDoesNotTouchTheHeap) {
  sim::Simulator sim;
  net::SimNetwork network(sim, std::make_unique<net::NoLoss>(),
                          std::make_unique<net::ConstantLatency>(SimTime{5}),
                          Rng{42});
  DecodingSink left;
  DecodingSink right;
  network.attach(MemberId{1}, left);
  network.attach(MemberId{2}, right);

  agg::ByteWriter w;
  w.u8(7);
  w.u64(0xfeedfaceULL);
  w.f64(3.5);
  const net::Frame frame = w.take();

  const auto burst = [&](int messages) {
    for (int i = 0; i < messages; ++i) {
      network.send(net::Message{MemberId{1}, MemberId{2}, frame});
      network.send(net::Message{MemberId{2}, MemberId{1}, frame});
    }
    sim.run();
  };

  // Warm-up: grows the event-queue slab/key heap past anything the steady
  // window will need (128 pending events vs 64 below).
  burst(64);

  const std::uint64_t before = heap_allocs();
  for (int round = 0; round < 100; ++round) burst(32);
  const std::uint64_t after = heap_allocs();

  EXPECT_EQ(after - before, 0u)
      << "steady-state send/deliver allocated " << (after - before)
      << " time(s) over 6400 messages";
  EXPECT_EQ(left.received() + right.received(), 2u * (64 + 100 * 32));
}

/// Re-arming timer target; stops itself after a fixed number of ticks.
class TickUntil final : public sim::TimerTarget {
 public:
  explicit TickUntil(std::uint64_t limit) : limit_(limit) {}

  bool on_timer(std::uint32_t) override { return ++ticks_ < limit_; }

  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  std::uint64_t limit_;
  std::uint64_t ticks_ = 0;
};

TEST(ZeroAlloc, TypedPeriodicTimerReArmsWithoutAllocating) {
  sim::Simulator sim;
  TickUntil timer(5000);
  sim.schedule_periodic(SimTime{0}, SimTime{10}, timer);

  // One step warms the queue slab; every later re-arm reuses the freed slot.
  ASSERT_TRUE(sim.step());

  const std::uint64_t before = heap_allocs();
  sim.run();
  const std::uint64_t after = heap_allocs();

  EXPECT_EQ(after - before, 0u)
      << "periodic re-arm allocated " << (after - before)
      << " time(s) over 4999 ticks";
  EXPECT_EQ(timer.ticks(), 5000u);
}

TEST(ZeroAlloc, TransportVirtualDispatchAddsNoAllocations) {
  // The sim path dispatches through the net::Transport interface since the
  // UDP runtime landed. Virtual dispatch must not reintroduce allocations:
  // the same steady-state proof as above, but every send goes through a
  // Transport& base reference, exactly as protocol nodes issue it.
  sim::Simulator sim;
  net::SimNetwork network(sim, std::make_unique<net::NoLoss>(),
                          std::make_unique<net::ConstantLatency>(SimTime{5}),
                          Rng{42});
  net::Transport& transport = network;
  DecodingSink left;
  DecodingSink right;
  transport.attach(MemberId{1}, left);
  transport.attach(MemberId{2}, right);

  agg::ByteWriter w;
  w.u8(7);
  w.u64(0xfeedfaceULL);
  const net::Frame frame = w.take();

  const auto burst = [&](int messages) {
    for (int i = 0; i < messages; ++i) {
      transport.send(net::Message{MemberId{1}, MemberId{2}, frame});
      transport.send(net::Message{MemberId{2}, MemberId{1}, frame});
    }
    sim.run();
  };

  burst(64);  // warm-up (see SteadyStateSendDeliverPathDoesNotTouchTheHeap)

  const std::uint64_t before = heap_allocs();
  for (int round = 0; round < 100; ++round) burst(32);
  const std::uint64_t after = heap_allocs();

  EXPECT_EQ(after - before, 0u)
      << "Transport-dispatched send/deliver allocated " << (after - before)
      << " time(s) over 6400 messages";
  EXPECT_EQ(left.received() + right.received(), 2u * (64 + 100 * 32));
}

TEST(ZeroAlloc, TelemetryRecordPathDoesNotTouchTheHeap) {
  // The live-telemetry claim (src/obs/telemetry.h): the always-on lanes'
  // record path is single-writer atomics into preallocated fixed arrays.
  // Same send/deliver harness as above plus a re-arming timer, with every
  // hook firing — traffic counters, timer counters, lateness histogram,
  // queue-depth high-water — and still zero allocations.
  sim::Simulator sim;
  const obs::TelemetryLane& lane = sim.telemetry();
  net::SimNetwork network(sim, std::make_unique<net::NoLoss>(),
                          std::make_unique<net::ConstantLatency>(SimTime{5}),
                          Rng{42});
  DecodingSink left;
  DecodingSink right;
  network.attach(MemberId{1}, left);
  network.attach(MemberId{2}, right);
  // A periodic timer that outlives the test keeps the timer-fire hook hot
  // in every burst; run_until slices advance time without draining it.
  TickUntil timer(1u << 20);
  sim.schedule_periodic(SimTime{0}, SimTime{10}, timer);

  agg::ByteWriter w;
  w.u8(7);
  w.u64(0xfeedfaceULL);
  const net::Frame frame = w.take();

  const auto burst = [&](int messages) {
    for (int i = 0; i < messages; ++i) {
      network.send(net::Message{MemberId{1}, MemberId{2}, frame});
      network.send(net::Message{MemberId{2}, MemberId{1}, frame});
    }
    (void)sim.run_until(sim.now() + SimTime{1000});
  };

  burst(64);  // warm-up (see SteadyStateSendDeliverPathDoesNotTouchTheHeap)

  const std::uint64_t before = heap_allocs();
  for (int round = 0; round < 100; ++round) burst(32);
  const std::uint64_t after = heap_allocs();

  EXPECT_EQ(after - before, 0u)
      << "telemetry-armed steady state allocated " << (after - before)
      << " time(s) over 6400 messages";
  // Every hook actually fired: the proof is not vacuous.
  EXPECT_GT(network.traffic().delivered.load(std::memory_order_relaxed),
            6400u);
  EXPECT_GT(lane.timers_fired.load(std::memory_order_relaxed), 0u);
  EXPECT_GT(lane.timer_lateness_us.total(), 0u);
  EXPECT_GT(lane.queue_depth_hw.load(std::memory_order_relaxed), 0u);
}

TEST(ZeroAlloc, OverflowTimersAndEmptyRingSlicesDoNotTouchTheHeap) {
  // The event queue's two paths together: re-arming timers whose period is
  // longer than the ring span live in the overflow heap, and every burst
  // drains before its run_until slice ends, so each measured slice starts
  // on an empty ring with the clock ahead of the latest pop. Bursts must
  // still land in the ring, not in the overflow heap. To prove it, the
  // warm-up keeps the ring busy with two interleaved tickers, so the ring
  // is never empty there and only the measured window meets the pattern.
  sim::Simulator sim;
  const obs::TelemetryLane& lane = sim.telemetry();
  net::SimNetwork network(sim, std::make_unique<net::NoLoss>(),
                          std::make_unique<net::ConstantLatency>(SimTime{5}),
                          Rng{42});
  DecodingSink left;
  DecodingSink right;
  network.attach(MemberId{1}, left);
  network.attach(MemberId{2}, right);
  constexpr auto kSpan =
      static_cast<SimTime::underlying>(sim::EventQueue::kRingSpan);
  TickUntil slow(1u << 20);
  TickUntil slower(1u << 20);
  // Every 5 us between them, done before the window opens.
  TickUntil ticker(3'990);
  TickUntil offset_ticker(3'990);
  sim.schedule_periodic(SimTime{0}, SimTime{kSpan + 1'000}, slow);
  sim.schedule_periodic(SimTime{0}, SimTime{2 * kSpan + 7}, slower);
  sim.schedule_periodic(SimTime{0}, SimTime{10}, ticker);
  sim.schedule_periodic(SimTime{5}, SimTime{10}, offset_ticker);

  agg::ByteWriter w;
  w.u8(7);
  w.u64(0xfeedfaceULL);
  const net::Frame frame = w.take();

  const auto burst = [&](int messages) {
    for (int i = 0; i < messages; ++i) {
      network.send(net::Message{MemberId{1}, MemberId{2}, frame});
      network.send(net::Message{MemberId{2}, MemberId{1}, frame});
    }
    (void)sim.run_until(sim.now() + SimTime{1000});
  };

  // Warm-up: 40 ms, past both slow timers' first re-arms into the overflow
  // heap and past the tickers' last ticks.
  for (int round = 0; round < 40; ++round) burst(64);
  ASSERT_EQ(ticker.ticks() + offset_ticker.ticks(), 2u * 3'990u);

  const std::uint64_t fired_before =
      lane.timers_fired.load(std::memory_order_relaxed);
  const std::uint64_t before = heap_allocs();
  for (int round = 0; round < 200; ++round) burst(32);
  const std::uint64_t after = heap_allocs();

  EXPECT_EQ(after - before, 0u)
      << "overflow-timer steady state allocated " << (after - before)
      << " time(s) over 12800 messages";
  // Both paths ran inside the window: overflow timers fired, bursts landed.
  EXPECT_GE(lane.timers_fired.load(std::memory_order_relaxed) - fired_before,
            10u);
  EXPECT_EQ(left.received() + right.received(), 2u * (40 * 64 + 200 * 32));
}

TEST(ZeroAlloc, FullEventRingAppendDoesNotTouchTheHeap) {
  // The flight-recorder claim (src/obs/event_log.h): once the bounded ring
  // holds its kFlightTail records, an append is a slot write.
  obs::EventLog::Options eopt;
  eopt.flight = true;
  obs::EventLog events(eopt);
  ASSERT_FALSE(events.flat());
  obs::Event e;
  e.kind = obs::EventKind::kDeliver;
  for (std::size_t i = 0; i < obs::EventLog::kFlightTail; ++i) {
    events.append(e);
  }

  const std::uint64_t before = heap_allocs();
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    e.at = SimTime::micros(i);
    e.kind = static_cast<obs::EventKind>(i % 12);
    e.a = i;
    events.append(e);
  }
  const std::uint64_t after = heap_allocs();

  EXPECT_EQ(after - before, 0u)
      << "full-ring appends allocated " << (after - before) << " time(s)";
  EXPECT_EQ(events.size(), obs::EventLog::kFlightTail);
  EXPECT_EQ(events.total(), obs::EventLog::kFlightTail + 10'000);
  EXPECT_EQ(events.at(events.size() - 1).a, 9'999u);  // newest last
}

TEST(ZeroAlloc, CountingShimIsLive) {
  // Sanity: the override is actually installed in this binary — otherwise
  // the two proofs above would pass vacuously.
  const std::uint64_t before = heap_allocs();
  auto* p = new int(7);
  const std::uint64_t after = heap_allocs();
  delete p;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace gridbox
