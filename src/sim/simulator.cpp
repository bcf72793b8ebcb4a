#include "src/sim/simulator.h"

#include <utility>

#include "src/common/ensure.h"

namespace gridbox::sim {

void Simulator::schedule_at(SimTime time, Action action) {
  if (time < now_) time = now_;
  queue_.push(time, std::move(action));
}

void Simulator::schedule_after(SimTime delay, Action action) {
  expects(delay.ticks() >= 0, "negative delay");
  queue_.push(now_ + delay, std::move(action));
}

void Simulator::schedule_frame_after(SimTime delay, const net::Message& message,
                                     FrameSink& sink) {
  expects(delay.ticks() >= 0, "negative delay");
  queue_.emplace(now_ + delay).emplace<DeliverFrame>(message, &sink);
}

namespace {

// Self-rescheduling periodic action. Owns the tick callable by value and
// re-enqueues a copy of itself while the tick returns true, so there is no
// shared-ownership cycle and the chain dies naturally with the queue.
struct Repeater {
  Simulator* simulator;
  SimTime interval;
  std::function<bool()> tick;

  void operator()() {
    if (tick()) simulator->schedule_after(interval, Repeater{*this});
  }
};

}  // namespace

void Simulator::schedule_periodic(SimTime start, SimTime interval,
                                  std::function<bool()> tick) {
  expects(interval.ticks() > 0, "periodic interval must be positive");
  schedule_at(start, Repeater{this, interval, std::move(tick)});
}

void Simulator::schedule_periodic(SimTime start, SimTime interval,
                                  TimerTarget& target, std::uint32_t timer_id) {
  expects(interval.ticks() > 0, "periodic interval must be positive");
  if (start < now_) start = now_;
  queue_.push(start, TimerFire{&target, interval, timer_id});
}

void Simulator::schedule_timer_at(SimTime time, TimerTarget& target,
                                  std::uint32_t timer_id) {
  if (time < now_) time = now_;
  queue_.push(time, TimerFire{&target, SimTime::zero(), timer_id});
}

std::uint64_t Simulator::run() {
  std::uint64_t count = 0;
  while (step()) {
    ++count;
    // Checked against the lifetime total, not the per-call count: otherwise a
    // caller looping over run()/run_until() would reset the runaway guard on
    // every call and a reschedule loop could spin forever.
    ensures(executed_ <= event_limit_,
            "event limit exceeded: likely a runaway reschedule loop");
  }
  return count;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  std::uint64_t count = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    (void)step();
    ++count;
    ensures(executed_ <= event_limit_,
            "event limit exceeded: likely a runaway reschedule loop");
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  telemetry_.note_queue_depth(queue_.size());
  // The event fires inside its queue slot: pushes made while it runs never
  // move it (the slab grows by fixed chunks), and the slot is recycled only
  // once it is done.
  const EventQueue::SlotId slot = queue_.pop_slot();
  Event& event = queue_.body(slot);
  ensures(event.time >= now_, "event queue returned an event from the past");
  now_ = event.time;
  ++executed_;
  execute(event, slot);
  return true;
}

void Simulator::execute(Event& event, EventQueue::SlotId slot) {
  if (auto* action = std::get_if<Action>(&event.work)) {
    net::bump(telemetry_.actions_run);
    (*action)();
  } else if (auto* deliver = std::get_if<DeliverFrame>(&event.work)) {
    // Counted by the sink's traffic lane (delivered or dead-destination).
    deliver->sink->deliver_frame(deliver->message);
  } else {
    // Mirror Repeater's ordering exactly: the tick runs first, then the next
    // tick is enqueued, so event sequence numbers match the closure-based
    // engine and golden traces stay bitwise identical.
    auto& timer = std::get<TimerFire>(event.work);
    // Virtual-clock fires are exactly on time: lateness 0 by construction.
    telemetry_.note_timer_fired(0);
    const bool again = timer.target->on_timer(timer.timer_id);
    if (again && timer.interval.ticks() > 0) {
      queue_.relink(slot, now_ + timer.interval);  // the body stays put
      return;
    }
  }
  queue_.release(slot);
}

}  // namespace gridbox::sim
