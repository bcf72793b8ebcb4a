#include "src/service/mux.h"

#include <utility>

#include "src/common/ensure.h"
#include "src/service/envelope.h"

namespace gridbox::service {

void InstanceSender::attach(MemberId id, net::Endpoint& endpoint) {
  mux_.route(instance_, id, endpoint);
}

void InstanceSender::detach(MemberId id) { mux_.unroute(instance_, id); }

void InstanceSender::send(net::Message message) {
  mux_.forward(*this, std::move(message));
}

net::NetworkStats InstanceSender::stats() const {
  return net::fold(mux_.slots_[instance_].traffic.get(),
                   mux_.options_.shard_count);
}

InstanceMux::InstanceMux(Options options) : options_(std::move(options)) {
  expects(options_.group_size >= 1, "mux needs at least one member");
  expects(static_cast<bool>(options_.transport_of),
          "mux needs a transport map");
  expects(options_.max_instances >= 1, "mux needs at least one instance slot");
  expects(options_.shard_count >= 1, "mux needs at least one shard lane");
  ports_.reserve(options_.group_size);
  for (std::size_t m = 0; m < options_.group_size; ++m) {
    ports_.push_back(std::make_unique<MemberPort>(
        *this, MemberId{static_cast<MemberId::underlying>(m)}));
  }
  slots_ = std::make_unique<Slot[]>(options_.max_instances);
  lanes_ = std::make_unique<Lane[]>(options_.shard_count);
}

void InstanceMux::attach_all() {
  expects(!attached_, "mux already attached");
  for (std::size_t m = 0; m < options_.group_size; ++m) {
    const MemberId id{static_cast<MemberId::underlying>(m)};
    options_.transport_of(id)->attach(id, *ports_[m]);
  }
  attached_ = true;
}

void InstanceMux::detach_all() {
  if (!attached_) return;
  for (std::size_t m = 0; m < options_.group_size; ++m) {
    const MemberId id{static_cast<MemberId::underlying>(m)};
    options_.transport_of(id)->detach(id);
  }
  attached_ = false;
}

std::unique_ptr<InstanceSender> InstanceMux::open_instance(std::uint32_t id) {
  expects(id == next_id_.load(std::memory_order_relaxed),
          "instance ids must be opened in order");
  expects(id < options_.max_instances,
          "instance id beyond Options::max_instances");
  auto sender = std::make_unique<InstanceSender>(*this, id);
  Slot& slot = slots_[id];
  // Publication order: fill the slot, release-store its state, then
  // release-store next_id_. A demux that acquire-loads next_id_ > id
  // therefore sees the slot open with routes and lanes fully visible.
  slot.routes = std::make_unique<std::atomic<net::Endpoint*>[]>(
      options_.group_size);  // value-initialized: all unrouted
  slot.traffic = std::make_unique<net::TrafficLane[]>(options_.shard_count);
  slot.state.store(kOpen, std::memory_order_release);
  next_id_.store(id + 1, std::memory_order_release);
  return sender;
}

void InstanceMux::close_instance(std::uint32_t id) {
  expects(id < options_.max_instances &&
              slots_[id].state.load(std::memory_order_relaxed) == kOpen,
          "closing an instance that is not open");
  // Retire-only: routes and lanes stay in place so a demux racing this
  // store on another shard still dereferences live memory. The engine's
  // drain handshake orders every such demux before node teardown.
  slots_[id].state.store(kRetired, std::memory_order_release);
}

void InstanceMux::route(std::uint32_t instance, MemberId member,
                        net::Endpoint& endpoint) {
  expects(instance < options_.max_instances &&
              slots_[instance].state.load(std::memory_order_relaxed) == kOpen,
          "routing into an instance that is not open");
  expects(member.value() < options_.group_size, "member outside the group");
  slots_[instance].routes[member.value()].store(&endpoint,
                                                std::memory_order_release);
}

void InstanceMux::unroute(std::uint32_t instance, MemberId member) {
  if (instance >= options_.max_instances ||
      slots_[instance].state.load(std::memory_order_relaxed) != kOpen) {
    return;  // closed already: nothing to unroute
  }
  expects(member.value() < options_.group_size, "member outside the group");
  slots_[instance].routes[member.value()].store(nullptr,
                                                std::memory_order_release);
}

void InstanceMux::forward(InstanceSender& sender, net::Message message) {
  // Runs on the sending member's shard; that shard's lanes take the counts.
  const std::size_t lane = lane_of(message.source);
  if (!is_open(sender.instance())) {
    // A lingering node of a closed instance gossiping into the void — the
    // service's equivalent of a message to a crashed process.
    net::bump(lanes_[lane].closed_sends);
    return;
  }
  net::Message outer;
  outer.source = message.source;
  outer.destination = message.destination;
  outer.frame = envelope_wrap(sender.instance(), message.frame);
  net::TrafficLane& traffic = slots_[sender.instance()].traffic[lane];
  net::bump(traffic.sent);
  net::bump(traffic.bytes_sent, outer.frame.size());
  options_.transport_of(outer.source)->send(std::move(outer));
}

void InstanceMux::demux(MemberId self, const net::Message& outer) {
  // Runs on self's owning shard; that shard's lanes take the counts.
  const std::size_t shard = lane_of(self);
  Lane& lane = lanes_[shard];
  std::uint32_t instance = 0;
  net::Frame inner;
  const EnvelopeError error = envelope_unwrap(outer.frame, instance, inner);
  if (error != EnvelopeError::kOk) {
    net::bump(lane.malformed_envelope);
    return;
  }
  // Acquire next_id_ BEFORE touching the slot: the open's release store of
  // next_id_ is what publishes the slot's routes and lanes.
  if (instance >= next_id_.load(std::memory_order_acquire)) {
    net::bump(lane.unknown_instance);
    return;
  }
  Slot& slot = slots_[instance];
  if (slot.state.load(std::memory_order_acquire) != kOpen) {
    net::bump(lane.retired_instance);
    return;
  }
  net::Endpoint* endpoint =
      slot.routes[self.value()].load(std::memory_order_acquire);
  if (endpoint == nullptr) {
    // The member is not a participant of this instance's epoch (it joined
    // after launch, or was down at launch): to the instance it is dead.
    net::bump(slot.traffic[shard].dead_dest);
    return;
  }
  net::bump(slot.traffic[shard].delivered);
  net::Message message;
  message.source = outer.source;
  message.destination = outer.destination;
  message.frame = inner;
  endpoint->on_message(message);
}

DemuxStats InstanceMux::stats() const {
  // Folded in shard order; control thread or post-join.
  DemuxStats out;
  for (std::size_t s = 0; s < options_.shard_count; ++s) {
    const Lane& lane = lanes_[s];
    out.malformed_envelope +=
        lane.malformed_envelope.load(std::memory_order_relaxed);
    out.unknown_instance +=
        lane.unknown_instance.load(std::memory_order_relaxed);
    out.retired_instance +=
        lane.retired_instance.load(std::memory_order_relaxed);
    out.closed_sends += lane.closed_sends.load(std::memory_order_relaxed);
  }
  // A routed frame is counted once, by its instance: fold them back.
  net::NetworkStats routed;
  const std::uint32_t opened = instances_opened();
  for (std::uint32_t id = 0; id < opened; ++id) {
    for (std::size_t s = 0; s < options_.shard_count; ++s) {
      net::fold(routed, slots_[id].traffic[s]);
    }
  }
  out.delivered = routed.messages_delivered;
  out.unrouted_member = routed.messages_dead_dest;
  return out;
}

}  // namespace gridbox::service
