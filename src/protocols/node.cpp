#include "src/protocols/node.h"

#include <utility>

#include "src/common/ensure.h"

namespace gridbox::protocols {

ProtocolNode::ProtocolNode(MemberId self, double vote, membership::View view,
                           NodeEnv env, Rng rng)
    : self_(self),
      view_(std::move(view)),
      env_(env),
      solo_arena_(env.arena == nullptr
                      ? std::make_unique<StateArena>(StateArena::solo(self))
                      : nullptr),
      arena_(env.arena != nullptr ? env.arena : solo_arena_.get()),
      slot_(arena_->slot_of(self)),
      rng_(rng) {
  expects(env_.scheduler != nullptr, "node env: scheduler required");
  expects(env_.network != nullptr, "node env: network required");
  expects(env_.hierarchy != nullptr, "node env: hierarchy required");
  arena_->vote(slot_) = vote;
}

void ProtocolNode::send_to(MemberId to, const net::Frame& frame) {
  env_.network->send(net::Message{self_, to, frame});
}

bool ProtocolNode::on_timer(std::uint32_t /*timer_id*/) { return on_round(); }

void ProtocolNode::start_rounds(SimTime start, SimTime interval) {
  env_.scheduler->schedule_periodic(start, interval, *this);
}

std::uint64_t ProtocolNode::register_own_vote() {
  const std::uint64_t token = env_.audit == nullptr
                                  ? agg::kNoAuditToken
                                  : env_.audit->register_vote(self_);
  arena_->audit_token(slot_) = token;
  return token;
}

void ProtocolNode::set_outcome(agg::Partial estimate, std::uint64_t token) {
  outcome_.finished = true;
  outcome_.estimate = estimate;
  outcome_.audit_token = token;
  outcome_.finish_time = env_.scheduler->now();
  // Release-publish the outcome record: a cross-thread finished() == true
  // implies the fields above are visible. A duplicate conclusion (e.g. a
  // chaos-duplicated result frame) must not re-notify the completion hook.
  const bool was_finished = finished_.exchange(true, std::memory_order_release);
  if (!was_finished && env_.on_finished) env_.on_finished(self_);
}

}  // namespace gridbox::protocols
