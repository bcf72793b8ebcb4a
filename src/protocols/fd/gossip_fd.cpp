#include "src/protocols/fd/gossip_fd.h"

#include <algorithm>
#include <utility>

#include "src/agg/codec.h"
#include "src/common/ensure.h"

namespace gridbox::protocols::fd {

GossipFailureDetector::GossipFailureDetector(MemberId self,
                                             membership::View view,
                                             sim::Scheduler& scheduler,
                                             net::Transport& network, Rng rng,
                                             FdConfig config)
    : self_(self),
      view_(std::move(view)),
      scheduler_(&scheduler),
      network_(&network),
      rng_(rng),
      config_(config) {
  expects(config_.fanout >= 1, "fanout must be at least 1");
  expects(config_.entries_per_message >= 1, "need at least one entry");
  expects(config_.fail_rounds >= 1, "fail_rounds must be at least 1");
  members_ = view_.members();
  table_.resize(members_.size());
}

void GossipFailureDetector::set_liveness(
    std::function<bool(MemberId)> is_alive) {
  is_alive_ = std::move(is_alive);
}

GossipFailureDetector::Entry* GossipFailureDetector::entry_of(
    MemberId member) {
  const auto it = std::lower_bound(members_.begin(), members_.end(), member);
  if (it == members_.end() || *it != member) return nullptr;
  return &table_[static_cast<std::size_t>(it - members_.begin())];
}

const GossipFailureDetector::Entry* GossipFailureDetector::entry_of(
    MemberId member) const {
  return const_cast<GossipFailureDetector*>(this)->entry_of(member);
}

void GossipFailureDetector::start(SimTime at) {
  expects(!running_, "start called twice");
  running_ = true;
  scheduler_->schedule_periodic(at, config_.round_duration, *this);
}

bool GossipFailureDetector::on_timer(std::uint32_t /*timer_id*/) {
  return on_round();
}

bool GossipFailureDetector::on_round() {
  if (!running_) return false;
  if (is_alive_ && !is_alive_(self_)) {
    running_ = false;  // crashed: halt; start() may relaunch after recovery
    return false;
  }
  ++round_;

  // Beat our own heart.
  if (Entry* self_entry = entry_of(self_)) {
    ++self_entry->heartbeat;
    self_entry->last_progress_round = round_;
    self_entry->suspected_at.reset();
  }

  // Refresh suspicion state.
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Entry& entry = table_[i];
    if (members_[i] == self_) continue;
    if (round_ >= entry.last_progress_round + config_.fail_rounds) {
      if (!entry.suspected_at.has_value()) entry.suspected_at = round_;
    }
  }

  // Gossip a bounded random slice of the table.
  if (members_.size() > 1) {
    rng_.sample_indices_into(
        members_.size(),
        std::min<std::size_t>(config_.fanout + 1, members_.size()),
        scratch_targets_);
    std::size_t sent = 0;
    for (const std::size_t t : scratch_targets_) {
      if (members_[t] == self_) continue;  // +1 oversample skips self
      if (sent++ >= config_.fanout) break;

      rng_.sample_indices_into(
          members_.size(),
          std::min<std::size_t>(config_.entries_per_message, members_.size()),
          scratch_slice_);
      agg::ByteWriter w;
      w.u8(kWireType);
      w.u8(static_cast<std::uint8_t>(scratch_slice_.size()));
      for (const std::size_t i : scratch_slice_) {
        w.u32(members_[i].value());
        w.u64(table_[i].heartbeat);
      }
      network_->send(net::Message{self_, members_[t], w.take()});
    }
  }
  return true;
}

void GossipFailureDetector::on_message(const net::Message& message) {
  if (is_alive_ && !is_alive_(self_)) return;
  const net::Frame& frame = message.frame;
  if (frame.empty() || frame[0] != kWireType) return;
  agg::ByteReader r(frame);
  (void)r.u8();
  const std::size_t count = r.u8();
  // Strict framing: header (type + count) plus count fixed 12-byte entries,
  // nothing more and nothing less.
  expects(frame.size() == 2 + count * 12, "fd gossip frame length mismatch");
  for (std::size_t i = 0; i < count; ++i) {
    const MemberId member{r.u32()};
    const std::uint64_t heartbeat = r.u64();
    absorb(member, heartbeat);
  }
}

void GossipFailureDetector::absorb(MemberId member, std::uint64_t heartbeat) {
  Entry* entry = entry_of(member);
  if (entry == nullptr) return;  // unknown member (partial views)
  if (heartbeat > entry->heartbeat) {
    entry->heartbeat = heartbeat;
    entry->last_progress_round = round_;
    entry->suspected_at.reset();  // it moved: clear any suspicion
  }
}

bool GossipFailureDetector::suspects(MemberId member) const {
  const Entry* entry = entry_of(member);
  return entry != nullptr && entry->suspected_at.has_value();
}

std::vector<MemberId> GossipFailureDetector::suspected() const {
  std::vector<MemberId> out;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (table_[i].suspected_at.has_value()) out.push_back(members_[i]);
  }
  return out;
}

std::optional<std::uint64_t> GossipFailureDetector::suspected_since(
    MemberId member) const {
  const Entry* entry = entry_of(member);
  if (entry == nullptr) return std::nullopt;
  return entry->suspected_at;
}

}  // namespace gridbox::protocols::fd
