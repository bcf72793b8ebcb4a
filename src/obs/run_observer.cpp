#include "src/obs/run_observer.h"

#include <cstdio>
#include <utility>

#include "src/common/ensure.h"

namespace gridbox::obs {

RunObserver::RunObserver(Options options) : options_(options) {
  expects(options_.simulator != nullptr, "run observer: simulator required");
  member_phase_.assign(options_.group_size, 0);
}

SimTime RunObserver::now() const { return options_.simulator->now(); }

Event RunObserver::stamp(EventKind kind, MemberId member) const {
  Event e;
  e.at = now();
  e.kind = kind;
  e.a = member.value();
  return e;
}

void RunObserver::flush(const net::NetworkStats& network) {
  MetricsRegistry* m = options_.metrics;
  if (m == nullptr) return;
  m->counter("msgs_sent").inc(network.messages_sent);
  m->counter("msgs_dropped").inc(network.messages_dropped);
  m->counter("msgs_duplicated").inc(network.messages_duplicated);
  m->counter("msgs_delivered").inc(network.messages_delivered);
  m->counter("msgs_dead_dest").inc(network.messages_dead_dest);
  m->counter("msgs_malformed").inc(network.messages_malformed);
  m->counter("bytes_on_wire").inc(network.bytes_sent);
  m->counter("gossip_rounds").inc(tally_.rounds);
  m->counter("phase_conclusions").inc(tally_.conclusions);
  m->counter("finishes").inc(tally_.finishes);
  m->counter("crashes").inc(tally_.crashes);
  // Fanout is the per-round gossipee count: M in the paper, usually tiny.
  Histogram& fanout =
      m->histogram("gossip_fanout_hist", {0, 1, 2, 3, 4, 6, 8, 16});
  for (std::size_t i = 0; i < kFanoutBuckets; ++i) {
    fanout.add_to_bucket(i, fanout_counts_[i]);
  }
  // A per-phase counter exists iff the phase sent something, matching the
  // lazy registration this replaced.
  for (std::size_t phase = 0; phase < timeline_.phases.size(); ++phase) {
    const std::uint64_t sent = timeline_.phases[phase].msgs_sent;
    if (sent == 0) continue;
    char name[40];
    std::snprintf(name, sizeof(name), "msgs_sent_by_phase.%02zu", phase);
    m->counter(name).inc(sent);
  }
}

void RunObserver::append_message(EventKind kind,
                                 const net::Message& message,
                                 SimTime t) {
  Event e;
  e.at = t;
  e.kind = kind;
  e.a = message.source.value();
  e.b = message.destination.value();
  e.value = static_cast<std::uint32_t>(message.frame.size());
  append(e);
}

void RunObserver::on_send(const net::Message& message, SimTime t) {
  const std::size_t phase =
      message.source.value() < member_phase_.size()
          ? member_phase_[message.source.value()]
          : 0;
  timeline_.at_phase(phase).msgs_sent += 1;
  append_message(EventKind::kSend, message, t);
}

void RunObserver::on_drop(const net::Message& message, SimTime t) {
  append_message(EventKind::kDrop, message, t);
}

void RunObserver::on_duplicate(const net::Message& message, SimTime t) {
  append_message(EventKind::kDuplicate, message, t);
}

void RunObserver::on_deliver(const net::Message& message, SimTime t) {
  append_message(EventKind::kDeliver, message, t);
}

void RunObserver::on_dead_destination(const net::Message& message, SimTime t) {
  append_message(EventKind::kDeadDest, message, t);
}

void RunObserver::on_malformed(const net::Message& message, SimTime t) {
  append_message(EventKind::kMalformed, message, t);
}

void RunObserver::on_phase_entered(MemberId member, std::size_t phase) {
  if (options_.next != nullptr) options_.next->on_phase_entered(member, phase);
  if (member.value() < member_phase_.size()) {
    member_phase_[member.value()] = phase;
  }
  Event e = stamp(EventKind::kPhaseEntered, member);
  e.phase = static_cast<std::uint32_t>(phase);
  PhaseSpan& span = timeline_.at_phase(phase);
  span.entered += 1;
  if (!span.any_entered || e.at < span.first_entered) {
    span.first_entered = e.at;
    span.any_entered = true;
  }
  append(e);
}

void RunObserver::on_round_gossiped(MemberId member, std::size_t phase,
                                    std::uint32_t fanout) {
  if (options_.next != nullptr) {
    options_.next->on_round_gossiped(member, phase, fanout);
  }
  tally_.rounds += 1;
  // Same bucket rule as Histogram::observe: first bound >= v, else overflow.
  static constexpr std::uint64_t kFanoutBounds[] = {0, 1, 2, 3, 4, 6, 8, 16};
  std::size_t bucket = 0;
  while (bucket < kFanoutBuckets - 1 && fanout > kFanoutBounds[bucket]) {
    ++bucket;
  }
  ++fanout_counts_[bucket];
  timeline_.at_phase(phase).rounds += 1;
  Event e = stamp(EventKind::kRound, member);
  e.phase = static_cast<std::uint32_t>(phase);
  e.value = fanout;
  append(e);
}

void RunObserver::on_knowledge_gained(MemberId member, std::size_t phase,
                                      std::uint32_t index, MemberId from,
                                      std::uint32_t votes,
                                      protocols::gossip::GainKind kind) {
  if (options_.next != nullptr) {
    options_.next->on_knowledge_gained(member, phase, index, from, votes,
                                       kind);
  }
  Event e = stamp(EventKind::kGain, member);
  e.aux = static_cast<std::uint8_t>(kind);
  e.b = from.value();
  e.phase = static_cast<std::uint32_t>(phase);
  e.value = index;
  e.votes = votes;
  append(e);
}

void RunObserver::on_phase_concluded(MemberId member, std::size_t phase,
                                     protocols::gossip::PhaseEnd how,
                                     std::uint32_t votes) {
  if (options_.next != nullptr) {
    options_.next->on_phase_concluded(member, phase, how, votes);
  }
  Event e = stamp(EventKind::kConcluded, member);
  e.aux = static_cast<std::uint8_t>(how);
  e.phase = static_cast<std::uint32_t>(phase);
  e.votes = votes;
  tally_.conclusions += 1;
  PhaseSpan& span = timeline_.at_phase(phase);
  span.concluded += 1;
  span.votes_concluded_sum += votes;
  if (e.at > span.last_concluded) span.last_concluded = e.at;
  append(e);
}

void RunObserver::on_finished(MemberId member, std::uint32_t votes) {
  if (options_.next != nullptr) options_.next->on_finished(member, votes);
  tally_.finishes += 1;
  Event e = stamp(EventKind::kFinished, member);
  e.votes = votes;
  append(e);
}

void RunObserver::on_crash(MemberId member) {
  tally_.crashes += 1;
  Event e = stamp(EventKind::kCrash, member);
  append(e);
}

}  // namespace gridbox::obs
