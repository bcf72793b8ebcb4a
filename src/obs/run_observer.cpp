#include "src/obs/run_observer.h"

#include <cstdio>
#include <utility>

#include "src/common/ensure.h"
#include "src/obs/curves.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lineage.h"

namespace gridbox::obs {

namespace {

const char* how_name(protocols::gossip::PhaseEnd how) {
  using protocols::gossip::PhaseEnd;
  switch (how) {
    case PhaseEnd::kTimeout:
      return "timeout";
    case PhaseEnd::kSaturated:
      return "saturated";
    case PhaseEnd::kAdopted:
      return "adopted";
  }
  return "?";
}

/// Message-shaped flight event.
FlightRecorder::Event flight_msg(FlightRecorder::EventKind kind,
                                 const net::Message& message, SimTime t) {
  FlightRecorder::Event e;
  e.at = t;
  e.kind = kind;
  e.a = message.source.value();
  e.b = message.destination.value();
  e.value = static_cast<std::uint32_t>(message.frame.size());
  return e;
}

}  // namespace

RunObserver::RunObserver(Options options) : options_(options) {
  expects(options_.simulator != nullptr, "run observer: simulator required");
  member_phase_.assign(options_.group_size, 0);
}

SimTime RunObserver::now() const { return options_.simulator->now(); }

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

void RunObserver::on_send(const net::Message& message, SimTime t) {
  const std::size_t phase =
      message.source.value() < member_phase_.size()
          ? member_phase_[message.source.value()]
          : 0;
  timeline_.at_phase(phase).msgs_sent += 1;
  if (options_.sink != nullptr) {
    options_.sink->message_event("send", t, message.source,
                                 message.destination,
                                 message.frame.size());
  }
  if (options_.flight != nullptr) {
    options_.flight->record(
        flight_msg(FlightRecorder::EventKind::kSend, message, t));
  }
}

void RunObserver::on_drop(const net::Message& message, SimTime t) {
  if (options_.sink != nullptr) {
    options_.sink->message_event("drop", t, message.source,
                                 message.destination,
                                 message.frame.size());
  }
  if (options_.flight != nullptr) {
    options_.flight->record(
        flight_msg(FlightRecorder::EventKind::kDrop, message, t));
  }
}

void RunObserver::on_duplicate(const net::Message& message, SimTime t) {
  if (options_.sink != nullptr) {
    options_.sink->message_event("dup", t, message.source,
                                 message.destination,
                                 message.frame.size());
  }
  if (options_.flight != nullptr) {
    options_.flight->record(
        flight_msg(FlightRecorder::EventKind::kDuplicate, message, t));
  }
}

void RunObserver::on_deliver(const net::Message& message, SimTime t) {
  if (options_.sink != nullptr) {
    options_.sink->message_event("recv", t, message.source,
                                 message.destination,
                                 message.frame.size());
  }
  if (options_.flight != nullptr) {
    options_.flight->record(
        flight_msg(FlightRecorder::EventKind::kDeliver, message, t));
  }
}

void RunObserver::on_dead_destination(const net::Message& message, SimTime t) {
  if (options_.sink != nullptr) {
    options_.sink->message_event("dead", t, message.source,
                                 message.destination,
                                 message.frame.size());
  }
  if (options_.flight != nullptr) {
    options_.flight->record(
        flight_msg(FlightRecorder::EventKind::kDeadDest, message, t));
  }
}

void RunObserver::on_malformed(const net::Message& message, SimTime t) {
  if (options_.sink != nullptr) {
    options_.sink->message_event("malformed", t, message.source,
                                 message.destination,
                                 message.frame.size());
  }
  if (options_.flight != nullptr) {
    options_.flight->record(
        flight_msg(FlightRecorder::EventKind::kMalformed, message, t));
  }
}

void RunObserver::on_phase_entered(MemberId member, std::size_t phase) {
  if (options_.next != nullptr) options_.next->on_phase_entered(member, phase);
  if (member.value() < member_phase_.size()) {
    member_phase_[member.value()] = phase;
  }
  PhaseSpan& span = timeline_.at_phase(phase);
  span.entered += 1;
  if (!span.any_entered || now() < span.first_entered) {
    span.first_entered = now();
    span.any_entered = true;
  }
  if (options_.sink != nullptr) {
    options_.sink->member_event("enter", now(), member,
                                static_cast<std::int64_t>(phase));
  }
  if (options_.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = now();
    e.kind = FlightRecorder::EventKind::kPhaseEntered;
    e.a = member.value();
    e.phase = static_cast<std::uint32_t>(phase);
    options_.flight->record(e);
  }
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
  // Rounds are the bulk of the stream; traced with the fanout so a timeline
  // reader can see gossip pressure per phase.
  if (options_.sink != nullptr) {
    options_.sink->member_event("round", now(), member,
                                static_cast<std::int64_t>(phase),
                                static_cast<std::int64_t>(fanout), "fanout");
  }
  if (options_.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = now();
    e.kind = FlightRecorder::EventKind::kRound;
    e.a = member.value();
    e.phase = static_cast<std::uint32_t>(phase);
    e.value = fanout;
    options_.flight->record(e);
  }
}

void RunObserver::on_value_learned(MemberId member, std::size_t phase,
                                   std::uint32_t index) {
  if (options_.next != nullptr) {
    options_.next->on_value_learned(member, phase, index);
  }
  if (options_.sink != nullptr) {
    options_.sink->member_event("learn", now(), member,
                                static_cast<std::int64_t>(phase),
                                static_cast<std::int64_t>(index), "index");
  }
}

void RunObserver::on_knowledge_gained(MemberId member, std::size_t phase,
                                      std::uint32_t index, MemberId from,
                                      std::uint32_t votes,
                                      protocols::gossip::GainKind kind) {
  if (options_.next != nullptr) {
    options_.next->on_knowledge_gained(member, phase, index, from, votes,
                                       kind);
  }
  // The JSONL stream keeps its historical shape: one "learn" line per
  // remote gain, byte-identical to the pre-lineage traces. Local seeds,
  // adoptions and result pushes are visible through lineage/flight instead.
  if (options_.sink != nullptr &&
      kind == protocols::gossip::GainKind::kRemote) {
    options_.sink->member_event("learn", now(), member,
                                static_cast<std::int64_t>(phase),
                                static_cast<std::int64_t>(index), "index");
  }
  if (options_.lineage != nullptr) {
    options_.lineage->on_knowledge_gained(member, phase, index, from, votes,
                                          kind);
  }
  if (options_.curves != nullptr) options_.curves->record_gain(phase, kind);
  if (options_.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = now();
    e.kind = FlightRecorder::EventKind::kGain;
    e.aux = static_cast<std::uint8_t>(kind);
    e.a = member.value();
    e.b = from.value();
    e.phase = static_cast<std::uint32_t>(phase);
    e.value = index;
    e.votes = votes;
    options_.flight->record(e);
  }
}

void RunObserver::on_phase_concluded(MemberId member, std::size_t phase,
                                     protocols::gossip::PhaseEnd how,
                                     std::uint32_t votes) {
  if (options_.next != nullptr) {
    options_.next->on_phase_concluded(member, phase, how, votes);
  }
  tally_.conclusions += 1;
  PhaseSpan& span = timeline_.at_phase(phase);
  span.concluded += 1;
  span.votes_concluded_sum += votes;
  if (now() > span.last_concluded) span.last_concluded = now();
  if (options_.sink != nullptr) {
    options_.sink->member_event("conclude", now(), member,
                                static_cast<std::int64_t>(phase),
                                static_cast<std::int64_t>(votes), "votes",
                                how_name(how));
  }
  if (options_.lineage != nullptr) {
    options_.lineage->on_phase_concluded(member, phase, how, votes);
  }
  if (options_.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = now();
    e.kind = FlightRecorder::EventKind::kConcluded;
    e.aux = static_cast<std::uint8_t>(how);
    e.a = member.value();
    e.phase = static_cast<std::uint32_t>(phase);
    e.votes = votes;
    options_.flight->record(e);
  }
}

void RunObserver::on_finished(MemberId member, std::uint32_t votes) {
  if (options_.next != nullptr) options_.next->on_finished(member, votes);
  tally_.finishes += 1;
  if (options_.sink != nullptr) {
    options_.sink->member_event("finish", now(), member, TraceSink::kOmitted,
                                static_cast<std::int64_t>(votes), "votes");
  }
  if (options_.lineage != nullptr) {
    options_.lineage->on_finished(member, votes);
  }
  if (options_.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = now();
    e.kind = FlightRecorder::EventKind::kFinished;
    e.a = member.value();
    e.votes = votes;
    options_.flight->record(e);
  }
}

void RunObserver::on_crash(MemberId member) {
  tally_.crashes += 1;
  if (options_.sink != nullptr) {
    options_.sink->member_event("crash", now(), member);
  }
  if (options_.lineage != nullptr) options_.lineage->on_crash(member);
  if (options_.flight != nullptr) {
    FlightRecorder::Event e;
    e.at = now();
    e.kind = FlightRecorder::EventKind::kCrash;
    e.a = member.value();
    options_.flight->record(e);
  }
}

}  // namespace gridbox::obs
