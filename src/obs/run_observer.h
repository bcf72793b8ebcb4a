// RunObserver: one run's observability hub.
//
// Implements both instrumentation interfaces the substrates expose —
// net::NetworkObserver (transport decisions) and gossip::GossipTrace (phase
// machine) — plus the membership crash hook. Each hook does two things:
//   - folds the event into the run's tallies and PhaseTimeline (per-phase
//     spans and message totals), which flush() writes into a
//     MetricsRegistry when one is attached;
//   - builds one obs::Event, stamped once with the simulator clock, and
//     appends it to the run's EventLog when one is attached. The JSONL
//     trace, the flight dump, the vote lineage and the epidemic curves are
//     all views of that one log (src/obs/event_log.h).
// A RunObserver with neither a registry nor a log is never installed
// (run_experiment only creates one when something wants events).
//
// Gossip events chain onward to `next`, so the observer can sit behind the
// InvariantChecker and in front of a caller-supplied trace. Per-phase
// message attribution uses the sender's current phase as reported by
// on_phase_entered (phase 0 = not in a phase yet / phase-less protocol).
#pragma once

#include <cstdint>
#include <vector>

#include "src/net/observer.h"
#include "src/net/stats.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/protocols/gossip/trace.h"
#include "src/sim/simulator.h"

namespace gridbox::obs {

class RunObserver final : public net::NetworkObserver,
                          public protocols::gossip::GossipTrace {
 public:
  struct Options {
    MetricsRegistry* metrics = nullptr;           ///< nullable
    EventLog* events = nullptr;                   ///< nullable
    const sim::Simulator* simulator = nullptr;    ///< clock for event stamps
    std::size_t group_size = 0;
    protocols::gossip::GossipTrace* next = nullptr;  ///< chain tail
  };

  explicit RunObserver(Options options);

  // net::NetworkObserver
  void on_send(const net::Message& message, SimTime now) override;
  void on_drop(const net::Message& message, SimTime now) override;
  void on_duplicate(const net::Message& message, SimTime now) override;
  void on_deliver(const net::Message& message, SimTime now) override;
  void on_dead_destination(const net::Message& message, SimTime now) override;
  void on_malformed(const net::Message& message, SimTime now) override;

  // gossip::GossipTrace
  void on_phase_entered(MemberId member, std::size_t phase) override;
  void on_round_gossiped(MemberId member, std::size_t phase,
                         std::uint32_t fanout) override;
  void on_knowledge_gained(MemberId member, std::size_t phase,
                           std::uint32_t index, MemberId from,
                           std::uint32_t votes,
                           protocols::gossip::GainKind kind) override;
  void on_phase_concluded(MemberId member, std::size_t phase,
                          protocols::gossip::PhaseEnd how,
                          std::uint32_t votes) override;
  void on_finished(MemberId member, std::uint32_t votes) override;

  /// Membership event (wired by the experiment's crash clock and chaos
  /// schedule; there is no substrate interface for it).
  void on_crash(MemberId member);

  /// Writes the run's tallies into the metrics registry (no-op without
  /// one). The message counters come from `network`, the run's own
  /// NetworkStats, which counts every event the on_* hooks see, and the
  /// per-phase send counters from the timeline; the observer keeps no
  /// second copy of either. run_experiment calls this once, after
  /// the simulator drains and before the registry is snapshotted; events
  /// observed later are lost.
  void flush(const net::NetworkStats& network);

  [[nodiscard]] const PhaseTimeline& timeline() const { return timeline_; }

 private:
  /// gossip_fanout_hist buckets: one per bound {0,1,2,3,4,6,8,16} plus
  /// overflow.
  static constexpr std::size_t kFanoutBuckets = 9;

  [[nodiscard]] SimTime now() const;
  /// A member event of `kind`, stamped with the simulator clock.
  [[nodiscard]] Event stamp(EventKind kind, MemberId member) const;
  void append(const Event& event) {
    if (options_.events != nullptr) options_.events->append(event);
  }
  void append_message(EventKind kind, const net::Message& message, SimTime t);

  Options options_;
  PhaseTimeline timeline_;
  std::vector<std::size_t> member_phase_;  ///< current phase per member

  // Per-run tallies, accumulated as plain members and written to the
  // registry once by flush(). The registry's deque-backed counters sit on
  // scattered cache lines; bouncing through five of them per message was
  // the dominant term in the obs-overhead gate.
  struct Tally {
    std::uint64_t rounds = 0;
    std::uint64_t conclusions = 0;
    std::uint64_t finishes = 0;
    std::uint64_t crashes = 0;
  };
  Tally tally_;
  std::uint64_t fanout_counts_[kFanoutBuckets] = {};
};

}  // namespace gridbox::obs
