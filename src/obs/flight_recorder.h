// Flight recorder: the event log's tail, dumped when a run dies.
//
// Unlike the JSONL trace (which streams everything and is too heavy to
// leave on in big sweeps), the flight recorder reads only the last
// EventLog::kFlightTail records of the run's log — a fixed ring when it is
// the only view keeping records, the tail of the flat log when lineage or
// curves are armed too. It is meant to be armed on runs that might die:
// when an invariant trips, the runner dumps a postmortem — the replay
// recipe (canonical config text, chaos spec, seed) plus the event tail
// leading up to the failure — so "what was the network doing right before
// member M violated the phase monotone?" has an answer without re-running.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/event_log.h"

namespace gridbox::obs {

class FlightRecorder {
 public:
  /// Replay recipe, embedded verbatim in every dump.
  struct Options {
    std::string config_text;
    std::string chaos_spec;
    std::uint64_t seed = 0;
  };

  /// `log` must be armed with flight = true and outlive the recorder.
  FlightRecorder(const EventLog& log, Options options);

  [[nodiscard]] std::uint64_t total_recorded() const { return log_.total(); }
  /// Records in the tail: at most EventLog::kFlightTail.
  [[nodiscard]] std::size_t kept() const;
  /// The tail, oldest record first.
  [[nodiscard]] std::vector<Event> tail() const;

  /// The postmortem document ("gridbox-flight/1"): replay recipe + tail,
  /// oldest event first.
  [[nodiscard]] std::string dump() const;

  /// dump() to a file; returns false (and leaves no partial file behind on
  /// open failure) when the path cannot be written.
  [[nodiscard]] bool dump_to_file(const std::string& path) const;

 private:
  const EventLog& log_;
  Options options_;
};

}  // namespace gridbox::obs
