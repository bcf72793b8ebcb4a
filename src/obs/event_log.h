// The run's event record: one typed Event per observed event, one append
// target.
//
// RunObserver stamps every transport decision, phase-machine step and crash
// once with the simulator clock and appends it here. The outputs are views
// of this one record:
//   - the JSONL trace (TraceSink) formats each record as it is appended and
//     keeps no copy of the run;
//   - the flight dump (FlightRecorder) prints the last kFlightTail records;
//   - the lineage forest (LineageTracker) replays the whole log;
//   - the epidemic curves (CurveRecorder) bucket its gain records.
//
// The log keeps only the kinds an armed view reads, in the shape it needs:
// a flat vector when lineage or curves replay the run (they read gains,
// conclusions, finishes and crashes), a bounded ring of kFlightTail records
// when only the flight dump is armed, nothing at all for a trace alone.
// Appending is a streamed write (trace armed) plus a vector push or a ring
// slot write; a full ring never touches the heap.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace gridbox::obs {

class TraceSink;

enum class EventKind : std::uint8_t {
  kSend = 0,
  kDrop = 1,
  kDuplicate = 2,
  kDeliver = 3,
  kDeadDest = 4,
  kMalformed = 5,
  kPhaseEntered = 6,
  kRound = 7,
  kGain = 8,
  kConcluded = 9,
  kFinished = 10,
  kCrash = 11,
};

/// Short name of a kind, as the flight dump prints it ("send", "gain", ...).
[[nodiscard]] const char* event_name(EventKind kind);

/// One run event. Message kinds fill (a, b, value) = (source, destination,
/// frame bytes); member kinds fill `a` with the member and the rest as the
/// kind needs: `b` the sender of a gain, `value` a gain's index or a round's
/// fanout, `aux` a gain's GainKind or a conclusion's PhaseEnd.
struct Event {
  SimTime at = SimTime::zero();
  EventKind kind = EventKind::kSend;
  std::uint8_t aux = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t phase = 0;
  std::uint32_t value = 0;
  std::uint32_t votes = 0;

  bool operator==(const Event&) const = default;
};
static_assert(sizeof(Event) == 32, "one event record is 32 bytes");

class EventLog {
 public:
  /// Records the flight dump prints, and the ring's size when the flight
  /// dump is the only view that keeps records.
  static constexpr std::size_t kFlightTail = 4096;

  /// Which outputs read the log. The kinds kept and the log's shape follow
  /// from these; they are set once, before the first append.
  struct Options {
    TraceSink* trace = nullptr;  ///< streamed JSONL view (non-owning)
    bool flight = false;         ///< a FlightRecorder reads the tail
    bool replay = false;         ///< a LineageTracker or CurveRecorder reads
    /// Pre-sizes the replay log: a member produces roughly |box| +
    /// K·(phases−1) gains plus a conclusion per phase and a finish.
    std::size_t group_size = 0;
  };

  explicit EventLog(Options options);

  void append(const Event& event) {
    if (trace_ != nullptr) stream(event);
    if ((keep_ >> static_cast<unsigned>(event.kind) & 1u) == 0) return;
    if (ring_ && records_.size() == kFlightTail) {
      records_[total_ % kFlightTail] = event;
    } else {
      records_.push_back(event);
    }
    ++total_;
  }

  /// True when records of `kind` are kept (some armed view reads them).
  [[nodiscard]] bool keeps(EventKind kind) const {
    return (keep_ >> static_cast<unsigned>(kind) & 1u) != 0;
  }
  /// True when every kept record is held (no ring): the replay views need it.
  [[nodiscard]] bool flat() const { return !ring_; }
  /// Records appended and kept, including any a ring has since overwritten.
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Records held.
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  /// The i-th held record, oldest first.
  [[nodiscard]] const Event& at(std::size_t i) const {
    const std::size_t start =
        ring_ && total_ > kFlightTail
            ? static_cast<std::size_t>(total_ % kFlightTail)
            : 0;
    return records_[(start + i) % records_.size()];
  }
  /// Every record of the run in append order (flat logs only).
  [[nodiscard]] const std::vector<Event>& records() const;

 private:
  void stream(const Event& event);

  TraceSink* trace_;
  std::uint16_t keep_ = 0;  ///< bit k set: EventKind k is kept
  bool ring_ = false;
  std::vector<Event> records_;
  std::uint64_t total_ = 0;
};

}  // namespace gridbox::obs
