#include "src/obs/event_log.h"

#include "src/common/ensure.h"
#include "src/obs/trace_sink.h"

namespace gridbox::obs {

namespace {

constexpr std::uint16_t bit(EventKind kind) {
  return static_cast<std::uint16_t>(1u << static_cast<unsigned>(kind));
}

/// What lineage and curves replay: gains, conclusions, finishes, crashes.
constexpr std::uint16_t kReplayKinds = bit(EventKind::kGain) |
                                       bit(EventKind::kConcluded) |
                                       bit(EventKind::kFinished) |
                                       bit(EventKind::kCrash);
constexpr std::uint16_t kAllKinds = (1u << 12) - 1;

}  // namespace

const char* event_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSend:
      return "send";
    case EventKind::kDrop:
      return "drop";
    case EventKind::kDuplicate:
      return "dup";
    case EventKind::kDeliver:
      return "recv";
    case EventKind::kDeadDest:
      return "dead";
    case EventKind::kMalformed:
      return "malformed";
    case EventKind::kPhaseEntered:
      return "enter";
    case EventKind::kRound:
      return "round";
    case EventKind::kGain:
      return "gain";
    case EventKind::kConcluded:
      return "conclude";
    case EventKind::kFinished:
      return "finish";
    case EventKind::kCrash:
      return "crash";
  }
  return "?";
}

EventLog::EventLog(Options options) : trace_(options.trace) {
  if (options.flight) keep_ = kAllKinds;
  if (options.replay) {
    keep_ |= kReplayKinds;
    // resize-then-clear instead of reserve: it first-touches the pages here,
    // in setup, so the run itself never stalls on page faults for the log.
    records_.resize(options.group_size * 24);
    records_.clear();
  } else if (options.flight) {
    ring_ = true;
    records_.reserve(kFlightTail);
  }
}

void EventLog::stream(const Event& event) { trace_->write(event); }

const std::vector<Event>& EventLog::records() const {
  expects(!ring_, "event log: a ring holds only the tail of the run");
  return records_;
}

}  // namespace gridbox::obs
