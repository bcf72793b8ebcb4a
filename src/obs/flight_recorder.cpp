#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "src/common/ensure.h"

namespace gridbox::obs {

FlightRecorder::FlightRecorder(const EventLog& log, Options options)
    : log_(log), options_(std::move(options)) {
  expects(log_.keeps(EventKind::kSend),
          "flight recorder: the event log must be armed for it");
}

std::size_t FlightRecorder::kept() const {
  return std::min(log_.size(), EventLog::kFlightTail);
}

std::vector<Event> FlightRecorder::tail() const {
  std::vector<Event> out;
  out.reserve(kept());
  for (std::size_t i = log_.size() - kept(); i < log_.size(); ++i) {
    out.push_back(log_.at(i));
  }
  return out;
}

std::string FlightRecorder::dump() const {
  std::string out;
  out += "gridbox-flight/1\n";
  out += "seed " + std::to_string(options_.seed) + "\n";
  out += "events_recorded " + std::to_string(total_recorded()) + "\n";
  out += "events_kept " + std::to_string(kept()) + "\n";
  out += "--- config ---\n";
  out += options_.config_text;
  if (!options_.config_text.empty() && options_.config_text.back() != '\n') {
    out += '\n';
  }
  out += "--- chaos ---\n";
  out += options_.chaos_spec;
  if (!options_.chaos_spec.empty() && options_.chaos_spec.back() != '\n') {
    out += '\n';
  }
  out += "--- tail ---\n";

  char line[160];
  for (const Event& e : tail()) {
    const auto t = static_cast<unsigned long long>(e.at.ticks());
    const char* name = event_name(e.kind);
    switch (e.kind) {
      case EventKind::kSend:
      case EventKind::kDrop:
      case EventKind::kDuplicate:
      case EventKind::kDeliver:
      case EventKind::kDeadDest:
      case EventKind::kMalformed:
        std::snprintf(line, sizeof(line),
                      "t=%lluus %s src=%u dst=%u bytes=%u\n", t, name, e.a,
                      e.b, e.value);
        break;
      case EventKind::kPhaseEntered:
        std::snprintf(line, sizeof(line), "t=%lluus %s m=%u phase=%u\n", t,
                      name, e.a, e.phase);
        break;
      case EventKind::kRound:
        std::snprintf(line, sizeof(line),
                      "t=%lluus %s m=%u phase=%u fanout=%u\n", t, name, e.a,
                      e.phase, e.value);
        break;
      case EventKind::kGain:
        std::snprintf(line, sizeof(line),
                      "t=%lluus %s m=%u phase=%u index=%u from=%u votes=%u "
                      "kind=%u\n",
                      t, name, e.a, e.phase, e.value, e.b, e.votes, e.aux);
        break;
      case EventKind::kConcluded:
        std::snprintf(line, sizeof(line),
                      "t=%lluus %s m=%u phase=%u votes=%u how=%u\n", t, name,
                      e.a, e.phase, e.votes, e.aux);
        break;
      case EventKind::kFinished:
        std::snprintf(line, sizeof(line), "t=%lluus %s m=%u votes=%u\n", t,
                      name, e.a, e.votes);
        break;
      case EventKind::kCrash:
        std::snprintf(line, sizeof(line), "t=%lluus %s m=%u\n", t, name, e.a);
        break;
    }
    out += line;
  }
  return out;
}

bool FlightRecorder::dump_to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string text = dump();
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out);
}

}  // namespace gridbox::obs
