#include "src/obs/trace_sink.h"

#include <fstream>

#include "src/common/ensure.h"
#include "src/protocols/gossip/trace.h"

namespace gridbox::obs {

namespace {

/// TraceSink that owns its file stream.
class FileTraceSink final : public TraceSink {
 public:
  explicit FileTraceSink(const std::string& path)
      : file_(path, std::ios::binary) {
    expects(file_.good(), "trace sink: cannot open " + path);
    set_stream(file_);
  }

 private:
  std::ofstream file_;
};

const char* how_name(std::uint8_t how) {
  using protocols::gossip::PhaseEnd;
  switch (static_cast<PhaseEnd>(how)) {
    case PhaseEnd::kTimeout:
      return "timeout";
    case PhaseEnd::kSaturated:
      return "saturated";
    case PhaseEnd::kAdopted:
      return "adopted";
  }
  return "?";
}

void field(std::string& line, const char* key, std::uint32_t value) {
  line += ",\"";
  line += key;
  line += "\":";
  line += std::to_string(value);
}

}  // namespace

std::unique_ptr<TraceSink> TraceSink::to_file(const std::string& path) {
  return std::make_unique<FileTraceSink>(path);
}

void TraceSink::write(const Event& e) {
  const bool gain = e.kind == EventKind::kGain;
  if (gain && e.aux != static_cast<std::uint8_t>(
                           protocols::gossip::GainKind::kRemote)) {
    return;
  }
  expects(out_ != nullptr, "trace sink has no stream");
  std::string line = "{\"t\":";
  line += std::to_string(e.at.ticks());
  line += ",\"ev\":\"";
  line += gain ? "learn" : event_name(e.kind);
  line += '"';
  switch (e.kind) {
    case EventKind::kSend:
    case EventKind::kDrop:
    case EventKind::kDuplicate:
    case EventKind::kDeliver:
    case EventKind::kDeadDest:
    case EventKind::kMalformed:
      field(line, "src", e.a);
      field(line, "dst", e.b);
      field(line, "bytes", e.value);
      break;
    case EventKind::kPhaseEntered:
      field(line, "m", e.a);
      field(line, "phase", e.phase);
      break;
    case EventKind::kRound:
      field(line, "m", e.a);
      field(line, "phase", e.phase);
      field(line, "fanout", e.value);
      break;
    case EventKind::kGain:
      field(line, "m", e.a);
      field(line, "phase", e.phase);
      field(line, "index", e.value);
      break;
    case EventKind::kConcluded:
      field(line, "m", e.a);
      field(line, "phase", e.phase);
      field(line, "votes", e.votes);
      line += ",\"how\":\"";
      line += how_name(e.aux);
      line += '"';
      break;
    case EventKind::kFinished:
      field(line, "m", e.a);
      field(line, "votes", e.votes);
      break;
    case EventKind::kCrash:
      field(line, "m", e.a);
      break;
  }
  line += "}\n";
  *out_ << line;
  ++lines_;
}

}  // namespace gridbox::obs
