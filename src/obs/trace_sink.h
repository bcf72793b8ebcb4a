// Structured run tracing: the JSONL view of the event log.
//
// The EventLog hands every record to its TraceSink as it is appended; the
// sink formats it as one self-contained JSON object with at minimum {"t":
// <sim time in microsecond ticks>, "ev": <event name>} and writes it out,
// keeping no copy of the run. The remaining fields are integers
// identifying the actors (member ids, phases, byte counts). The stream is
// integer-only and emitted in simulation event order, so a replay of the
// same (config, seed) produces byte-identical output — the trace golden
// tests pin that property.
//
// Event vocabulary (docs/observability.md):
//   send / drop / dup / recv / dead / malformed   — transport decisions
//   enter / round / learn / conclude / finish     — gossip phase machine
//   crash                                         — membership
// "learn" is a remote gain; local, adopted and result gains write no line.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "src/obs/event_log.h"

namespace gridbox::obs {

class TraceSink {
 public:
  /// Writes to `out`, which must outlive the sink. The sink never flushes;
  /// the stream's own buffering applies.
  explicit TraceSink(std::ostream& out) : out_(&out) {}

  /// Opens `path` for writing and owns the stream. Throws PreconditionError
  /// when the file cannot be opened.
  [[nodiscard]] static std::unique_ptr<TraceSink> to_file(
      const std::string& path);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;
  virtual ~TraceSink() = default;

  /// Formats one record as a JSONL line (none for a non-remote gain).
  void write(const Event& event);

  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 protected:
  TraceSink() = default;
  void set_stream(std::ostream& out) { out_ = &out; }

 private:
  std::ostream* out_ = nullptr;
  std::uint64_t lines_ = 0;
};

}  // namespace gridbox::obs
