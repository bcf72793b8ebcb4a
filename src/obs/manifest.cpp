#include "src/obs/manifest.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "src/obs/json.h"

namespace gridbox::obs {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string RunManifest::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("tool").value(tool);
  w.key("git_rev").value(git_rev);
  char hash_hex[24];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016" PRIx64, config_hash());
  w.key("config_hash").value(hash_hex);
  w.key("config").value(config_text);
  w.key("chaos_spec").value(chaos_spec);
  w.key("base_seed").value(base_seed);
  w.key("jobs").value(static_cast<std::uint64_t>(jobs));
  w.key("wall_s").value(wall_s);
  w.key("runs").begin_array();
  for (const RunEntry& run : runs) {
    w.begin_object();
    w.key("seed").value(run.seed);
    w.key("mean_completeness").value(run.mean_completeness);
    w.key("network_messages").value(run.network_messages);
    w.key("sim_events").value(run.sim_events);
    w.key("sim_end_us").value(run.sim_end_us);
    if (!run.timeline.empty()) {
      w.key("phases").raw(run.timeline.to_json());
    }
    if (!run.metrics.empty()) {
      w.key("metrics").raw(run.metrics.to_json());
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool RunManifest::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) return false;
  out << to_json() << '\n';
  return out.good();
}

}  // namespace gridbox::obs
