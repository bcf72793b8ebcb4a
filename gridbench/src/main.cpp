// gridbench: the GridBox benchmark binary.
//
//   gridbench --workload oneshot_n200|oneshot_n10k|service_udp_n200
//             --seed S --seconds T --trace 0|1 [--tiny] [--out-dir DIR]
//             [--rev REV]
//
// Prints the host identity, per-run noise and human-readable detail, then
// as its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"} — the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

bool parse(int argc, char** argv, gridbench::Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--rev") {
      o.rev = value;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  gridbench::Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: gridbench --workload NAME --seed S --seconds T "
                 "--trace 0|1 [--tiny] [--out-dir DIR] [--rev REV]\n");
    return 2;
  }
  std::printf("host: %s\n", gridbench::host_identity(options.rev).c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? " tiny" : "");

  // A stall becomes counted failures, never a hang: the longest run (the
  // traced N=10^4 loop) needs about 1.5 times its measuring time. Capped
  // below run.py's 170 s backstop, so the failure line always prints.
  const gridbench::Watchdog watchdog(
      std::min(160.0, 60.0 + 4.0 * options.seconds));

  gridbench::Result result;
  if (options.workload == "oneshot_n200") {
    result = gridbench::run_oneshot(options, options.tiny ? 32 : 200);
  } else if (options.workload == "oneshot_n10k") {
    result = gridbench::run_oneshot(options, options.tiny ? 256 : 10'000);
  } else if (options.workload == "service_udp_n200") {
    result = gridbench::run_service_udp(options);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  for (const gridbench::Metric& m : result.metrics) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s\n", result.to_json().c_str());
  std::fflush(stdout);
  return 0;
}
