// Live telemetry over real sockets (gridbox_udp_tests, ctest label `udp`,
// serial): a sharded one-shot run with the sampler armed. The closing
// record and the run's result read the same per-shard lanes, so their
// totals must agree exactly — and under TSan the sampler reads every
// shard's lanes while the other shards write them.
//
// Port discipline: this file owns the 40xxx window.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "src/obs/json.h"
#include "src/runner/udp_runtime.h"

namespace gridbox {
namespace {

TEST(UdpTelemetry, ClosingRecordTotalsMatchTheRunResult) {
  runner::UdpRunConfig config;
  config.experiment.group_size = 96;
  config.experiment.seed = 17;
  config.experiment.ucast_loss = 0.1;
  config.experiment.crash_probability = 0.005;
  config.experiment.gossip.round_duration = SimTime::millis(2);
  config.experiment.telemetry.enabled = true;
  config.experiment.telemetry.interval = SimTime::millis(5);
  std::string sink;
  config.experiment.telemetry.sink = &sink;
  config.port_base = 40000;
  config.shards = 4;

  const runner::UdpRunResult result = runner::run_udp_experiment(config);
  ASSERT_EQ(result.shards, 4u);
  // Frames to crashed members die at their destination port: the case
  // where counting deliveries alone would fall short of "frames".
  ASSERT_GT(result.network.messages_dead_dest, 0u);

  std::istringstream lines(sink);
  std::string line;
  std::string last;
  std::size_t records = 0;
  while (std::getline(lines, line)) {
    last = line;
    ++records;
  }
  EXPECT_GT(records, 1u);  // sampled mid-run, not only at the close
  const obs::JsonValue doc = obs::json_parse(last);
  EXPECT_EQ(doc.number_or("lanes", 0), 4.0);
  const obs::JsonValue* total = doc.find("total");
  ASSERT_NE(total, nullptr);
  const auto as_double = [](std::uint64_t v) { return static_cast<double>(v); };
  EXPECT_EQ(total->number_or("frames", -1),
            as_double(result.network.messages_delivered +
                      result.network.messages_dead_dest));
  EXPECT_EQ(total->number_or("polls", -1), as_double(result.polls));
  EXPECT_EQ(total->number_or("timers_fired", -1),
            as_double(result.timers_fired));
  EXPECT_EQ(total->number_or("eintr", -1), as_double(result.eintr_retries));
}

}  // namespace
}  // namespace gridbox
