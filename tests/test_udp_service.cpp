// Real-socket service gate (ctest labels udp + service, serial): a
// 64-instance pipelined service run over loopback UDP under chaos loss and
// scripted churn, cross-checked per instance against the simulator — every
// instance must be audit-clean, reconstructing, invariant-clean, and
// bit-equal on ground truth across the two substrates, with every envelope
// balanced across the raw transports, the instances and the mux. Also the
// one-shot UDP runner's churn rejection and both runners' port-space check
// (validated before any socket binds).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/ensure.h"
#include "src/runner/udp_runtime.h"
#include "src/service/udp_service.h"
#include "tests/testing_mux.h"

namespace gridbox {
namespace {

TEST(UdpService, OneShotUdpRunnerRejectsChurnSpecs) {
  runner::UdpRunConfig config;
  config.experiment.group_size = 16;
  config.experiment.chaos_spec = "join M1 at=5ms\n";
  EXPECT_THROW((void)runner::run_udp_experiment(config), PreconditionError);
}

// Both runners reject a group that overruns the port space up front — the
// runner's own message, not UdpTransport::attach's after some members bound.
template <typename Run>
void expect_port_space_rejected(const Run& run) {
  try {
    run();
    ADD_FAILURE() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("port space: port_base + n - 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(UdpService, BothUdpRunnersRejectGroupsBeyondThePortSpace) {
  for (const auto& [n, port_base] :
       std::vector<std::pair<std::size_t, std::uint16_t>>{
           {SIZE_MAX, 38000}, {200, 65500}}) {
    runner::UdpRunConfig oneshot;
    oneshot.experiment.group_size = n;
    oneshot.port_base = port_base;
    expect_port_space_rejected(
        [&] { (void)runner::run_udp_experiment(oneshot); });
    service::UdpServiceConfig stream;
    stream.service.experiment.group_size = n;
    stream.port_base = port_base;
    expect_port_space_rejected(
        [&] { (void)service::run_udp_service(stream); });
  }
}

TEST(UdpService, SixtyFourInstanceDifferentialUnderLossAndChurn) {
  service::UdpServiceConfig config;
  config.service.experiment.group_size = 32;
  config.service.experiment.seed = 21;
  config.service.experiment.ucast_loss = 0.0;  // loss scripted below
  config.service.experiment.crash_probability = 0.0;
  config.service.experiment.gossip.round_duration = SimTime::millis(2);
  config.service.experiment.chaos_spec =
      "loss 0.05\ncrash M3 at=30ms\njoin M5 at=40ms\nrecover M3 at=80ms\n";
  config.service.instances = 64;
  config.service.epoch_interval = SimTime::millis(5);
  // Window 8 gives the stream headroom: a deferred launch fires when a
  // slot frees, which is sim-timed on one substrate and wall-timed on the
  // other, so a saturated window could legitimately shift a cohort
  // (docs/service.md). Deferral is therefore NOT asserted to be zero below
  // — on a loaded host the wall clock can outrun the window anyway — the
  // pipelining proof is the windowed-overlap count, and the per-instance
  // ground-truth bit-equality stays strict either way.
  config.service.max_in_flight = 8;
  config.port_base = 42000;

  const service::ServiceDifferentialReport report =
      service::run_service_differential(config);
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.sim.metrics.completed, 64u);
  EXPECT_EQ(report.udp.result.metrics.completed, 64u);
  EXPECT_EQ(report.rows.size(), 64u);

  // The stream genuinely pipelined: an instance takes several times the
  // launch cadence, so successive epochs overlapped in flight. Proven by
  // counting windowed overlaps — consecutive instances whose lifetimes
  // [launched_at, completed_at) intersect — rather than by asserting the
  // window never filled: deferral depends on wall-clock completion speed,
  // which a loaded CI host legitimately varies.
  EXPECT_GT(report.udp.result.metrics.p50_completion,
            config.service.epoch_interval);
  std::size_t overlapped = 0;
  const std::vector<service::InstanceResult>& rows =
      report.udp.result.instances;
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    if (rows[i + 1].launched_at < rows[i].completed_at) ++overlapped;
  }
  EXPECT_GT(overlapped, rows.size() / 2)
      << "only " << overlapped << " of " << rows.size() - 1
      << " consecutive instance pairs overlapped in flight";
  EXPECT_GT(report.udp.result.metrics.instances_per_sec, 0.0);
  // One socket set served the whole stream; the demux rejected nothing a
  // healthy run should deliver.
  EXPECT_GT(report.udp.result.metrics.demux.delivered, 0u);
  EXPECT_EQ(report.udp.result.metrics.demux.malformed_envelope, 0u);
  EXPECT_EQ(report.udp.result.metrics.demux.unknown_instance, 0u);
  // Every envelope balances across the layers on both substrates.
  testing::expect_mux_boundary_conserves(report.sim);
  testing::expect_mux_boundary_conserves(report.udp.result);
}

}  // namespace
}  // namespace gridbox
