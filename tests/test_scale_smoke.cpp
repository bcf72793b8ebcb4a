// N = 10^5 struct-of-arrays smoke: one lossless audited hier-gossip run
// three orders of magnitude past the paper's N = 200 default, proving the
// flat-state arena actually carries the scale it was built for. Everything
// stays armed: the audit registry (no double counting), the always-on
// invariant checker (any violation throws out of the run), the metrics
// gauges, and the lineage tracker — whose independently replayed
// completeness must equal the protocol's own gauge bit for bit.
#include <gtest/gtest.h>

#include "src/obs/event_log.h"
#include "src/obs/lineage.h"
#include "src/runner/experiment.h"

namespace gridbox {
namespace {

TEST(ScaleSmoke, HierGossip100kAuditAndLineageClean) {
  runner::ExperimentConfig config;
  config.group_size = 100'000;
  config.ucast_loss = 0.0;
  config.crash_probability = 0.0;
  config.audit = true;
  config.collect_metrics = true;
  config.seed = 20010701;

  obs::EventLog::Options eopt;
  eopt.replay = true;
  eopt.group_size = config.group_size;
  obs::EventLog events(eopt);
  obs::LineageTracker::Options lopt;
  lopt.group_size = config.group_size;
  obs::LineageTracker lineage(events, lopt);
  config.events = &events;
  config.lineage = &lineage;

  const runner::RunResult r = runner::run_experiment(config);

  // Audit-clean: not a single double-counted vote in ~10^5 concluding
  // merges, and every finished estimate reconstructs from its audited set.
  EXPECT_EQ(r.measurement.audit_violations, 0u);
  EXPECT_EQ(r.measurement.reconstruction_failures, 0u);

  // Lossless, crash-free: everyone survives, everyone finishes, and the
  // estimates are near-exact (the small residual is asynchronous phase
  // bumping, same as at N = 200 — see test_properties.cpp).
  EXPECT_EQ(r.measurement.survivors, config.group_size);
  EXPECT_EQ(r.measurement.finished_nodes, config.group_size);
  EXPECT_GE(r.measurement.mean_completeness, 0.995);

  // Lineage accounting: zero errors, and its replayed completeness equals
  // the run's own measurement — and the metrics gauge — exactly.
  ASSERT_TRUE(lineage.errors().empty())
      << lineage.errors().size()
      << " accounting errors, first: " << lineage.errors().front();
  const auto want_bp = static_cast<std::uint64_t>(
      r.measurement.mean_completeness * 10'000.0 + 0.5);
  EXPECT_EQ(lineage.completeness_bp(), want_bp);
  EXPECT_EQ(r.metrics.gauges.at("completeness_bp"), want_bp);
  EXPECT_EQ(lineage.finished_count(), r.measurement.finished_nodes);
}

}  // namespace
}  // namespace gridbox
