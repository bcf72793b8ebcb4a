// Gossip-style failure detector (the §6.2 substrate; paper reference [16]).
#include "src/protocols/fd/gossip_fd.h"

#include <gtest/gtest.h>

#include <memory>

#include "tests/testing_world.h"

namespace gridbox::protocols::fd {
namespace {

using gridbox::testing::SendsBySource;
using gridbox::testing::World;
using gridbox::testing::WorldOptions;

struct FdFleet {
  explicit FdFleet(WorldOptions options, FdConfig config = {})
      : world(options) {
    const membership::View view = world.group().full_view();
    for (const MemberId m : world.group().members()) {
      detectors.push_back(std::make_unique<GossipFailureDetector>(
          m, view, world.simulator(), world.network(),
          world.rng().derive(0xFD00 + m.value()), config));
      detectors.back()->set_liveness(
          [this](MemberId id) { return world.group().is_alive(id); });
      world.network().attach(m, *detectors.back());
    }
  }

  void start_all() {
    for (auto& d : detectors) d->start(SimTime::zero());
  }

  World world;
  std::vector<std::unique_ptr<GossipFailureDetector>> detectors;
};

TEST(FailureDetector, NoFalsePositivesInCalmLosslessNetwork) {
  WorldOptions options;
  options.group_size = 40;
  options.audit = false;
  FdFleet fleet(options);
  fleet.start_all();
  fleet.world.simulator().run_until(SimTime::seconds(3));
  for (const auto& d : fleet.detectors) {
    EXPECT_TRUE(d->suspected().empty()) << to_string(d->self());
  }
}

TEST(FailureDetector, CrashIsEventuallySuspectedByEveryone) {
  WorldOptions options;
  options.group_size = 40;
  options.audit = false;
  FdFleet fleet(options);
  fleet.start_all();
  fleet.world.simulator().schedule_at(SimTime::millis(200), [&fleet] {
    fleet.world.group().crash(MemberId{7});
  });
  fleet.world.simulator().run_until(SimTime::seconds(3));
  for (const auto& d : fleet.detectors) {
    if (d->self() == MemberId{7}) continue;
    EXPECT_TRUE(d->suspects(MemberId{7})) << to_string(d->self());
    // And only that member.
    EXPECT_EQ(d->suspected().size(), 1u) << to_string(d->self());
  }
}

TEST(FailureDetector, DetectionSurvivesHeavyLoss) {
  WorldOptions options;
  options.group_size = 40;
  options.loss = 0.4;
  options.audit = false;
  FdConfig config;
  config.fail_rounds = 40;  // more slack for the lossy network
  FdFleet fleet(options, config);
  fleet.start_all();
  fleet.world.simulator().schedule_at(SimTime::millis(200), [&fleet] {
    fleet.world.group().crash(MemberId{3});
  });
  fleet.world.simulator().run_until(SimTime::seconds(5));
  std::size_t detectors_suspecting = 0;
  std::size_t false_positives = 0;
  for (const auto& d : fleet.detectors) {
    if (d->self() == MemberId{3}) continue;
    if (d->suspects(MemberId{3})) ++detectors_suspecting;
    false_positives += d->suspected().size() - (d->suspects(MemberId{3}) ? 1 : 0);
  }
  EXPECT_EQ(detectors_suspecting, 39u);
  EXPECT_EQ(false_positives, 0u);
}

TEST(FailureDetector, AggressiveTimeoutCausesFalsePositivesUnderLoss) {
  // The accuracy/latency tension that makes "accurate failure detectors"
  // expensive (§6.2): a tight timeout plus a lossy network suspects live
  // members.
  WorldOptions options;
  options.group_size = 40;
  options.loss = 0.5;
  options.audit = false;
  FdConfig config;
  config.fail_rounds = 4;  // aggressive
  config.fanout = 1;
  FdFleet fleet(options, config);
  fleet.start_all();
  fleet.world.simulator().run_until(SimTime::seconds(2));
  std::size_t false_positives = 0;
  for (const auto& d : fleet.detectors) {
    false_positives += d->suspected().size();
  }
  EXPECT_GT(false_positives, 0u);
}

TEST(FailureDetector, RecoveredHeartbeatClearsSuspicion) {
  WorldOptions options;
  options.group_size = 20;
  options.audit = false;
  FdFleet fleet(options);
  fleet.start_all();
  fleet.world.simulator().schedule_at(SimTime::millis(100), [&fleet] {
    fleet.world.group().crash(MemberId{5});
  });
  // Suspicion must exist mid-run...
  fleet.world.simulator().run_until(SimTime::seconds(1));
  EXPECT_TRUE(fleet.detectors[0]->suspects(MemberId{5}));
  // ...then the member recovers; its detector halted, so restart it.
  fleet.world.group().recover(MemberId{5});
  fleet.detectors[5]->start(fleet.world.simulator().now());
  fleet.world.simulator().run_until(SimTime::seconds(2));
  EXPECT_FALSE(fleet.detectors[0]->suspects(MemberId{5}));
}

TEST(FailureDetector, MessageCostIsConstantPerMemberPerRound) {
  WorldOptions options;
  options.group_size = 60;
  options.audit = false;
  FdConfig config;
  config.fanout = 2;
  FdFleet fleet(options, config);
  SendsBySource sends(options.group_size);
  fleet.world.network().set_observer(&sends);
  fleet.start_all();
  fleet.world.simulator().run_until(SimTime::seconds(1));
  for (const auto& d : fleet.detectors) {
    const std::uint64_t sent = sends.of(d->self());
    EXPECT_LE(sent, d->rounds_executed() * config.fanout);
    EXPECT_GE(sent, d->rounds_executed() * config.fanout / 2);
  }
}

TEST(FailureDetector, DetectionLatencyIsBoundedByFailRoundsPlusSpread) {
  WorldOptions options;
  options.group_size = 50;
  options.audit = false;
  FdConfig config;
  config.fail_rounds = 20;
  FdFleet fleet(options, config);
  fleet.start_all();
  const SimTime crash_at = SimTime::millis(300);
  fleet.world.simulator().schedule_at(crash_at, [&fleet] {
    fleet.world.group().crash(MemberId{9});
  });
  fleet.world.simulator().run_until(SimTime::seconds(5));

  for (const auto& d : fleet.detectors) {
    if (d->self() == MemberId{9}) continue;
    const auto since = d->suspected_since(MemberId{9});
    ASSERT_TRUE(since.has_value());
    // Suspected no earlier than fail_rounds after the crash round (~30) and
    // within fail_rounds + epidemic spread slack.
    EXPECT_GE(*since, 30u + config.fail_rounds - 2);
    EXPECT_LE(*since, 30u + config.fail_rounds + 25);
  }
}

TEST(FailureDetector, StartTwiceThrows) {
  WorldOptions options;
  options.group_size = 4;
  options.audit = false;
  FdFleet fleet(options);
  fleet.detectors[0]->start(SimTime::zero());
  EXPECT_THROW(fleet.detectors[0]->start(SimTime::zero()), PreconditionError);
}

}  // namespace
}  // namespace gridbox::protocols::fd
