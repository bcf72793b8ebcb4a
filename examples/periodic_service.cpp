// A long-lived aggregation service: the paper's §2 periodic extension.
//
// §2 notes that the one-shot protocol "can be extended to one which
// periodically calculates the global aggregate", and that it may be started
// by "a multicast" instead of simultaneously at every member. The
// ServiceEngine is that extension: it launches one Hierarchical Gossiping
// instance per epoch over the same group, each aggregating fresh votes. The
// multicast start is modelled by a bounded start skew
// (GossipConfig::start_skew_max, here one gossip round): every member joins
// each instance at its own random offset within that window.
//
// 256 sensors report their MAX reading for 5 epochs over a 15%-lossy
// network.
//
//   $ ./build/examples/periodic_service
#include <cstdio>

#include "src/service/service.h"

int main() {
  using namespace gridbox;

  service::ServiceConfig config;
  runner::ExperimentConfig& experiment = config.experiment;
  experiment.group_size = 256;
  experiment.aggregate = agg::AggregateKind::kMax;
  experiment.ucast_loss = 0.15;
  experiment.crash_probability = 0.0;
  experiment.audit = true;
  experiment.seed = 4242;
  experiment.gossip.start_skew_max = experiment.gossip.round_duration;
  config.instances = 5;
  config.epoch_interval = SimTime::millis(200);
  config.max_in_flight = 2;

  const service::ServiceResult result = service::run_service_experiment(config);

  std::printf("periodic service, %zu sensors, %zu epochs, start skew <= %lld "
              "ms\n\n",
              experiment.group_size, config.instances,
              static_cast<long long>(experiment.gossip.start_skew_max.ticks() /
                                     1000));
  std::printf("%-6s %-10s %-14s %s\n", "epoch", "true max", "completeness",
              "mean abs err");
  bool clean = result.completed;
  for (const service::InstanceResult& inst : result.instances) {
    const protocols::RunMeasurement& m = inst.measurement;
    clean = clean && m.audit_violations == 0 && m.reconstruction_failures == 0;
    std::printf("%-6u %-10.4f %-14.4f %.4f\n", inst.id, m.true_value,
                m.mean_completeness, m.mean_abs_error);
  }
  std::printf("\neach epoch is a fresh one-shot instance with fresh votes; "
              "%zu/%zu completed\n",
              result.metrics.completed, result.metrics.launched);
  return clean ? 0 : 1;
}
