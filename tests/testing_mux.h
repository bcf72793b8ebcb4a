// The mux boundary's conservation laws, shared by the simulated and the
// real-socket service tests. Each envelope is counted once per layer: by
// the raw member transport that carried it, by the instance lanes that
// sent or routed it, or by the mux lanes that dropped it. Balanced, the
// layers leave no frame unaccounted for and none counted twice.
#pragma once

#include <gtest/gtest.h>

#include "src/service/service.h"

namespace gridbox::testing {

inline void expect_mux_boundary_conserves(
    const service::ServiceResult& result) {
  const net::NetworkStats& raw = result.network;
  const service::DemuxStats& demux = result.metrics.demux;
  net::NetworkStats instances;
  for (const service::InstanceResult& inst : result.instances) {
    instances.messages_sent += inst.network.messages_sent;
    instances.messages_delivered += inst.network.messages_delivered;
    instances.messages_dead_dest += inst.network.messages_dead_dest;
  }
  ASSERT_GT(raw.messages_sent, 0u);
  // Every envelope an instance sent went out through a raw transport; a
  // closed instance's sends stop at the mux and reach neither.
  EXPECT_EQ(instances.messages_sent, raw.messages_sent);
  // Every envelope a raw transport delivered met exactly one demux fate.
  EXPECT_EQ(raw.messages_delivered,
            demux.delivered + demux.malformed_envelope +
                demux.unknown_instance + demux.retired_instance +
                demux.unrouted_member);
  // Each instance's network was read after its frames settled, so the
  // instances account for every routed envelope the demux reports.
  EXPECT_EQ(instances.messages_delivered, demux.delivered);
  EXPECT_EQ(instances.messages_dead_dest, demux.unrouted_member);
}

}  // namespace gridbox::testing
