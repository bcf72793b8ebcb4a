#include "layers.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness.h"
#include "src/agg/aggregate.h"
#include "src/agg/codec.h"
#include "src/common/bitset.h"
#include "src/common/rng.h"
#include "src/net/datagram.h"
#include "src/net/fault_model.h"
#include "src/net/latency_model.h"
#include "src/net/network.h"
#include "src/service/envelope.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace gridbench {

namespace {

using gridbox::MemberId;
using gridbox::SimTime;

/// Keeps results observable so the optimizer cannot drop the timed work.
volatile std::uint64_t g_sink = 0;

/// Median ns/op over five repetitions of `run(ops)`, with `ops` calibrated
/// so one repetition lasts about 20 ms.
double ns_per_op(const std::function<std::uint64_t(std::size_t)>& run) {
  std::size_t ops = 256;
  for (;;) {
    const auto t0 = Clock::now();
    g_sink = g_sink + run(ops);
    if (seconds_between(t0, Clock::now()) > 0.005 || ops > (1u << 28)) break;
    ops *= 4;
  }
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    g_sink = g_sink + run(ops * 4);
    reps.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                   static_cast<double>(ops * 4));
  }
  return median(reps);
}

gridbox::net::Frame frame_of(std::size_t bytes) {
  std::vector<std::uint8_t> payload(
      std::min(bytes, gridbox::net::kMaxPayloadBytes -
                          gridbox::service::kEnvelopeBytes));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return gridbox::net::Frame(payload);
}

/// Counts deliveries; the endpoint side of the isolated transport hop.
struct CountingEndpoint final : gridbox::net::Endpoint {
  std::uint64_t received = 0;
  void on_message(const gridbox::net::Message& message) override {
    received += message.frame.size();
  }
};

}  // namespace

double queue_push_pop_ns(std::size_t depth) {
  gridbox::sim::EventQueue queue;
  queue.reserve(depth + 1);
  gridbox::Rng rng(0x9e3779b9);
  for (std::size_t i = 0; i < depth; ++i) {
    queue.push(SimTime::micros(rng.uniform_int(0, 1'000'000)),
               gridbox::sim::TimerFire{});
  }
  return ns_per_op([&](std::size_t ops) {
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < ops; ++i) {
      gridbox::sim::Event e = queue.pop();
      seen += e.sequence;
      queue.push(e.time + SimTime::micros(rng.uniform_int(1, 20'000)),
                 gridbox::sim::TimerFire{});
    }
    return seen;
  });
}

double send_deliver_ns(std::size_t members) {
  gridbox::sim::Simulator simulator;
  gridbox::net::SimNetwork network(
      simulator, std::make_unique<gridbox::net::NoLoss>(),
      std::make_unique<gridbox::net::UniformLatency>(SimTime::micros(200),
                                                      SimTime::micros(2'000)),
      gridbox::Rng(7));
  std::vector<CountingEndpoint> endpoints(members);
  for (std::size_t m = 0; m < members; ++m) {
    network.attach(MemberId{static_cast<MemberId::underlying>(m)},
                   endpoints[m]);
  }
  gridbox::Rng rng(11);
  const gridbox::net::Frame frame = frame_of(96);
  return ns_per_op([&](std::size_t ops) {
    // Bursts of up to 4N sends, then drain: the queue depth a gossip round
    // of the whole group produces.
    const std::size_t burst = std::max<std::size_t>(64, 4 * members);
    for (std::size_t done = 0; done < ops;) {
      const std::size_t n = std::min(burst, ops - done);
      for (std::size_t i = 0; i < n; ++i) {
        gridbox::net::Message msg;
        msg.source = MemberId{static_cast<MemberId::underlying>(
            rng.uniform_int(0, members - 1))};
        msg.destination = MemberId{static_cast<MemberId::underlying>(
            rng.uniform_int(0, members - 1))};
        msg.frame = frame;
        network.send(msg);
      }
      (void)simulator.run();
      done += n;
    }
    return network.stats().messages_delivered;
  });
}

double bitset_merge_ns(std::size_t universe) {
  gridbox::MemberBitset a(universe);
  gridbox::MemberBitset b(universe);
  gridbox::Rng rng(5);
  for (std::size_t i = 0; i < universe; ++i) {
    if (rng.bernoulli(0.5)) b.set(i);
  }
  b.set(universe - 1);  // the full word range is in use
  return ns_per_op([&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) a.merge(b);
    return static_cast<std::uint64_t>(a.used_words());
  });
}

double partial_codec_ns() {
  gridbox::agg::Partial p = gridbox::agg::Partial::from_vote(21.5);
  p.merge(gridbox::agg::Partial::from_vote(17.25));
  return ns_per_op([&](std::size_t ops) {
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < ops; ++i) {
      gridbox::agg::ByteWriter w;
      gridbox::agg::write_partial(w, p);
      const gridbox::net::Frame bytes = w.take();
      gridbox::agg::ByteReader r(bytes);
      seen += gridbox::agg::read_partial(r).count();
    }
    return seen;
  });
}

double datagram_codec_ns(std::size_t frame_bytes) {
  gridbox::net::Message msg;
  msg.source = MemberId{3};
  msg.destination = MemberId{9};
  msg.frame = frame_of(frame_bytes);
  std::vector<std::uint8_t> buffer(gridbox::net::kMaxDatagramBytes);
  return ns_per_op([&](std::size_t ops) {
    std::uint64_t seen = 0;
    gridbox::net::Message out;
    for (std::size_t i = 0; i < ops; ++i) {
      const std::size_t n = gridbox::net::encode_datagram(msg, buffer.data());
      if (gridbox::net::decode_datagram(buffer.data(), n, out) ==
          gridbox::net::DecodeError::kOk) {
        seen += out.frame.size();
      }
    }
    return seen;
  });
}

double envelope_wrap_unwrap_ns(std::size_t frame_bytes) {
  const gridbox::net::Frame inner = frame_of(frame_bytes);
  return ns_per_op([&](std::size_t ops) {
    std::uint64_t seen = 0;
    std::uint32_t id = 0;
    gridbox::net::Frame out;
    for (std::size_t i = 0; i < ops; ++i) {
      const gridbox::net::Frame outer =
          gridbox::service::envelope_wrap(static_cast<std::uint32_t>(i), inner);
      if (gridbox::service::envelope_unwrap(outer, id, out) ==
          gridbox::service::EnvelopeError::kOk) {
        seen += id + out.size();
      }
    }
    return seen;
  });
}

}  // namespace gridbench
