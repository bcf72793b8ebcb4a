#include "src/net/stats.h"

namespace gridbox::net {

void fold(NetworkStats& into, const TrafficLane& lane) {
  into.messages_sent += lane.sent.load(std::memory_order_relaxed);
  into.bytes_sent += lane.bytes_sent.load(std::memory_order_relaxed);
  into.messages_dropped += lane.dropped.load(std::memory_order_relaxed);
  into.messages_duplicated += lane.duplicated.load(std::memory_order_relaxed);
  into.messages_delivered += lane.delivered.load(std::memory_order_relaxed);
  into.messages_dead_dest += lane.dead_dest.load(std::memory_order_relaxed);
  into.messages_malformed += lane.malformed.load(std::memory_order_relaxed);
}

NetworkStats fold(const TrafficLane* lanes, std::size_t count) {
  NetworkStats out;
  for (std::size_t i = 0; i < count; ++i) fold(out, lanes[i]);
  return out;
}

}  // namespace gridbox::net
