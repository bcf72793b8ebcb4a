// Transport-level observability hooks.
//
// A NetworkObserver receives one callback per transport decision, in the
// exact deterministic order the network makes them: accept (on_send), drop,
// duplicate scheduling, and the three delivery outcomes. Each hook fires
// at the site that bumps the matching TrafficLane counter (net/stats.h),
// and carries the message for observers that need more than a count: trace
// lines, the flight recorder, per-phase attribution. Totals are read from
// the lane's NetworkStats view; an observer never keeps a second count.
//
// The default implementation is all no-ops; a detached network pays one
// null-pointer test per event.
#pragma once

#include "src/common/types.h"
#include "src/net/message.h"

namespace gridbox::net {

class NetworkObserver {
 public:
  virtual ~NetworkObserver() = default;

  /// send() accepted the message (counted in messages_sent; fires before the
  /// drop decision, so every offered message is seen exactly once).
  virtual void on_send(const Message& message, SimTime now) {
    (void)message;
    (void)now;
  }
  /// The fault pipeline dropped the message.
  virtual void on_drop(const Message& message, SimTime now) {
    (void)message;
    (void)now;
  }
  /// Chaos scheduled one extra delivery of the message.
  virtual void on_duplicate(const Message& message, SimTime now) {
    (void)message;
    (void)now;
  }
  /// The message reached a live, attached endpoint.
  virtual void on_deliver(const Message& message, SimTime now) {
    (void)message;
    (void)now;
  }
  /// The destination was detached or crashed at delivery time.
  virtual void on_dead_destination(const Message& message, SimTime now) {
    (void)message;
    (void)now;
  }
  /// The receiver's decoder rejected the payload.
  virtual void on_malformed(const Message& message, SimTime now) {
    (void)message;
    (void)now;
  }
};

}  // namespace gridbox::net
