// net::Transport over real nonblocking UDP sockets on loopback.
//
// One UdpTransport serves one shard of a run's members on one Reactor
// (thread). Each attached member gets its own nonblocking datagram socket
// bound to a well-known port (port_base + member id) — addressing is pure
// arithmetic, so there is no discovery protocol and any member can unicast
// to any other, which is exactly the routing substrate the paper assumes.
// Frames travel as the strict 16-byte-header datagrams of datagram.h; a
// receiver either delivers the frame bytes unchanged or counts the
// datagram malformed.
//
// Chaos shim: the same ChaosSchedule grammar the simulator uses is applied
// in userspace on the send path — a send may be dropped, delayed (the
// datagram is re-scheduled on the reactor's timer wheel), or duplicated
// before it ever reaches sendto(2). Loss/burst/jitter/dup specs therefore
// mean the same thing over real sockets as in simulation, on top of
// whatever the kernel itself drops (full socket buffers under load are
// counted as drops too — the protocols are built for exactly that).
//
// Threading: one UdpTransport is owned by one reactor shard, and every
// call on it (send from a protocol callback, on_readable from the
// reactor, attach/detach during setup and teardown) happens on that
// shard's thread — the shard-ownership model of DESIGN.md §14. The
// transport itself takes no locks; cross-shard traffic goes through the
// kernel (a send lands in the *destination* member's socket, drained by
// the destination's shard). It counts into the shard's lanes — traffic
// into its own TrafficLane, drains and recv EINTRs into the reactor's
// telemetry lane — which other threads may read at any time (the sampler)
// and read exactly after the reactor threads have joined.
#pragma once

#include <netinet/in.h>
#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/net/chaos.h"
#include "src/net/reactor.h"
#include "src/net/stats.h"
#include "src/net/transport.h"

namespace gridbox::net {

class UdpTransport final : public Transport, public IoHandler {
 public:
  struct Options {
    /// Member m is addressed at 127.0.0.1:(port_base + m.value()).
    std::uint16_t port_base = 0;
    /// Receive buffer request per socket (the kernel clamps to rmem_max);
    /// large because hundreds of peers may burst at one socket.
    int rcvbuf_bytes = 4 << 20;
    /// Datagrams drained per on_readable call before yielding back to the
    /// reactor, so one flooded socket cannot starve timers forever.
    std::size_t max_drain = 256;
  };

  /// Injectable syscalls, for unit tests that script EINTR/EAGAIN and
  /// short reads without a kernel in the loop.
  struct Hooks {
    std::function<ssize_t(int fd, void* buf, std::size_t len)> recv;
    std::function<ssize_t(int fd, const void* buf, std::size_t len,
                          const sockaddr_in& to)>
        send_to;
  };

  /// The reactor must outlive the transport.
  UdpTransport(Reactor& reactor, Options options);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Binds a nonblocking socket for `id` and registers it with the
  /// reactor. Throws PreconditionError if the bind fails.
  void attach(MemberId id, Endpoint& endpoint) override;

  /// Closes the member's socket; datagrams already queued for it vanish
  /// with the socket (the kernel's version of dropped-on-arrival).
  void detach(MemberId id) override;

  void send(Message message) override;

  [[nodiscard]] NetworkStats stats() const override {
    return fold(&traffic_, 1);
  }

  /// This shard's traffic lane (single writer: the shard thread).
  [[nodiscard]] const TrafficLane& traffic() const { return traffic_; }

  /// Liveness oracle consulted at delivery, mirroring SimNetwork: a
  /// datagram for a dead member counts dead-destination, not delivered.
  void set_liveness(std::function<bool(MemberId)> is_alive);

  /// Installs the userspace chaos shim (see file comment). The schedule is
  /// bound to the reactor clock. Install before any send.
  void install_chaos(std::unique_ptr<ChaosSchedule> chaos);
  [[nodiscard]] const ChaosSchedule* chaos() const { return chaos_.get(); }

  void set_hooks(Hooks hooks);

  /// IoHandler: drains the readable socket; tolerates EINTR (retries,
  /// counted on the reactor's lane) and EAGAIN/spurious wakeups (returns)
  /// without spinning.
  void on_readable(int fd) override;

  /// Number of local members with an open socket.
  [[nodiscard]] std::size_t attached_count() const;

  /// The attached member's socket fd, or -1. Lets mocked-reactor tests
  /// drive on_readable with the fd the real dispatch would pass.
  [[nodiscard]] int fd_of(MemberId id) const;

 private:
  struct LocalMember {
    int fd = -1;
    Endpoint* endpoint = nullptr;
  };

  /// Encodes and sendto()s one already-chaos-approved message.
  void transmit(const Message& message);
  [[nodiscard]] sockaddr_in address_of(MemberId id) const;
  [[nodiscard]] LocalMember* local_of(MemberId id);

  Reactor& reactor_;
  Options options_;
  Hooks hooks_;
  std::vector<LocalMember> locals_;    ///< dense by member id value
  std::vector<MemberId> fd_owner_;     ///< dense by fd (loopback fds are small)
  std::function<bool(MemberId)> is_alive_;
  std::unique_ptr<ChaosSchedule> chaos_;
  TrafficLane traffic_;
};

}  // namespace gridbox::net
