#include "src/net/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/ensure.h"
#include "src/net/datagram.h"

namespace gridbox::net {

UdpTransport::UdpTransport(Reactor& reactor, Options options)
    : reactor_(reactor), options_(options) {
  hooks_.recv = [](int fd, void* buf, std::size_t len) {
    return ::recv(fd, buf, len, 0);
  };
  hooks_.send_to = [](int fd, const void* buf, std::size_t len,
                      const sockaddr_in& to) {
    return ::sendto(fd, buf, len, 0, reinterpret_cast<const sockaddr*>(&to),
                    sizeof(to));
  };
}

UdpTransport::~UdpTransport() {
  for (std::size_t i = 0; i < locals_.size(); ++i) {
    if (locals_[i].fd >= 0) detach(MemberId(static_cast<std::uint32_t>(i)));
  }
}

sockaddr_in UdpTransport::address_of(MemberId id) const {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(
      static_cast<std::uint16_t>(options_.port_base + id.value()));
  return addr;
}

UdpTransport::LocalMember* UdpTransport::local_of(MemberId id) {
  if (id.value() >= locals_.size()) return nullptr;
  LocalMember& local = locals_[id.value()];
  return local.fd >= 0 ? &local : nullptr;
}

void UdpTransport::attach(MemberId id, Endpoint& endpoint) {
  expects(id.is_valid(), "cannot attach the invalid member id");
  expects(options_.port_base + id.value() <= 65535,
          "member id exceeds the port space above port_base");
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  expects(fd >= 0, "socket(2) failed");
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &options_.rcvbuf_bytes,
                     sizeof(options_.rcvbuf_bytes));
  const sockaddr_in addr = address_of(id);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    expects(false, "bind(2) failed: port in use or out of fds");
  }
  if (id.value() >= locals_.size()) locals_.resize(id.value() + 1);
  locals_[id.value()] = LocalMember{fd, &endpoint};
  if (static_cast<std::size_t>(fd) >= fd_owner_.size()) {
    fd_owner_.resize(static_cast<std::size_t>(fd) + 1, MemberId::invalid());
  }
  fd_owner_[static_cast<std::size_t>(fd)] = id;
  reactor_.add_fd(fd, *this);
}

void UdpTransport::detach(MemberId id) {
  LocalMember* local = local_of(id);
  if (local == nullptr) return;
  reactor_.remove_fd(local->fd);
  fd_owner_[static_cast<std::size_t>(local->fd)] = MemberId::invalid();
  ::close(local->fd);
  local->fd = -1;
  local->endpoint = nullptr;
}

void UdpTransport::set_liveness(std::function<bool(MemberId)> is_alive) {
  is_alive_ = std::move(is_alive);
}

void UdpTransport::install_chaos(std::unique_ptr<ChaosSchedule> chaos) {
  expects(chaos != nullptr, "chaos schedule required");
  expects(traffic_.sent.load(std::memory_order_relaxed) == 0,
          "install chaos before any send");
  chaos_ = std::move(chaos);
  chaos_->bind_clock([this]() { return reactor_.now(); });
}

void UdpTransport::set_hooks(Hooks hooks) {
  if (hooks.recv) hooks_.recv = std::move(hooks.recv);
  if (hooks.send_to) hooks_.send_to = std::move(hooks.send_to);
}

void UdpTransport::transmit(const Message& message) {
  const LocalMember* local = local_of(message.source);
  // Send from the source member's own socket when it is local (the normal
  // case); a transport asked to forward for a foreign source uses any open
  // socket — the header, not the kernel address, carries identity.
  int fd = local != nullptr ? local->fd : -1;
  if (fd < 0) {
    for (const LocalMember& candidate : locals_) {
      if (candidate.fd >= 0) {
        fd = candidate.fd;
        break;
      }
    }
  }
  expects(fd >= 0, "transmit with no open socket");
  std::uint8_t buffer[kMaxDatagramBytes];
  const std::size_t size = encode_datagram(message, buffer);
  const sockaddr_in to = address_of(message.destination);
  for (;;) {
    const ssize_t n = hooks_.send_to(fd, buffer, size, to);
    if (n >= 0) return;
    if (errno == EINTR) continue;
    // EAGAIN/ENOBUFS: the kernel's queues are full. That is network loss,
    // which is precisely what these protocols are designed to survive.
    bump(traffic_.dropped);
    return;
  }
}

void UdpTransport::send(Message message) {
  bump(traffic_.sent);
  bump(traffic_.bytes_sent, message.frame.size());
  if (chaos_ != nullptr) {
    ChaosDecision decision =
        chaos_->on_send(message.source, message.destination);
    if (decision.drop) {
      bump(traffic_.dropped);
      return;
    }
    if (decision.extra_delay > SimTime::zero() ||
        !decision.duplicate_delays.empty()) {
      const SimTime base = reactor_.now() + decision.extra_delay;
      for (const SimTime offset : decision.duplicate_delays) {
        bump(traffic_.duplicated);
        bump(traffic_.bytes_sent, message.frame.size());
        reactor_.schedule_at(base + offset,
                             [this, message]() { transmit(message); });
      }
      if (decision.extra_delay > SimTime::zero()) {
        reactor_.schedule_at(base, [this, message]() { transmit(message); });
        return;
      }
    }
  }
  transmit(message);
}

void UdpTransport::on_readable(int fd) {
  const MemberId owner = static_cast<std::size_t>(fd) < fd_owner_.size()
                             ? fd_owner_[static_cast<std::size_t>(fd)]
                             : MemberId::invalid();
  // Oversized datagrams must be *seen* to be rejected: the buffer holds
  // one byte more than the maximum legal datagram, so anything longer
  // reads as > kMaxDatagramBytes and fails strict decoding instead of
  // being silently truncated into a plausible prefix.
  std::uint8_t buffer[kMaxDatagramBytes + 1];
  obs::TelemetryLane& shard = reactor_.telemetry();
  std::size_t received = 0;
  for (std::size_t drained = 0; drained < options_.max_drain; ++drained) {
    const ssize_t n = hooks_.recv(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) {
        // Interrupted before a datagram was read: retry, but bounded by
        // max_drain like every other iteration — never a spin.
        bump(shard.eintr_retries);
        continue;
      }
      // EAGAIN/EWOULDBLOCK: drained (or the wakeup was spurious). Any
      // other errno on a datagram socket is also just "nothing to read".
      shard.drain_per_wake.observe(received);
      return;
    }
    ++received;
    Message message;
    const DecodeError error =
        decode_datagram(buffer, static_cast<std::size_t>(n), message);
    if (error != DecodeError::kOk ||
        (owner.is_valid() && message.destination != owner)) {
      // Byte soup, or a datagram mis-addressed to this port: count it and
      // keep the socket draining — never deliver, never crash.
      bump(traffic_.malformed);
      continue;
    }
    const LocalMember* local = local_of(message.destination);
    const bool alive = !is_alive_ || is_alive_(message.destination);
    if (local == nullptr || local->endpoint == nullptr || !alive) {
      bump(traffic_.dead_dest);
      continue;
    }
    bump(traffic_.delivered);
    try {
      local->endpoint->on_message(message);
    } catch (const PreconditionError&) {
      // Well-framed datagram, undecodable payload: same contract as the
      // simulated network — count malformed, keep the node running.
      bump(traffic_.malformed);
    }
  }
  // max_drain exhausted with the socket still hot: the reactor will wake
  // again immediately; the histogram records a full-bucket drain.
  shard.drain_per_wake.observe(received);
}

int UdpTransport::fd_of(MemberId id) const {
  if (!id.is_valid() || id.value() >= locals_.size()) return -1;
  return locals_[id.value()].fd;
}

std::size_t UdpTransport::attached_count() const {
  std::size_t count = 0;
  for (const LocalMember& local : locals_) {
    if (local.fd >= 0) ++count;
  }
  return count;
}

}  // namespace gridbox::net
