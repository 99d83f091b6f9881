#include "front/transport/socket_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <span>

namespace shears::front {

namespace {

constexpr timespec kNoWait{0, 0};

[[noreturn]] void throw_errno(const char* what) {
  throw TransportError(std::string("transport: ") + what + ": " +
                       std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

/// True when the calling thread may run on at least two CPUs, so a
/// spinning event loop leaves a core to the threads that feed it.
bool thread_has_spare_cpu() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (::sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return false;
  return CPU_COUNT(&cpus) >= 2;
}

}  // namespace

bool sockets_available() noexcept {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  const bool bound =
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  if (!bound) return false;
  const int ep = ::epoll_create1(0);
  if (ep < 0) return false;
  ::close(ep);
  return true;
}

bool socketpair_available() noexcept {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  ::close(fds[0]);
  ::close(fds[1]);
  const int ep = ::epoll_create1(0);
  if (ep < 0) return false;
  ::close(ep);
  return true;
}

void TransportConfig::validate() const {
  if (read_chunk == 0) {
    throw std::invalid_argument("TransportConfig: read_chunk must be > 0");
  }
  if (write_high_watermark == 0) {
    throw std::invalid_argument(
        "TransportConfig: write_high_watermark must be > 0");
  }
  if (max_connections == 0) {
    throw std::invalid_argument(
        "TransportConfig: max_connections must be > 0");
  }
}

SocketServer::SocketServer(FrontServer* server, Clock* clock,
                           TransportConfig config)
    : server_(server), clock_(clock), config_(config) {
  config_.validate();
  read_buf_.resize(config_.read_chunk);
}

SocketServer::~SocketServer() {
  for (Peer& peer : peers_) {
    if (peer.open) ::close(peer.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void SocketServer::ensure_open() {
  if (epoll_fd_ >= 0) return;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) throw_errno("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(wakeup)");
  }
}

std::uint16_t SocketServer::listen() {
  ensure_open();
  if (listen_fd_ >= 0) return port_;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("bind(127.0.0.1)");
  }
  if (::listen(fd, config_.backlog) < 0) {
    ::close(fd);
    throw_errno("listen");
  }
  set_nonblocking(fd);
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    throw_errno("epoll_ctl(listener)");
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return port_;
}

SocketServer::Peer& SocketServer::peer_of(int fd) {
  if (peers_.size() <= static_cast<std::size_t>(fd)) {
    peers_.resize(static_cast<std::size_t>(fd) + 1);
  }
  return peers_[static_cast<std::size_t>(fd)];
}

ConnId SocketServer::register_peer(int fd, std::uint64_t client_id) {
  set_nonblocking(fd);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    throw_errno("epoll_ctl(peer)");
  }
  Peer& peer = peer_of(fd);
  peer = Peer{};
  peer.fd = fd;
  peer.conn = server_->connect(client_id);
  peer.open = true;
  peer.last_read_us = clock_->now();
  open_connections_ += 1;
  return peer.conn;
}

ConnId SocketServer::adopt(int fd, std::uint64_t client_id) {
  ensure_open();
  stats_.adopted += 1;
  return register_peer(fd, client_id);
}

void SocketServer::accept_ready() {
  while (listen_fd_ >= 0) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw_errno("accept4");
    }
    if (open_connections_ >= config_.max_connections) {
      // At capacity: reject at the door instead of degrading everyone.
      stats_.accept_overflow += 1;
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    stats_.accepted += 1;
    (void)register_peer(fd, next_client_id_++);
  }
}

void SocketServer::read_ready(int fd) {
  Peer& peer = peer_of(fd);
  if (!peer.open) return;
  // Edge-triggered: drain the socket completely or the event is lost.
  while (true) {
    const ssize_t n = ::read(fd, read_buf_.data(), read_buf_.size());
    if (n > 0) {
      const SimTime now = clock_->now();
      peer.last_read_us = now;
      stats_.bytes_in += static_cast<std::uint64_t>(n);
      // Decode + admission only: batch formation belongs to the clock
      // (pump_session), never to TCP segmentation.
      server_->ingest(
          peer.conn,
          std::span<const std::uint8_t>(read_buf_.data(),
                                        static_cast<std::size_t>(n)),
          now);
      continue;
    }
    if (n == 0) {
      close_peer(fd, &TransportStats::closed_by_peer);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    // ECONNRESET and friends: the abrupt-RST path. One connection dies;
    // the server does not.
    close_peer(fd, &TransportStats::reset_by_peer);
    return;
  }
}

void SocketServer::flush_peer(int fd) {
  Peer& peer = peer_of(fd);
  if (!peer.open) return;
  while (peer.out_pos < peer.outbox.size()) {
    const ssize_t n =
        ::send(fd, peer.outbox.data() + peer.out_pos,
               peer.outbox.size() - peer.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      peer.out_pos += static_cast<std::size_t>(n);
      stats_.bytes_out += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      stats_.partial_writes += 1;
      if (!peer.want_write) {
        peer.want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLRDHUP | EPOLLOUT | EPOLLET;
        ev.data.fd = fd;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
          throw_errno("epoll_ctl(+EPOLLOUT)");
        }
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_peer(fd, &TransportStats::reset_by_peer);
    return;
  }
  peer.outbox.clear();
  peer.out_pos = 0;
  if (peer.want_write) {
    peer.want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
      throw_errno("epoll_ctl(-EPOLLOUT)");
    }
  }
}

void SocketServer::enqueue_output(int fd, std::vector<std::uint8_t>&& bytes) {
  Peer& peer = peer_of(fd);
  if (!peer.open) return;
  if (peer.outbox.empty()) {
    peer.outbox = std::move(bytes);
    peer.out_pos = 0;
  } else {
    peer.outbox.insert(peer.outbox.end(), bytes.begin(), bytes.end());
  }
  flush_peer(fd);
  if (peer.open &&
      peer.outbox.size() - peer.out_pos > config_.write_high_watermark) {
    // Backpressure boundary: a peer that will not read its responses
    // does not get to grow our memory. Shed it.
    close_peer(fd, &TransportStats::shed_highwater);
  }
}

void SocketServer::close_peer(int fd, std::uint64_t TransportStats::*cause) {
  Peer& peer = peer_of(fd);
  if (!peer.open) return;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  peer.open = false;
  peer.outbox.clear();
  peer.out_pos = 0;
  server_->disconnect(peer.conn);
  open_connections_ -= 1;
  stats_.closed += 1;
  if (cause != nullptr) stats_.*cause += 1;
}

void SocketServer::close_listener() {
  if (listen_fd_ < 0) return;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void SocketServer::sweep_idle(SimTime now) {
  if (config_.idle_timeout_us == 0) return;
  for (Peer& peer : peers_) {
    if (!peer.open) continue;
    if (now - peer.last_read_us >= config_.idle_timeout_us) {
      close_peer(peer.fd, &TransportStats::idle_closed);
    }
  }
}

void SocketServer::pump_session() {
  server_->run_until(clock_->now(), clock_);
  // Read the clock again: on wall time a batch run above completes after
  // the first reading, and its frames go out in this same pump.
  const SimTime now = clock_->now();
  for (Peer& peer : peers_) {
    if (!peer.open) continue;
    std::vector<std::uint8_t> bytes = server_->take_output(peer.conn, now);
    if (bytes.empty()) {
      // A flush may still be owed from a previous EAGAIN.
      if (peer.out_pos < peer.outbox.size()) flush_peer(peer.fd);
      continue;
    }
    enqueue_output(peer.fd, std::move(bytes));
  }
}

bool SocketServer::drained() const {
  if (!server_->drained()) return false;
  for (const Peer& peer : peers_) {
    if (peer.open && peer.out_pos < peer.outbox.size()) return false;
  }
  return true;
}

SimTime SocketServer::wait_us(SimTime max_wait_us) {
  SimTime wait = max_wait_us;
  const SimTime now = clock_->now();
  if (config_.auto_pump) {
    if (const auto at = server_->next_activity(); at.has_value()) {
      wait = std::min(wait, *at > now ? *at - now : 0);
    }
  }
  if (config_.idle_timeout_us != 0) {
    for (const Peer& peer : peers_) {
      if (!peer.open) continue;
      const SimTime deadline = peer.last_read_us + config_.idle_timeout_us;
      wait = std::min(wait, deadline > now ? deadline - now : 0);
    }
  }
  return std::min<SimTime>(wait, 60'000'000);
}

int SocketServer::wait_events(std::span<epoll_event> events, SimTime wait) {
  using SteadyClock = std::chrono::steady_clock;
  const int max_events = static_cast<int>(events.size());
  auto now = SteadyClock::now();
  const auto deadline =
      now + std::chrono::microseconds(static_cast<std::int64_t>(wait));
  if (open_connections_ > 0 && now - last_event_ < kBusyPollWindow &&
      thread_has_spare_cpu()) {
    // Spin no longer than the window: a client gone quiet costs the core
    // for kBusyPollWindow, then the rest of the wait is slept.
    const auto spin_end = std::min(deadline, last_event_ + kBusyPollWindow);
    while (true) {
      const int n = ::epoll_pwait2(epoll_fd_, events.data(), max_events,
                                   &kNoWait, nullptr);
      if (n != 0) return n;
      stats_.busy_polls += 1;
      now = SteadyClock::now();
      if (now >= spin_end) break;
      ::sched_yield();
    }
    if (now >= deadline) return 0;
  }
  stats_.blocking_waits += 1;
  const auto left =
      std::chrono::duration_cast<std::chrono::microseconds>(deadline - now)
          .count();
  const timespec timeout{static_cast<time_t>(left / 1'000'000),
                         static_cast<long>(left % 1'000'000) * 1'000};
  return ::epoll_pwait2(epoll_fd_, events.data(), max_events, &timeout,
                        nullptr);
}

int SocketServer::poll(SimTime max_wait_us) {
  ensure_open();
  if (drain_requested_.load(std::memory_order_acquire)) close_listener();

  epoll_event events[64];
  int n = wait_events(events, wait_us(max_wait_us));
  if (n < 0) {
    if (errno != EINTR) throw_errno("epoll_pwait2");
    n = 0;
  }
  if (n > 0) last_event_ = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      std::uint64_t tickets = 0;
      (void)!::read(wake_fd_, &tickets, sizeof(tickets));
      continue;
    }
    if (fd == listen_fd_) {
      accept_ready();
      continue;
    }
    if ((events[i].events & EPOLLOUT) != 0) flush_peer(fd);
    if ((events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) !=
        0) {
      read_ready(fd);
    }
  }

  sweep_idle(clock_->now());
  if (config_.auto_pump) pump_session();

  if (drain_requested_.load(std::memory_order_acquire) && drained()) {
    // Everything owed has been flushed: finish the drain by closing the
    // (now quiescent) connections cleanly.
    for (Peer& peer : peers_) {
      if (peer.open) close_peer(peer.fd, nullptr);
    }
  }
  return n;
}

void SocketServer::run() {
  ensure_open();
  while (true) {
    (void)poll(100'000);
    if (stop_requested_.load(std::memory_order_acquire)) break;
    if (drain_requested_.load(std::memory_order_acquire) &&
        open_connections_ == 0 && drained()) {
      break;
    }
  }
}

void SocketServer::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

void SocketServer::request_drain() {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

}  // namespace shears::front
