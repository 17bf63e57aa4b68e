#include "live/tcp_bulk.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "util/log.h"

namespace mocha::live {
namespace {

constexpr const char* kLogComponent = "tcp-bulk";
constexpr std::uint32_t kTcpBulkMagic = 0x3142544dU;  // "MTB1"
constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 2 + 4;
constexpr std::int64_t kDrainPollUs = 5'000;

util::Status unavailable(const std::string& why) {
  return util::Status(util::StatusCode::kUnavailable, "tcp-bulk: " + why);
}

}  // namespace

TcpBulkChannel::TcpBulkChannel(Endpoint& endpoint, Deliver deliver,
                               TcpBulkOptions opts)
    : endpoint_(endpoint),
      reactor_(endpoint.reactor()),
      deliver_(std::move(deliver)),
      opts_(opts) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "tcp-bulk socket");
  }
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in bind_addr{};
  bind_addr.sin_family = AF_INET;
  bind_addr.sin_addr.s_addr = htonl(INADDR_ANY);
  bind_addr.sin_port = 0;
  // MOCHA_RAW_WIRE_OK: sockaddr cast is kernel ABI, not wire payload.
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&bind_addr),
             sizeof(bind_addr)) != 0 ||
      ::listen(listen_fd_, opts_.listen_backlog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::system_error(err, std::generic_category(), "tcp-bulk listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  // MOCHA_RAW_WIRE_OK: sockaddr cast is kernel ABI, not wire payload.
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    tcp_port_ = ntohs(bound.sin_port);
  }

  const std::string prefix =
      "bulk.tcp." + std::to_string(endpoint.node()) + ".";
  MetricsRegistry& registry = MetricsRegistry::global();
  tm_sent_ = registry.counter(prefix + "sent");
  tm_received_ = registry.counter(prefix + "received");
  tm_failures_ = registry.counter(prefix + "failures");
  tm_repairs_ = registry.counter(prefix + "repairs");

  endpoint_.run_on_loop([this] {
    reactor_.watch_fd(listen_fd_, EPOLLIN,
                      [this](std::uint32_t) { accept_ready(); });
  });
}

TcpBulkChannel::~TcpBulkChannel() {
  endpoint_.run_on_loop([this] {
    close_all(util::Status(util::StatusCode::kShutdown,
                           "tcp-bulk: channel shutting down"));
    for (auto& [fd, in] : inbound_) {
      reactor_.unwatch_fd(fd);
      ::close(fd);
    }
    inbound_.clear();
    reactor_.unwatch_fd(listen_fd_);
  });
  ::close(listen_fd_);
}

TcpBulkChannel::Stats TcpBulkChannel::stats() const {
  Stats s;
  s.bundles_sent = sent_.load(std::memory_order_relaxed);
  s.bundles_received = received_.load(std::memory_order_relaxed);
  s.send_failures = failures_.load(std::memory_order_relaxed);
  s.repairs = repairs_.load(std::memory_order_relaxed);
  return s;
}

void TcpBulkChannel::send_bundle(net::NodeId dst, std::uint16_t contact,
                                 net::Port port, util::Buffer payload,
                                 std::int64_t timeout_us, Done done) {
  OutFrame frame;
  frame.id = next_frame_id_++;
  frame.payload = std::move(payload);
  frame.done = std::move(done);
  util::Status error;
  Conn* conn = draining_ ? nullptr : ensure_conn(dst, contact, &error);
  if (conn == nullptr) {
    finish_frame(frame, draining_ ? unavailable("channel draining")
                                  : std::move(error));
    return;
  }
  util::WireWriter header(frame.header);
  header.u32(kTcpBulkMagic);
  header.u32(endpoint_.node());
  header.u16(port);
  header.u32(static_cast<std::uint32_t>(frame.payload.size()));
  const std::uint64_t id = frame.id;
  frame.deadline_timer = reactor_.call_after(
      timeout_us, [this, dst, id] { frame_deadline(dst, id); });
  conn->queue.push_back(std::move(frame));
  queued_frames_.fetch_add(1, std::memory_order_relaxed);
  lru_.erase(conn->lru_it);
  lru_.push_front(dst);
  conn->lru_it = lru_.begin();
  if (conn->connected) flush_conn(*conn);
  update_conn_watch(dst);
}

void TcpBulkChannel::finish_frame(OutFrame& frame, util::Status status) {
  reactor_.cancel(frame.deadline_timer);
  if (status.is_ok()) {
    sent_.fetch_add(1, std::memory_order_relaxed);
    tm_sent_->add();
    frame.payload.clear();
  } else {
    failures_.fetch_add(1, std::memory_order_relaxed);
    tm_failures_->add();
  }
  frame.done(std::move(status), std::move(frame.payload));
}

TcpBulkChannel::Conn* TcpBulkChannel::ensure_conn(net::NodeId dst,
                                                  std::uint16_t contact,
                                                  util::Status* error) {
  const auto it = conns_.find(dst);
  if (it != conns_.end()) return it->second.get();

  const auto addr = endpoint_.peer_addr(dst);
  if (!addr.has_value() || addr->ipv4 == 0) {
    *error = unavailable("no address for node " + std::to_string(dst));
    return nullptr;
  }
  if (contact == 0) {
    *error = unavailable("node " + std::to_string(dst) +
                         " advertised no tcp contact port");
    return nullptr;
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = unavailable(std::string("socket: ") + std::strerror(errno));
    return nullptr;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (opts_.send_buffer_bytes > 0) {
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.send_buffer_bytes,
                       sizeof(opts_.send_buffer_bytes));
  }
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = addr->ipv4;  // already network byte order
  to.sin_port = htons(contact);
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->peer = dst;
  // MOCHA_REACTOR_SAFE: SOCK_NONBLOCK fd — connect returns EINPROGRESS.
  // MOCHA_RAW_WIRE_OK: sockaddr cast is kernel ABI, not wire payload.
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  if (rc == 0) {
    conn->connected = true;
  } else if (errno == EINPROGRESS) {
    conn->connect_timer = reactor_.call_after(
        opts_.connect_timeout_us, [this, dst] {
          fail_conn(dst, util::Status(util::StatusCode::kTimeout,
                                      "tcp-bulk: connect to node " +
                                          std::to_string(dst) + " timed out"));
        });
  } else {
    *error = unavailable("connect to node " + std::to_string(dst) + ": " +
                         std::strerror(errno));
    ::close(fd);
    return nullptr;
  }
  lru_.push_front(dst);
  conn->lru_it = lru_.begin();
  Conn* raw = conn.get();
  conns_[dst] = std::move(conn);
  update_conn_watch(dst);
  evict_idle_over_cap();
  cached_conns_.store(conns_.size(), std::memory_order_relaxed);
  return raw;
}

void TcpBulkChannel::conn_event(net::NodeId dst, std::uint32_t events) {
  const auto it = conns_.find(dst);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  if (!conn.connected) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
      err = errno;
    }
    if (err != 0) {
      fail_conn(dst, unavailable("connect to node " + std::to_string(dst) +
                                 ": " + std::strerror(err)));
      return;
    }
    conn.connected = true;
    reactor_.cancel(conn.connect_timer);
    conn.connect_timer = Reactor::kInvalidTimer;
  } else if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    fail_conn(dst, unavailable("connection to node " + std::to_string(dst) +
                               " reset"));
    return;
  }
  if ((events & EPOLLIN) != 0) {
    // Outbound streams are one-way; readable means FIN/reset (or protocol
    // garbage, which gets the same treatment).
    std::uint8_t scratch[256];
    const ssize_t got = ::recv(conn.fd, scratch, sizeof(scratch), 0);
    if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
      fail_conn(dst, unavailable("node " + std::to_string(dst) +
                                 " closed the bulk stream"));
      return;
    }
  }
  flush_conn(conn);
  update_conn_watch(dst);
}

void TcpBulkChannel::flush_conn(Conn& conn) {
  while (!conn.queue.empty()) {
    OutFrame& frame = conn.queue.front();
    const std::size_t header_size = frame.header.size();
    iovec iov[2];
    int iov_count = 0;
    if (frame.sent < header_size) {
      iov[iov_count++] = {frame.header.data() + frame.sent,
                          header_size - frame.sent};
    }
    const std::size_t body_sent =
        frame.sent > header_size ? frame.sent - header_size : 0;
    if (body_sent < frame.payload.size()) {
      iov[iov_count++] = {frame.payload.data() + body_sent,
                          frame.payload.size() - body_sent};
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iov_count);
    const ssize_t wrote =
        iov_count == 0 ? 0 : ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (wrote >= 0) {
      frame.sent += static_cast<std::size_t>(wrote);
      if (frame.sent == header_size + frame.payload.size()) {
        OutFrame written = std::move(frame);
        conn.queue.pop_front();
        queued_frames_.fetch_sub(1, std::memory_order_relaxed);
        finish_frame(written, util::Status::ok());
      }
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    fail_conn(conn.peer, unavailable("write to node " +
                                     std::to_string(conn.peer) + ": " +
                                     std::strerror(errno)));
    return;
  }
}

void TcpBulkChannel::update_conn_watch(net::NodeId dst) {
  // flush_conn may have torn the connection down on a hard write error.
  const auto it = conns_.find(dst);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  const std::uint32_t events =
      (!conn.connected || !conn.queue.empty()) ? (EPOLLIN | EPOLLOUT)
                                               : EPOLLIN;
  if (events == conn.watched) return;
  conn.watched = events;
  reactor_.watch_fd(conn.fd, events, [this, dst](std::uint32_t ev) {
    conn_event(dst, ev);
  });
}

void TcpBulkChannel::frame_deadline(net::NodeId dst, std::uint64_t frame_id) {
  const auto it = conns_.find(dst);
  if (it == conns_.end()) return;
  for (const OutFrame& frame : it->second->queue) {
    if (frame.id != frame_id) continue;
    // The frame may be half-written, so the stream is unusable: drop the
    // connection along with whatever is queued behind it.
    fail_conn(dst, util::Status(util::StatusCode::kTimeout,
                                "tcp-bulk: bundle write to node " +
                                    std::to_string(dst) + " timed out"));
    return;
  }
}

void TcpBulkChannel::fail_conn(net::NodeId dst, const util::Status& status) {
  const auto it = conns_.find(dst);
  if (it == conns_.end()) return;
  // Detach first: the callbacks below may re-route their bundles.
  std::unique_ptr<Conn> conn = std::move(it->second);
  conns_.erase(it);
  lru_.erase(conn->lru_it);
  cached_conns_.store(conns_.size(), std::memory_order_relaxed);
  MOCHA_DEBUG(kLogComponent) << status.to_string();
  reactor_.cancel(conn->connect_timer);
  reactor_.unwatch_fd(conn->fd);
  ::close(conn->fd);
  if (conn->connected) {
    repairs_.fetch_add(1, std::memory_order_relaxed);
    tm_repairs_->add();
  }
  queued_frames_.fetch_sub(conn->queue.size(), std::memory_order_relaxed);
  for (OutFrame& frame : conn->queue) finish_frame(frame, status);
}

void TcpBulkChannel::evict_idle_over_cap() {
  while (conns_.size() > opts_.max_cached_connections) {
    // Walk from the LRU tail; only idle connections are evictable, and the
    // MRU entry never is — it is the connection the caller just created or
    // touched, whose frame is enqueued only after ensure_conn returns.
    net::NodeId victim = net::kInvalidNode;
    for (auto lru_it = lru_.rbegin();
         lru_it != lru_.rend() && *lru_it != lru_.front(); ++lru_it) {
      if (conns_.at(*lru_it)->queue.empty()) {
        victim = *lru_it;
        break;
      }
    }
    if (victim == net::kInvalidNode) break;  // every entry busy: run hot
    close_conn(victim, unavailable("evicted"));
  }
}

void TcpBulkChannel::close_conn(net::NodeId dst, const util::Status& status) {
  Conn& conn = *conns_.at(dst);
  // FIN first so the peer's reader sees a clean EOF; the kernel keeps
  // pushing any unsent tail after close().
  (void)::shutdown(conn.fd, SHUT_WR);
  conn.connected = false;  // an orderly close is not a lost connection
  fail_conn(dst, status);
}

void TcpBulkChannel::close_all(const util::Status& status) {
  while (!conns_.empty()) close_conn(conns_.begin()->first, status);
}

bool TcpBulkChannel::drain(std::int64_t timeout_us) {
  const std::int64_t deadline = Clock::monotonic().now_us() + timeout_us;
  endpoint_.run_on_loop([this] { draining_ = true; });
  while (queued_frames_.load(std::memory_order_relaxed) > 0 &&
         Clock::monotonic().now_us() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(kDrainPollUs));
  }
  const bool flushed = queued_frames_.load(std::memory_order_relaxed) == 0;
  endpoint_.run_on_loop([this] {
    close_all(util::Status(util::StatusCode::kShutdown,
                           "tcp-bulk: drained before the bundle flushed"));
  });
  return flushed;
}

void TcpBulkChannel::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll re-arms us
    auto in = std::make_unique<Inbound>();
    in->fd = fd;
    inbound_[fd] = std::move(in);
    reactor_.watch_fd(fd, EPOLLIN, [this, fd](std::uint32_t events) {
      inbound_event(fd, events);
    });
  }
}

void TcpBulkChannel::close_inbound(int fd) {
  reactor_.unwatch_fd(fd);
  ::close(fd);
  inbound_.erase(fd);
}

void TcpBulkChannel::inbound_event(int fd, std::uint32_t events) {
  const auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  Inbound& in = *it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 && (events & EPOLLIN) == 0) {
    close_inbound(fd);
    return;
  }
  while (true) {
    std::uint8_t* into = nullptr;
    std::size_t want = 0;
    if (in.in_payload) {
      into = in.payload.data() + in.payload_have;
      want = in.payload.size() - in.payload_have;
    } else {
      into = in.header + in.header_have;
      want = kFrameHeaderBytes - in.header_have;
    }
    const ssize_t got = ::recv(fd, into, want, 0);
    if (got > 0) {
      const auto n = static_cast<std::size_t>(got);
      (in.in_payload ? in.payload_have : in.header_have) += n;
      if (!advance_frame(in)) return;
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_inbound(fd);  // EOF (peer drained/evicted) or hard error
    return;
  }
}

bool TcpBulkChannel::advance_frame(Inbound& in) {
  if (!in.in_payload) {
    if (in.header_have < kFrameHeaderBytes) return true;
    util::WireReader head(std::span<const std::uint8_t>(in.header));
    const std::uint32_t magic = head.u32();
    in.src = head.u32();
    in.port = head.u16();
    const std::size_t len = head.u32();
    if (magic != kTcpBulkMagic || len > opts_.max_frame_bytes) {
      MOCHA_WARN(kLogComponent)
          << "corrupt inbound bulk frame header (magic " << magic << ", "
          << len << " bytes); closing the stream";
      close_inbound(in.fd);
      return false;
    }
    in.in_payload = true;
    in.payload.resize(len);
    in.payload_have = 0;
  }
  if (in.payload_have < in.payload.size()) return true;
  in.in_payload = false;
  in.header_have = 0;
  received_.fetch_add(1, std::memory_order_relaxed);
  tm_received_->add();
  deliver_(in.src, in.port, std::move(in.payload));
  in.payload = util::Buffer{};
  return true;
}

}  // namespace mocha::live
