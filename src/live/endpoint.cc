#include "live/endpoint.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <future>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "util/log.h"

namespace mocha::live {

namespace {

constexpr unsigned kRxBatch = 32;  // datagrams per recvmmsg(2)

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "fcntl(O_NONBLOCK)");
  }
}

net::MochaNetOptions core_options(const EndpointOptions& opts) {
  if (opts.mtu <= kLiveEnvelopeBytes + net::kDataAckBaseHeaderBytes +
                      net::kPiggybackAckBytes) {
    throw std::invalid_argument("live::Endpoint: mtu too small for headers");
  }
  net::MochaNetOptions core;
  core.max_frame_bytes = opts.mtu - kLiveEnvelopeBytes;
  core.rto_us = opts.rto_us;
  core.max_retries = opts.max_retries;
  core.adaptive_rto = opts.adaptive_rto;
  core.nack_delay_us = opts.nack_delay_us;
  core.ack_delay_us = opts.ack_delay_us;
  return core;
}

}  // namespace

Endpoint::Endpoint(net::NodeId node, std::uint16_t udp_port,
                   EndpointOptions opts, Clock* clock)
    : node_(node),
      opts_(opts),
      clock_(clock ? clock : &Clock::monotonic()),
      retry_schedule_us_(net::retry_schedule_us(core_options(opts))),
      reactor_(ReactorOptions(), clock_),
      core_(core_options(opts), *this),
      netem_rng_(opts.netem_seed) {
  util::WireWriter(envelope_).u32(node_);
  tm_send_ack_us_ = MetricsRegistry::global().histogram(
      "ep." + std::to_string(node_) + ".send_ack_us");

  sock_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (sock_ < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  if (opts_.socket_buffer_bytes > 0) {
    // Best effort (the kernel clamps to net.core.{r,w}mem_max): fragment
    // bursts from bulk replica transfers must not overflow the default rmem.
    (void)::setsockopt(sock_, SOL_SOCKET, SO_RCVBUF,
                       &opts_.socket_buffer_bytes,
                       sizeof(opts_.socket_buffer_bytes));
    (void)::setsockopt(sock_, SOL_SOCKET, SO_SNDBUF,
                       &opts_.socket_buffer_bytes,
                       sizeof(opts_.socket_buffer_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(udp_port);
  // MOCHA_RAW_WIRE_OK: sockaddr casts are kernel ABI, not wire payload.
  if (::bind(sock_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(sock_);
    throw std::system_error(err, std::generic_category(), "bind");
  }
  socklen_t len = sizeof(addr);
  // MOCHA_RAW_WIRE_OK: sockaddr cast is kernel ABI, not wire payload.
  if (::getsockname(sock_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const int err = errno;
    ::close(sock_);
    throw std::system_error(err, std::generic_category(), "getsockname");
  }
  udp_port_ = ntohs(addr.sin_port);
  set_nonblocking(sock_);

  rx_buf_.resize(kRxBatch * (opts_.mtu + 1));
  // Pre-run configuration: the loop thread starts below.
  reactor_.watch_fd(sock_, EPOLLIN, [this](std::uint32_t) { on_readable(); });
  running_.store(true);
  loop_thread_ = std::thread([this] { reactor_.run(); });
}

Endpoint::~Endpoint() {
  running_.store(false);
  reactor_.stop();
  loop_thread_.join();
  // Unblock any receiver still parked in recv() or send_sync(); messages
  // are dropped.
  {
    util::MutexLock lock(mu_);
    for (auto& [port, queue] : delivered_) queue->cv.notify_all();
    for (auto& [key, acked] : waiters_) acked = acked.value_or(false);
    ack_cv_.notify_all();
  }
  ::close(sock_);
}

Endpoint::PeerState& Endpoint::peer_state(net::NodeId peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    PeerState state;
    const std::string prefix =
        "ep." + std::to_string(node_) + ".peer." + std::to_string(peer) + ".";
    MetricsRegistry& registry = MetricsRegistry::global();
    state.tm_retransmits = registry.counter(prefix + "retransmits");
    state.tm_nacks_tx = registry.counter(prefix + "nacks_tx");
    state.tm_nacks_rx = registry.counter(prefix + "nacks_rx");
    state.tm_rto_us = registry.gauge(prefix + "rto_us");
    state.tm_rto_us->set(core_.rto_us(peer));
    it = peers_.emplace(peer, state).first;
  }
  return it->second;
}

void Endpoint::add_peer(net::NodeId peer, const std::string& host,
                        std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not a dotted quad: resolve as a hostname.
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_DGRAM;
    addrinfo* result = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &result);
    if (rc != 0 || result == nullptr) {
      throw std::invalid_argument("live::Endpoint: cannot resolve '" + host +
                                  "': " + gai_strerror(rc));
    }
    // MOCHA_RAW_WIRE_OK: getaddrinfo result is libc-owned, not wire bytes.
    addr.sin_addr =
        reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
    ::freeaddrinfo(result);
  }
  util::MutexLock lock(mu_);
  peer_state(peer).addr = addr;
}

void Endpoint::add_peer(net::NodeId peer, PeerAddr addr) {
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = addr.ipv4;
  sin.sin_port = htons(addr.port);
  util::MutexLock lock(mu_);
  peer_state(peer).addr = sin;
}

bool Endpoint::knows_peer(net::NodeId peer) const {
  util::MutexLock lock(mu_);
  return peers_.contains(peer);
}

std::optional<Endpoint::PeerAddr> Endpoint::peer_addr(
    net::NodeId peer) const {
  util::MutexLock lock(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second.addr.sin_port == 0) return std::nullopt;
  return PeerAddr{it->second.addr.sin_addr.s_addr,
                  ntohs(it->second.addr.sin_port)};
}

std::int64_t Endpoint::peer_rto_us(net::NodeId peer) const {
  util::MutexLock lock(mu_);
  return peers_.contains(peer) ? core_.rto_us(peer) : 0;
}

std::int64_t Endpoint::peer_srtt_us(net::NodeId peer) const {
  util::MutexLock lock(mu_);
  return peers_.contains(peer) ? core_.srtt_us(peer) : 0;
}

net::MochaNetCore::Counters Endpoint::counters() const {
  util::MutexLock lock(mu_);
  return core_.counters();
}

void Endpoint::send(net::NodeId dst, net::Port port, util::Buffer payload) {
  (void)transmit(dst, port, std::move(payload), /*wait=*/false, nullptr);
}

void Endpoint::send_tracked(net::NodeId dst, net::Port port,
                            util::Buffer payload, SendDone done) {
  (void)transmit(dst, port, std::move(payload), /*wait=*/false,
                 std::move(done));
}

void Endpoint::deliver_local(net::NodeId src, net::Port port,
                             util::Buffer payload) {
  bool handled = false;
  Wakeups wake;
  {
    util::MutexLock lock(mu_);
    deliver(src, port, std::move(payload));
    handled = port_queue(port).handled;
    wake = take_wakeups();
  }
  wake.notify();
  // A handled port's delivery waits in dispatch_ for the end of an event.
  if (handled) reactor_.post([this] { finish_event(); });
}

std::uint64_t Endpoint::transmit(net::NodeId dst, net::Port port,
                                 util::Buffer payload, bool wait,
                                 SendDone done) {
  std::uint64_t seq = 0;
  bool one_datagram = false;
  bool timer_covers = false;  // the armed timer is due by the resend
  {
    util::MutexLock lock(mu_);
    if (!peers_.contains(dst)) {
      throw std::logic_error("live::Endpoint: unknown peer node " +
                             std::to_string(dst));
    }
    const std::size_t queued = tx_queue_.size();
    const std::int64_t now = clock_->now_us();
    seq = core_.send(now, dst, port, payload);
    // The RTO runs from the last fragment's send: a 256 KiB bundle's copies
    // and sendmmsg calls can eat a 1 ms RTO. One datagram leaves with the
    // flush right below.
    one_datagram = tx_queue_.size() - queued == 1;
    if (one_datagram) {
      core_.sent(now, dst, seq);
      timer_covers = timer_deadline_us_ <= now + core_.rto_us(dst);
    }
    if (wait) waiters_.try_emplace({dst, seq});
    if (done) tracked_.emplace(std::pair{dst, seq}, std::move(done));
  }
  flush_tx();
  if (!one_datagram) {
    util::MutexLock lock(mu_);
    const std::int64_t now = clock_->now_us();
    core_.sent(now, dst, seq);
    timer_covers = timer_deadline_us_ <= now + core_.rto_us(dst);
  }
  // The transport timer must cover the new resend deadline. A timer armed
  // no later already does: its on_timer ends in arm_timer, which reads the
  // core under mu_, so it sees this message whichever takes mu_ first.
  if (timer_covers) return seq;
  if (std::this_thread::get_id() == loop_thread_.get_id()) {
    arm_timer();  // MOCHA_REACTOR_SAFE: on the loop thread, checked above
  } else {
    reactor_.post([this] { arm_timer(); });
  }
  return seq;
}

util::Status Endpoint::send_sync(net::NodeId dst, net::Port port,
                                 util::Buffer payload,
                                 std::int64_t timeout_us) {
  const std::uint64_t seq =
      transmit(dst, port, std::move(payload), timeout_us > 0, nullptr);
  if (timeout_us <= 0) return util::Status::ok();  // asynchronous send

  util::MutexLock lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  auto it = waiters_.find({dst, seq});
  while (!it->second.has_value()) {
    if (!ack_cv_.wait_until(mu_, deadline)) break;  // timeout
  }
  const bool acked = it->second.value_or(false);
  waiters_.erase(it);
  if (acked) return util::Status::ok();
  return util::Status(util::StatusCode::kTimeout,
                      "no transport ack from node " + std::to_string(dst));
}

bool Endpoint::flush(std::int64_t timeout_us) {
  util::MutexLock lock(mu_);
  const std::int64_t deadline = clock_->now_us() + timeout_us;
  while (core_.outstanding() != 0) {
    const std::int64_t now = clock_->now_us();
    if (now >= deadline) return false;
    ack_cv_.wait_for_us(mu_, deadline - now);  // every ack/failure notifies
  }
  return true;
}

void Endpoint::run_on_loop(std::function<void()> fn) {
  if (std::this_thread::get_id() == loop_thread_.get_id()) {
    fn();
    return;
  }
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> ran = done->get_future();
  reactor_.post([fn = std::move(fn), done] {
    fn();
    done->set_value();
  });
  ran.wait();
}

void Endpoint::set_port_handler(net::Port port, PortHandler handler) {
  run_on_loop([this, port, handler = std::move(handler)]() mutable {
    {
      util::MutexLock lock(mu_);
      PortQueue& queue = port_queue(port);
      queue.handled = handler != nullptr;
      // The backlog from before registration (a handled port queues none).
      for (Message& msg : queue.messages) dispatch_.push_back(std::move(msg));
      queue.messages.clear();
    }
    port_handlers_.erase(port);
    if (handler != nullptr) {
      port_handlers_[port] = std::make_shared<PortHandler>(std::move(handler));
    }
    finish_event();  // hands the backlog over
  });
}

void Endpoint::finish_event() {
  // Queued frames first: a handler applying a 256 KiB bundle must not hold
  // back resends, NACKs or flushed acks. Held acks stay for the handlers'
  // replies to carry, bounded by the ack flush timer armed below. Handlers'
  // own sends flush themselves.
  flush_tx();
  std::vector<Message> batch;
  std::vector<std::pair<SendDone, bool>> outcomes;
  {
    util::MutexLock lock(mu_);
    batch.swap(dispatch_);
    outcomes.swap(tracked_done_);
  }
  for (auto& [done, acked] : outcomes) done(acked);
  for (Message& msg : batch) {
    auto it = port_handlers_.find(msg.port);
    if (it != port_handlers_.end()) {
      // A copy: a handler that replaces itself keeps running intact.
      const std::shared_ptr<PortHandler> handler = it->second;
      (*handler)(std::move(msg));
      continue;
    }
    PortQueue* queue = nullptr;
    {
      util::MutexLock lock(mu_);  // unregistered mid-batch: back to recv()
      queue = &port_queue(msg.port);
      queue->messages.push_back(std::move(msg));
    }
    queue->cv.notify_one();
  }
  arm_timer();
}

Endpoint::Message Endpoint::recv(net::Port port) {
  util::MutexLock lock(mu_);
  PortQueue& queue = port_queue(port);
  while (queue.messages.empty() && running_.load()) queue.cv.wait(mu_);
  if (queue.messages.empty()) {
    throw std::runtime_error("live::Endpoint: shut down while receiving");
  }
  Message msg = std::move(queue.messages.front());
  queue.messages.pop_front();
  return msg;
}

std::optional<Endpoint::Message> Endpoint::recv_for(net::Port port,
                                                    std::int64_t timeout_us) {
  util::MutexLock lock(mu_);
  PortQueue& queue = port_queue(port);
  if (timeout_us > 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(timeout_us);
    while (queue.messages.empty() && running_.load()) {
      if (!queue.cv.wait_until(mu_, deadline)) break;  // timeout
    }
  }
  if (queue.messages.empty()) return std::nullopt;
  Message msg = std::move(queue.messages.front());
  queue.messages.pop_front();
  return msg;
}

Endpoint::PortQueue& Endpoint::port_queue(net::Port port) {
  auto it = delivered_.find(port);
  if (it == delivered_.end()) {
    it = delivered_.emplace(port, std::make_unique<PortQueue>()).first;
  }
  return *it->second;
}

void Endpoint::flush_tx() {
  std::vector<TxItem> batch;
  {
    util::MutexLock lock(mu_);
    if (tx_queue_.empty()) return;
    batch.swap(tx_queue_);
  }
  // One sendmmsg(2) per group of up to kBatch datagrams: fragments of a
  // message, coalesced acks, and retransmits all leave in single syscalls.
  // Each datagram is two iovecs: the shared envelope, then the frame.
  constexpr std::size_t kBatch = 64;
  for (std::size_t base = 0; base < batch.size(); base += kBatch) {
    const std::size_t n = std::min(kBatch, batch.size() - base);
    mmsghdr msgs[kBatch] = {};
    iovec iovs[kBatch][2] = {};
    for (std::size_t i = 0; i < n; ++i) {
      TxItem& item = batch[base + i];
      iovs[i][0] = {envelope_.data(), envelope_.size()};
      iovs[i][1] = {item.frame.data(), item.frame.size()};
      msgs[i].msg_hdr.msg_name = &item.addr;
      msgs[i].msg_hdr.msg_namelen = sizeof(item.addr);
      msgs[i].msg_hdr.msg_iov = iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 2;
    }
    // Failures (ENOBUFS, transient ICMP errors) are left to retransmission.
    (void)::sendmmsg(sock_, msgs, static_cast<unsigned int>(n), 0);
  }
}

void Endpoint::on_readable() {
  // Batched drain: one recvmmsg(2) syscall moves up to kRxBatch datagrams
  // per pass — the receive-side twin of the flush_tx() sendmmsg batch, and
  // the main rx win under bursty bundle traffic.
  const std::size_t slot = opts_.mtu + 1;
  std::array<mmsghdr, kRxBatch> msgs{};
  std::array<iovec, kRxBatch> iovs{};
  std::array<sockaddr_in, kRxBatch> froms{};
  for (unsigned i = 0; i < kRxBatch; ++i) {
    iovs[i] = {rx_buf_.data() + i * slot, slot};
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &froms[i];
  }
  while (true) {
    // The kernel overwrites each name length with the sender's.
    for (mmsghdr& msg : msgs) msg.msg_hdr.msg_namelen = sizeof(sockaddr_in);
    const int got =
        ::recvmmsg(sock_, msgs.data(), kRxBatch, MSG_DONTWAIT, nullptr);
    if (got <= 0) break;  // EAGAIN — drained
    ++rx_batches_;
    rx_batched_datagrams_ += static_cast<std::uint64_t>(got);
    for (int i = 0; i < got; ++i) {
      handle_datagram(rx_buf_.data() + static_cast<std::size_t>(i) * slot,
                      msgs[i].msg_len, froms[i]);
    }
    if (got < static_cast<int>(kRxBatch)) break;
  }
  finish_event();
}

void Endpoint::on_timer() {
  timer_ = Reactor::kInvalidTimer;
  const std::int64_t now = clock_->now_us();
  release_netem(now);
  Wakeups wake;
  {
    util::MutexLock lock(mu_);
    core_.on_timer(now);
    wake = take_wakeups();
  }
  wake.notify();
  finish_event();
}

void Endpoint::arm_timer() {
  util::MutexLock lock(mu_);
  std::int64_t deadline = core_.next_deadline_us();
  if (!netem_queue_.empty()) {
    deadline = std::min(deadline, netem_queue_.front().release_us);
  }
  if (timer_ != Reactor::kInvalidTimer && deadline == timer_deadline_us_) {
    return;
  }
  reactor_.cancel(timer_);  // no-op for kInvalidTimer
  timer_deadline_us_ = deadline;
  timer_ = deadline == kNoDeadline
               ? Reactor::kInvalidTimer
               : reactor_.call_at(deadline, [this] { on_timer(); });
}

void Endpoint::handle_datagram(const std::uint8_t* data, std::size_t len,
                               const sockaddr_in& from) {
  if (opts_.recv_drop_hook &&
      opts_.recv_drop_hook(std::span<const std::uint8_t>(data, len))) {
    ++netem_dropped_;
    return;
  }
  const bool netem = opts_.recv_loss_pct > 0 || opts_.recv_delay_us > 0 ||
                     opts_.recv_bw_kbps > 0;
  if (!netem) {
    process_datagram(data, len, from);
    return;
  }
  if (opts_.recv_loss_pct > 0 &&
      netem_rng_.chance(opts_.recv_loss_pct / 100.0)) {
    ++netem_dropped_;
    return;
  }
  // Emulated link: serialization at recv_bw_kbps (datagrams queue behind
  // each other, so overload builds real queueing delay), then propagation.
  const std::int64_t now = clock_->now_us();
  std::int64_t serialize_us = 0;
  if (opts_.recv_bw_kbps > 0) {
    serialize_us = static_cast<std::int64_t>(
        static_cast<double>(len) * 8'000.0 / opts_.recv_bw_kbps);
  }
  const std::int64_t start = std::max(now, netem_link_free_us_);
  netem_link_free_us_ = start + serialize_us;
  DelayedDatagram delayed;
  delayed.release_us = netem_link_free_us_ + opts_.recv_delay_us;
  delayed.data.assign(data, data + len);
  delayed.from = from;
  netem_queue_.push_back(std::move(delayed));
}

void Endpoint::release_netem(std::int64_t now_us) {
  while (!netem_queue_.empty() &&
         netem_queue_.front().release_us <= now_us) {
    DelayedDatagram delayed = std::move(netem_queue_.front());
    netem_queue_.pop_front();
    process_datagram(delayed.data.data(), delayed.data.size(), delayed.from);
  }
}

void Endpoint::process_datagram(const std::uint8_t* data, std::size_t len,
                                const sockaddr_in& from) {
  util::WireReader reader(std::span<const std::uint8_t>(data, len));
  if (reader.remaining() < kLiveEnvelopeBytes) {
    MOCHA_DEBUG("live") << "node " << node_ << ": dropping " << len
                        << "-byte datagram without an envelope";
    return;
  }
  const net::NodeId src = reader.u32();  // live envelope
  Wakeups wake;
  {
    util::MutexLock lock(mu_);
    // Learn (or refresh) the sender's address — this is how the server side
    // discovers clients it never configured.
    peer_state(src).addr = from;
    core_.on_frame(clock_->now_us(), src, reader.raw(reader.remaining()));
    wake = take_wakeups();
  }
  wake.notify();
}

// --- net::MochaNetSink ---

void Endpoint::send_frame(net::NodeId dst, util::Buffer frame) {
  auto it = peers_.find(dst);
  if (it == peers_.end()) return;  // every core peer has a slot; defensive
  tx_queue_.push_back(TxItem{it->second.addr, std::move(frame)});
}

void Endpoint::deliver(net::NodeId src, net::Port port, util::Buffer payload) {
  PortQueue& queue = port_queue(port);
  Message msg{src, port, std::move(payload)};
  if (queue.handled) {
    dispatch_.push_back(std::move(msg));
    return;
  }
  queue.messages.push_back(std::move(msg));
  wakeups_.ports.push_back(&queue.cv);
}

void Endpoint::acked(net::NodeId dst, std::uint64_t seq,
                     std::int64_t latency_us) {
  tm_send_ack_us_->record(latency_us);
  peer_state(dst).tm_rto_us->set(core_.rto_us(dst));
  auto it = waiters_.find({dst, seq});
  if (it != waiters_.end()) it->second = true;
  finish_tracked(dst, seq, true);
  wakeups_.acks = &ack_cv_;
}

void Endpoint::failed(net::NodeId dst, std::uint64_t seq) {
  auto it = waiters_.find({dst, seq});
  if (it != waiters_.end()) it->second = false;
  finish_tracked(dst, seq, false);
  wakeups_.acks = &ack_cv_;
}

void Endpoint::finish_tracked(net::NodeId dst, std::uint64_t seq,
                              bool acked) {
  if (tracked_.empty()) return;
  auto it = tracked_.find({dst, seq});
  if (it == tracked_.end()) return;
  tracked_done_.emplace_back(std::move(it->second), acked);
  tracked_.erase(it);
}

Endpoint::Wakeups Endpoint::take_wakeups() {
  return std::exchange(wakeups_, Wakeups{});
}

void Endpoint::Wakeups::notify() const {
  for (util::CondVar* cv : ports) cv->notify_one();
  if (acks != nullptr) acks->notify_all();
}

void Endpoint::on_event(const Event& event) {
  PeerState& peer = peer_state(event.peer);
  peer.tm_retransmits->add(event.frames);  // RTO and NACK resends
  peer.tm_rto_us->set(core_.rto_us(event.peer));
  if (event.kind == trace::EventKind::kNackSent) peer.tm_nacks_tx->add();
  if (event.kind == trace::EventKind::kNackReceived) peer.tm_nacks_rx->add();
  FlightRecorder::record(event.kind, node_, event.peer, event.seq, event.arg);
}

}  // namespace mocha::live
