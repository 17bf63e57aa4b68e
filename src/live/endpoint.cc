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

bool same_addr(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_addr.s_addr == b.sin_addr.s_addr && a.sin_port == b.sin_port;
}

}  // namespace

Endpoint::Endpoint(net::NodeId node, std::uint16_t udp_port,
                   EndpointOptions opts, Clock* clock)
    : node_(node),
      opts_(opts),
      clock_(clock ? clock : &Clock::monotonic()),
      reactor_(ReactorOptions(), clock_),
      netem_rng_(opts.netem_seed) {
  if (opts_.mtu <= kLiveEnvelopeBytes + net::kDataAckBaseHeaderBytes +
                       net::kPiggybackAckBytes) {
    throw std::invalid_argument("live::Endpoint: mtu too small for headers");
  }
  max_chunk_ = opts_.mtu - kLiveEnvelopeBytes - net::kFragHeaderBytes;
  gap_skip_window_us_ = retry_schedule_us() + 2 * opts_.rto_us;
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
  // Unblock any receiver still parked in recv(); messages are dropped.
  {
    util::MutexLock lock(mu_);
    for (auto& [port, queue] : delivered_) queue->cv.notify_all();
    for (auto& [key, out] : outstanding_) {
      out->failed = true;
    }
    ack_cv_.notify_all();
  }
  ::close(sock_);
}

std::int64_t Endpoint::retry_schedule_us() const {
  const int cap = opts_.adaptive_rto ? opts_.rto_backoff_cap : 0;
  const std::int64_t max_rto = std::max(opts_.max_rto_us, opts_.rto_us);
  return RttEstimator::retry_schedule_us(opts_.rto_us, opts_.max_retries, cap,
                                         max_rto);
}

Endpoint::PeerState& Endpoint::peer_state(net::NodeId peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    PeerState state;
    state.rtt = RttEstimator(RttEstimator::Params{
        opts_.rto_us, opts_.min_rto_us, opts_.max_rto_us,
        opts_.rto_backoff_cap});
    const std::string prefix =
        "ep." + std::to_string(node_) + ".peer." + std::to_string(peer) + ".";
    MetricsRegistry& registry = MetricsRegistry::global();
    state.tm_retransmits = registry.counter(prefix + "retransmits");
    state.tm_nacks_tx = registry.counter(prefix + "nacks_tx");
    state.tm_nacks_rx = registry.counter(prefix + "nacks_rx");
    state.tm_rto_us = registry.gauge(prefix + "rto_us");
    state.tm_rto_us->set(opts_.rto_us);
    it = peers_.emplace(peer, std::move(state)).first;
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
  auto it = peers_.find(peer);
  if (it == peers_.end()) return 0;
  return opts_.adaptive_rto ? it->second.rtt.rto_us() : opts_.rto_us;
}

std::int64_t Endpoint::peer_srtt_us(net::NodeId peer) const {
  util::MutexLock lock(mu_);
  auto it = peers_.find(peer);
  return it == peers_.end() ? 0 : it->second.rtt.srtt_us();
}

void Endpoint::send(net::NodeId dst, net::Port port, util::Buffer payload) {
  (void)send_sync(dst, port, std::move(payload), /*timeout_us=*/0);
}

std::vector<std::uint64_t> Endpoint::take_piggyback_acks(
    PeerState& peer, std::size_t chunk_len) {
  if (peer.pending_acks.empty()) return {};
  const std::size_t used =
      kLiveEnvelopeBytes + net::kDataAckBaseHeaderBytes + chunk_len;
  if (used >= opts_.mtu) return {};  // full-size chunk: no room
  const std::size_t room = (opts_.mtu - used) / net::kPiggybackAckBytes;
  const std::size_t n =
      std::min({peer.pending_acks.size(), room, opts_.max_piggyback_acks,
                net::kMaxPiggybackAcks});
  if (n == 0) return {};
  std::vector<std::uint64_t> acks(peer.pending_acks.begin(),
                                  peer.pending_acks.begin() +
                                      static_cast<std::ptrdiff_t>(n));
  peer.pending_acks.erase(peer.pending_acks.begin(),
                          peer.pending_acks.begin() +
                              static_cast<std::ptrdiff_t>(n));
  if (peer.pending_acks.empty()) peer.ack_deadline_us = 0;
  acks_piggybacked_ += n;
  return acks;
}

util::Status Endpoint::send_sync(net::NodeId dst, net::Port port,
                                 util::Buffer payload,
                                 std::int64_t timeout_us) {
  std::shared_ptr<Outstanding> out;
  {
    util::MutexLock lock(mu_);
    auto peer_it = peers_.find(dst);
    if (peer_it == peers_.end()) {
      throw std::logic_error("live::Endpoint: unknown peer node " +
                             std::to_string(dst));
    }
    PeerState& peer = peer_it->second;
    auto [seq_it, unused] = next_seq_out_.try_emplace(dst, 1);
    const std::uint64_t seq = seq_it->second++;
    const std::int64_t now = clock_->now_us();

    // Shared frame codec (net/frame.h), then the live source-node envelope.
    // Pending transport acks for this peer piggyback on the first fragment
    // when they fit (DATA+ACK frame) instead of costing their own datagram.
    std::vector<util::Buffer> frames =
        net::fragment_message(seq, port, payload, max_chunk_);
    const std::size_t first_chunk = std::min(max_chunk_, payload.size());
    const std::vector<std::uint64_t> acks =
        take_piggyback_acks(peer, first_chunk);
    if (!acks.empty()) {
      util::Buffer first;
      first.reserve(net::kDataAckBaseHeaderBytes +
                    acks.size() * net::kPiggybackAckBytes + first_chunk);
      net::encode_data_ack_frame(
          first, seq, /*frag_idx=*/0,
          static_cast<std::uint32_t>(frames.size()), port, acks,
          std::span<const std::uint8_t>(payload).subspan(0, first_chunk));
      frames[0] = std::move(first);
    }

    out = std::make_shared<Outstanding>();
    out->addr = peer.addr;
    out->retries_left = opts_.max_retries;
    out->sent_at_us = now;
    out->next_resend_us =
        now + (opts_.adaptive_rto ? peer.rtt.rto_us() : opts_.rto_us);
    out->datagrams.reserve(frames.size());
    for (const util::Buffer& frame : frames) {
      util::Buffer datagram;
      datagram.reserve(kLiveEnvelopeBytes + frame.size());
      util::WireWriter writer(datagram);
      writer.u32(node_);
      writer.raw(frame);
      out->datagrams.push_back(std::move(datagram));
    }
    outstanding_.emplace(MsgKey{dst, seq}, out);
    for (const util::Buffer& datagram : out->datagrams) {
      queue_tx(out->addr, datagram);
      ++fragments_sent_;
    }
    ++messages_sent_;
  }
  flush_tx();
  if (out->datagrams.size() > 1) {
    // The RTO runs from the last fragment's send: a 256 KiB bundle's copies
    // and sendmmsg calls can eat a 1 ms RTO.
    util::MutexLock lock(mu_);
    out->next_resend_us =
        clock_->now_us() + (out->next_resend_us - out->sent_at_us);
  }
  // The transport timer must cover the new resend deadline.
  if (std::this_thread::get_id() == loop_thread_.get_id()) {
    arm_timer();  // MOCHA_REACTOR_SAFE: on the loop thread, checked above
  } else {
    reactor_.post([this] { arm_timer(); });
  }

  if (timeout_us <= 0) return util::Status::ok();  // asynchronous send

  util::MutexLock lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  while (!out->acked && !out->failed) {
    if (!ack_cv_.wait_until(mu_, deadline)) break;  // timeout
  }
  if (out->acked) return util::Status::ok();
  return util::Status(util::StatusCode::kTimeout,
                      "no transport ack from node " + std::to_string(dst));
}

bool Endpoint::flush(std::int64_t timeout_us) {
  util::MutexLock lock(mu_);
  const std::int64_t deadline = clock_->now_us() + timeout_us;
  while (!outstanding_.empty()) {
    const std::int64_t now = clock_->now_us();
    if (now >= deadline) return false;
    ack_cv_.wait_for_us(mu_, deadline - now);  // every erase notifies
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
  // Acks first: a handler applying a 256 KiB bundle must not hold the
  // sender's ack back past its RTO. Handlers' own sends flush themselves.
  flush_tx();
  std::vector<Message> batch;
  {
    util::MutexLock lock(mu_);
    batch.swap(dispatch_);
  }
  for (Message& msg : batch) {
    auto it = port_handlers_.find(msg.port);
    if (it != port_handlers_.end()) {
      // A copy: a handler that replaces itself keeps running intact.
      const std::shared_ptr<PortHandler> handler = it->second;
      (*handler)(std::move(msg));
      continue;
    }
    util::MutexLock lock(mu_);  // unregistered mid-batch: back to recv()
    PortQueue& queue = port_queue(msg.port);
    queue.messages.push_back(std::move(msg));
    queue.cv.notify_one();
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

void Endpoint::queue_tx(const sockaddr_in& addr, util::Buffer datagram) {
  tx_queue_.push_back(TxItem{addr, std::move(datagram)});
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
  constexpr std::size_t kBatch = 64;
  for (std::size_t base = 0; base < batch.size(); base += kBatch) {
    const std::size_t n = std::min(kBatch, batch.size() - base);
    mmsghdr msgs[kBatch] = {};
    iovec iovs[kBatch] = {};
    for (std::size_t i = 0; i < n; ++i) {
      TxItem& item = batch[base + i];
      iovs[i].iov_base = item.datagram.data();
      iovs[i].iov_len = item.datagram.size();
      msgs[i].msg_hdr.msg_name = &item.addr;
      msgs[i].msg_hdr.msg_namelen = sizeof(item.addr);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
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
  fire_timers(now);
  finish_event();
}

void Endpoint::arm_timer() {
  util::MutexLock lock(mu_);
  const std::int64_t deadline = next_deadline_us();
  if (timer_ != Reactor::kInvalidTimer && deadline == timer_deadline_us_) {
    return;
  }
  reactor_.cancel(timer_);  // no-op for kInvalidTimer
  timer_deadline_us_ = deadline;
  timer_ = deadline == kNoDeadline
               ? Reactor::kInvalidTimer
               : reactor_.call_at(deadline, [this] { on_timer(); });
}

std::int64_t Endpoint::next_deadline_us() {
  std::int64_t deadline = kNoDeadline;
  for (const auto& [key, out] : outstanding_) {
    if (out->next_resend_us < deadline) {
      deadline = out->next_resend_us;
    }
  }
  for (const auto& [src, gap] : gap_skips_) {
    if (gap.deadline_us < deadline) deadline = gap.deadline_us;
  }
  for (const auto& [key, re] : reassembly_) {
    if (re.nack_deadline_us != 0 && re.nack_deadline_us < deadline) {
      deadline = re.nack_deadline_us;
    }
  }
  for (const auto& [peer, state] : peers_) {
    if (state.ack_deadline_us != 0 && state.ack_deadline_us < deadline) {
      deadline = state.ack_deadline_us;
    }
  }
  if (!netem_queue_.empty() &&
      netem_queue_.front().release_us < deadline) {
    deadline = netem_queue_.front().release_us;
  }
  return deadline;
}

bool Endpoint::has_stashed(net::NodeId src) const {
  auto it = stashed_.lower_bound({src, 0});
  return it != stashed_.end() && it->first.first == src;
}

void Endpoint::update_gap_skip(net::NodeId src, std::int64_t now_us) {
  if (!has_stashed(src)) {
    gap_skips_.erase(src);
    return;
  }
  auto it = gap_skips_.find(src);
  if (it != gap_skips_.end() && it->second.expected == next_seq_in_[src]) {
    return;  // already armed and the stream has not progressed: keep ticking
  }
  // The stagnation window covers the sender's full backed-off retransmit
  // schedule (it keeps resending that long before it gives up), plus slack.
  gap_skips_[src] = GapSkip{now_us + gap_skip_window_us_, next_seq_in_[src]};
}

void Endpoint::fire_timers(std::int64_t now_us) {
  util::MutexLock lock(mu_);
  bool notified = false;
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    std::shared_ptr<Outstanding>& out = it->second;
    if (out->next_resend_us > now_us) {
      ++it;
      continue;
    }
    if (out->retries_left-- <= 0) {
      out->failed = true;
      notified = true;
      MOCHA_DEBUG("live") << "node " << node_ << ": message seq "
                          << it->first.second << " to node " << it->first.first
                          << " failed (retries exhausted)";
      it = outstanding_.erase(it);
      continue;
    }
    // Whole-message resend with per-peer exponential backoff (the backoff
    // resets on the next accepted RTT sample for that peer).
    PeerState& peer = peer_state(it->first.first);
    out->retransmitted = true;  // Karn: this message can no longer be sampled
    if (opts_.adaptive_rto) peer.rtt.backoff();
    out->next_resend_us =
        now_us + (opts_.adaptive_rto ? peer.rtt.rto_us() : opts_.rto_us);
    for (const util::Buffer& datagram : out->datagrams) {
      queue_tx(out->addr, datagram);
      ++retransmissions_;
    }
    peer.tm_retransmits->add(out->datagrams.size());
    peer.tm_rto_us->set(opts_.adaptive_rto ? peer.rtt.rto_us() : opts_.rto_us);
    FlightRecorder::record(trace::EventKind::kRetransmit, node_,
                           it->first.first, it->first.second,
                           static_cast<std::uint64_t>(out->retries_left));
    ++it;
  }
  if (notified) ack_cv_.notify_all();

  // Selective NACKs: a partially reassembled message whose fragment stream
  // has been quiet for nack_delay_us asks the sender for just the missing
  // fragments. Quiet matters: fragments still flowing means the sender is
  // mid-transmission, not that loss struck (same rule as the sim endpoint).
  for (auto& [key, re] : reassembly_) {
    if (re.nack_deadline_us == 0 || re.nack_deadline_us > now_us) continue;
    if (now_us - re.last_arrival_us < opts_.nack_delay_us) {
      re.nack_deadline_us = re.last_arrival_us + opts_.nack_delay_us;
      continue;
    }
    if (re.nacks_sent >= opts_.max_retries) {
      re.nack_deadline_us = 0;  // give up probing; sender RTO still covers it
      continue;
    }
    auto peer_it = peers_.find(key.first);
    if (peer_it == peers_.end()) {
      re.nack_deadline_us = 0;
      continue;
    }
    util::Buffer datagram;
    util::WireWriter writer(datagram);
    writer.u32(node_);
    util::Buffer frame;
    net::encode_nack_frame(
        frame, net::NackFrame{key.second, re.assembler.missing()});
    writer.raw(frame);
    queue_tx(peer_it->second.addr, std::move(datagram));
    ++re.nacks_sent;
    ++nacks_sent_;
    peer_it->second.tm_nacks_tx->add();
    FlightRecorder::record(trace::EventKind::kNackSent, node_, key.first,
                           key.second, re.assembler.missing().size());
    re.nack_deadline_us = now_us + opts_.nack_delay_us;
  }

  flush_due_acks(now_us);

  // Gap skip: a sender gave up on a message and newer ones are complete —
  // once the stream has stagnated a full retry schedule, skip the hole.
  for (auto it = gap_skips_.begin(); it != gap_skips_.end();) {
    net::NodeId src = it->first;
    GapSkip gap = it->second;
    if (gap.deadline_us > now_us) {
      ++it;
      continue;
    }
    it = gap_skips_.erase(it);
    if (next_seq_in_[src] != gap.expected) {
      // The stream progressed since arming; re-arm if a hole remains.
      update_gap_skip(src, now_us);
      continue;
    }
    auto stash_it = stashed_.lower_bound({src, 0});
    if (stash_it == stashed_.end() || stash_it->first.first != src) continue;
    MOCHA_DEBUG("live") << "node " << node_ << ": skipping sequence hole "
                        << next_seq_in_[src] << ".."
                        << stash_it->first.second - 1 << " from node " << src;
    next_seq_in_[src] = stash_it->first.second;
    // Drop reassembly state for the skipped hole — those fragments will
    // never complete (their sender gave up).
    for (auto re_it = reassembly_.lower_bound({src, 0});
         re_it != reassembly_.end() && re_it->first.first == src &&
         re_it->first.second < next_seq_in_[src];) {
      re_it = reassembly_.erase(re_it);
    }
    deliver_in_order(src);
    update_gap_skip(src, now_us);
  }
}

void Endpoint::enqueue_ack(net::NodeId dst, std::uint64_t seq,
                           std::int64_t now_us) {
  PeerState& peer = peer_state(dst);
  // Delaying an ack only pays when the path RTT dwarfs the delay: on a
  // µs-RTT LAN a 500µs hold eats most of the sender's RTO margin and buys
  // no piggyback worth having, so ack immediately once the measured RTT
  // proves the path is fast. No sample yet (or a genuinely slow path) keeps
  // the delay, so WAN receivers that never send data still batch.
  const bool path_is_fast =
      peer.rtt.has_sample() && peer.rtt.srtt_us() <= 2 * opts_.ack_delay_us;
  if (opts_.ack_delay_us <= 0 || path_is_fast) {
    util::Buffer datagram;
    util::WireWriter writer(datagram);
    writer.u32(node_);
    util::Buffer frame;
    net::encode_ack_frame(frame, seq);
    writer.raw(frame);
    queue_tx(peer.addr, std::move(datagram));
    return;
  }
  peer.pending_acks.push_back(seq);
  if (peer.ack_deadline_us == 0) {
    peer.ack_deadline_us = now_us + opts_.ack_delay_us;
  }
}

void Endpoint::flush_due_acks(std::int64_t now_us) {
  for (auto& [dst, peer] : peers_) {
    if (peer.ack_deadline_us == 0 || peer.ack_deadline_us > now_us) continue;
    // No data frame came along in time: flush standalone ACK frames (still
    // batched into one sendmmsg with everything else queued this tick).
    for (std::uint64_t seq : peer.pending_acks) {
      util::Buffer datagram;
      util::WireWriter writer(datagram);
      writer.u32(node_);
      util::Buffer frame;
      net::encode_ack_frame(frame, seq);
      writer.raw(frame);
      queue_tx(peer.addr, std::move(datagram));
    }
    peer.pending_acks.clear();
    peer.ack_deadline_us = 0;
  }
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
  try {
    util::WireReader reader(std::span<const std::uint8_t>(data, len));
    const net::NodeId src = reader.u32();  // live envelope
    {
      // Learn (or refresh) the sender's address — this is how the server
      // side discovers clients it never configured.
      util::MutexLock lock(mu_);
      PeerState& peer = peer_state(src);
      if (!same_addr(peer.addr, from)) peer.addr = from;
    }
    switch (net::decode_frame_type(reader)) {
      case net::FrameType::kData:
        handle_data(src, net::decode_data_frame(reader));
        break;
      case net::FrameType::kDataAck: {
        const net::DataFrame frame = net::decode_data_ack_frame(reader);
        {
          util::MutexLock lock(mu_);
          const std::int64_t now = clock_->now_us();
          for (std::uint64_t acked : frame.acks) {
            handle_ack_seq(src, acked, now);
          }
        }
        handle_data(src, frame);
        break;
      }
      case net::FrameType::kAck: {
        const std::uint64_t seq = net::decode_ack_frame(reader).seq;
        util::MutexLock lock(mu_);
        handle_ack_seq(src, seq, clock_->now_us());
        break;
      }
      case net::FrameType::kNack: {
        const net::NackFrame nack = net::decode_nack_frame(reader);
        util::MutexLock lock(mu_);
        ++nacks_received_;
        peer_state(src).tm_nacks_rx->add();
        auto it = outstanding_.find({src, nack.seq});
        if (it == outstanding_.end()) break;
        std::shared_ptr<Outstanding>& out = it->second;
        std::uint64_t resent = 0;
        for (std::uint32_t idx : nack.missing) {
          if (idx >= out->datagrams.size()) continue;
          queue_tx(out->addr, out->datagrams[idx]);
          ++retransmissions_;
          ++resent;
        }
        // The peer is alive and mid-recovery: push the full-message resend
        // out one RTO so the selective repair gets a chance to complete.
        out->retransmitted = true;  // Karn
        PeerState& peer = peer_state(src);
        peer.tm_retransmits->add(resent);
        out->next_resend_us =
            clock_->now_us() +
            (opts_.adaptive_rto ? peer.rtt.rto_us() : opts_.rto_us);
        break;
      }
    }
  } catch (const util::CodecError& err) {
    MOCHA_DEBUG("live") << "node " << node_
                        << ": dropping malformed datagram: " << err.what();
  }
}

void Endpoint::handle_ack_seq(net::NodeId src, std::uint64_t seq,
                              std::int64_t now_us) {
  auto it = outstanding_.find({src, seq});
  if (it == outstanding_.end()) return;
  std::shared_ptr<Outstanding>& out = it->second;
  if (opts_.adaptive_rto && !out->retransmitted) {
    // Karn's rule: only never-retransmitted messages yield RTT samples
    // (a retransmitted one's ack is ambiguous). A sample also resets the
    // peer's exponential backoff.
    PeerState& peer = peer_state(src);
    peer.rtt.sample(now_us - out->sent_at_us);
    peer.tm_rto_us->set(peer.rtt.rto_us());
  }
  tm_send_ack_us_->record(now_us - out->sent_at_us);
  out->acked = true;
  outstanding_.erase(it);
  ack_cv_.notify_all();
}

void Endpoint::handle_data(net::NodeId src, const net::DataFrame& frame) {
  util::MutexLock lock(mu_);
  const std::int64_t now = clock_->now_us();
  auto [in_it, unused] = next_seq_in_.try_emplace(src, 1);
  const MsgKey key{src, frame.seq};
  if (frame.seq < in_it->second || stashed_.contains(key)) {
    // Duplicate of an already-completed message: re-ACK so the sender stops.
    enqueue_ack(src, frame.seq, now);
    return;
  }
  Reassembly& re = reassembly_[key];
  if (!re.assembler.add(frame)) return;  // dup fragment
  re.last_arrival_us = now;
  if (!re.assembler.complete()) {
    // Partial multi-fragment message: arm the quiescence-based NACK probe.
    if (opts_.selective_nack && opts_.nack_delay_us > 0 &&
        re.nack_deadline_us == 0) {
      re.nack_deadline_us = now + opts_.nack_delay_us;
    }
    return;
  }

  Message msg;
  msg.src = src;
  msg.port = re.assembler.port();
  msg.payload = re.assembler.assemble();
  reassembly_.erase(key);
  enqueue_ack(src, frame.seq, now);
  stashed_.emplace(key, std::move(msg));
  deliver_in_order(src);
  update_gap_skip(src, now);
}

void Endpoint::deliver_in_order(net::NodeId src) {
  std::uint64_t& next = next_seq_in_[src];
  while (true) {
    auto it = stashed_.find({src, next});
    if (it == stashed_.end()) return;
    Message msg = std::move(it->second);
    stashed_.erase(it);
    ++next;
    ++messages_delivered_;
    PortQueue& queue = port_queue(msg.port);
    if (queue.handled) {
      dispatch_.push_back(std::move(msg));
      continue;
    }
    queue.messages.push_back(std::move(msg));
    queue.cv.notify_one();
  }
}

}  // namespace mocha::live
