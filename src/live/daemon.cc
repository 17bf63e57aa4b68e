#include "live/daemon.h"

#include "util/log.h"

namespace mocha::live {

using replica::LockId;
using replica::Version;

util::Buffer marshal_bundle(
    const std::vector<std::string>& names,
    const std::map<std::string, util::Buffer>& contents) {
  util::Buffer bundle;
  util::WireWriter writer(bundle);
  writer.u32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    writer.str(name);
    auto it = contents.find(name);
    writer.bytes(it != contents.end() ? it->second : util::Buffer{});
  }
  return bundle;
}

namespace {
// How long the serving daemon lets the fast backend chew on one bundle
// before giving up and falling back to the endpoint's UDP path.
constexpr std::int64_t kFastBulkSendTimeoutUs = 2'000'000;
}  // namespace

DaemonService::DaemonService(Endpoint& endpoint, BulkBackend bulk)
    : endpoint_(endpoint),
      bulk_kind_(bulk),
      fast_bulk_(bulk == BulkBackend::kUdp ? nullptr
                                           : make_bulk_backend(bulk, endpoint)) {
  const std::string prefix =
      "daemon." + std::to_string(endpoint.node()) + ".";
  MetricsRegistry& registry = MetricsRegistry::global();
  tm_transfers_served_ = registry.counter(prefix + "transfers_served");
  tm_transfers_applied_ = registry.counter(prefix + "transfers_applied");
  tm_bytes_out_ = registry.counter(prefix + "bytes_out");
  tm_bytes_in_ = registry.counter(prefix + "bytes_in");
  tm_bulk_fallbacks_ = registry.counter(prefix + "bulk_fallbacks");
  tm_bundle_send_us_ = registry.histogram(prefix + "bundle_send_us");
}

DaemonService::~DaemonService() { stop(); }

void DaemonService::start() {
  if (running_.exchange(true)) return;
  endpoint_.set_port_handler(replica::kDaemonPort,
                             [this](Endpoint::Message msg) {
                               handle_control(std::move(msg));
                             });
  endpoint_.set_port_handler(replica::kDaemonDataPort,
                             [this](Endpoint::Message msg) {
                               apply_bundle(msg.src, msg.payload);
                             });
  if (fast_bulk_ != nullptr) {
    bulk_thread_ = std::thread([this] { bulk_loop(); });
    bulk_send_thread_ = std::thread([this] { bulk_send_loop(); });
  }
}

void DaemonService::stop() {
  if (!running_.exchange(false)) return;
  // Handlers first: once they are off the loop no new fast send can be
  // queued, so the sender thread below drains a final queue.
  endpoint_.set_port_handler(replica::kDaemonPort, nullptr);
  endpoint_.set_port_handler(replica::kDaemonDataPort, nullptr);
  {
    util::MutexLock lock(mu_);
    fast_send_cv_.notify_all();
  }
  if (bulk_thread_.joinable()) bulk_thread_.join();
  if (bulk_send_thread_.joinable()) bulk_send_thread_.join();
}

DaemonService::LockReplicas& DaemonService::lock_replicas(LockId lock_id) {
  return locks_[lock_id];
}

void DaemonService::register_replica(LockId lock_id, const std::string& name,
                                     util::Buffer initial) {
  util::MutexLock lock(mu_);
  LockReplicas& lk = lock_replicas(lock_id);
  if (!lk.contents.contains(name)) lk.names.push_back(name);
  lk.contents[name] = std::move(initial);
}

void DaemonService::write(LockId lock_id, const std::string& name,
                          util::Buffer contents) {
  util::MutexLock lock(mu_);
  LockReplicas& lk = lock_replicas(lock_id);
  if (!lk.contents.contains(name)) lk.names.push_back(name);
  lk.contents[name] = std::move(contents);
}

util::Buffer DaemonService::read(LockId lock_id,
                                 const std::string& name) const {
  util::MutexLock lock(mu_);
  auto lk = locks_.find(lock_id);
  if (lk == locks_.end()) return {};
  auto it = lk->second.contents.find(name);
  return it == lk->second.contents.end() ? util::Buffer{} : it->second;
}

void DaemonService::publish(LockId lock_id, Version version) {
  util::MutexLock lock(mu_);
  LockReplicas& lk = lock_replicas(lock_id);
  if (version > lk.version) lk.version = version;
  version_cv_.notify_all();
}

Version DaemonService::local_version(LockId lock_id) const {
  util::MutexLock lock(mu_);
  auto it = locks_.find(lock_id);
  return it == locks_.end() ? 0 : it->second.version;
}

util::Status DaemonService::wait_for_version(LockId lock_id, Version target,
                                             std::int64_t timeout_us) {
  const std::int64_t deadline = Clock::monotonic().now_us() + timeout_us;
  util::MutexLock lock(mu_);
  LockReplicas& lk = lock_replicas(lock_id);
  while (lk.version < target) {
    const std::int64_t now = Clock::monotonic().now_us();
    if (now >= deadline) {
      return util::Status(util::StatusCode::kTimeout,
                          "lock " + std::to_string(lock_id) + ": version " +
                              std::to_string(target) +
                              " not received (local " +
                              std::to_string(lk.version) + ")");
    }
    version_cv_.wait_for_us(mu_, deadline - now);
  }
  return util::Status::ok();
}

util::Status DaemonService::wait_for_apply(LockId lock_id,
                                           std::uint64_t applied_before,
                                           std::int64_t timeout_us) {
  const std::int64_t deadline = Clock::monotonic().now_us() + timeout_us;
  util::MutexLock lock(mu_);
  LockReplicas& lk = lock_replicas(lock_id);
  while (lk.applied <= applied_before) {
    const std::int64_t now = Clock::monotonic().now_us();
    if (now >= deadline) {
      return util::Status(util::StatusCode::kTimeout,
                          "lock " + std::to_string(lock_id) +
                              ": no replica bundle arrived");
    }
    version_cv_.wait_for_us(mu_, deadline - now);
  }
  return util::Status::ok();
}

std::uint64_t DaemonService::transfers_applied(LockId lock_id) const {
  util::MutexLock lock(mu_);
  auto it = locks_.find(lock_id);
  return it == locks_.end() ? 0 : it->second.applied;
}

DaemonService::Stats DaemonService::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

void DaemonService::handle_control(Endpoint::Message msg) {
  try {
    util::WireReader reader(msg.payload);
    switch (reader.u8()) {
      case replica::kTransferReplica:
        handle_directive(msg.src, reader);
        break;
      case replica::kPollVersion: {
        const auto poll = replica::PollVersionMsg::decode(reader);
        util::Buffer report;
        replica::VersionReportMsg{poll.lock_id, endpoint_.node(),
                                  local_version(poll.lock_id)}
            .encode(report);
        endpoint_.send(msg.src, poll.reply_port, std::move(report));
        util::MutexLock lock(mu_);
        ++stats_.polls_answered;
        break;
      }
      case replica::kHeartbeat:
        // Liveness is proven by the transport-level ack the prober waits
        // on; nothing to do here.
        break;
      case replica::kBulkHello: {
        const auto hello = replica::BulkHelloMsg::decode(reader);
        record_peer_bulk(msg.src, hello.backends, hello.tcp_port,
                         hello.budp_port);
        util::Buffer ack;
        replica::BulkHelloAckMsg{endpoint_.node(), own_bulk_caps(),
                                 bulk_kind_ == BulkBackend::kTcp
                                     ? fast_bulk_->contact_port()
                                     : std::uint16_t{0},
                                 bulk_kind_ == BulkBackend::kBatchedUdp
                                     ? fast_bulk_->contact_port()
                                     : std::uint16_t{0}}
            .encode(ack);
        endpoint_.send(msg.src, replica::kDaemonPort, std::move(ack));
        break;
      }
      case replica::kBulkHelloAck: {
        const auto ack = replica::BulkHelloAckMsg::decode(reader);
        record_peer_bulk(msg.src, ack.backends, ack.tcp_port, ack.budp_port);
        break;
      }
      default:
        // Unknown control message — a newer peer speaking a message this
        // build predates. Dropping it is the §10 downgrade path.
        break;
    }
  } catch (const util::CodecError& err) {
    MOCHA_DEBUG("live") << "daemon " << endpoint_.node()
                        << ": dropping malformed control message from node "
                        << msg.src << ": " << err.what();
  }
}

void DaemonService::handle_directive(net::NodeId src,
                                     util::WireReader& reader) {
  const auto directive = replica::TransferReplicaMsg::decode(reader);

  util::Buffer bundle;
  Version version = 0;
  {
    util::MutexLock lock(mu_);
    LockReplicas& lk = lock_replicas(directive.lock_id);
    bundle = marshal_bundle(lk.names, lk.contents);
    // Stamp what this daemon actually holds, not what the directive claims:
    // a redirected pull (home-daemon retry) may legitimately serve an older
    // version, and the receiver's stale-drop check needs the truth.
    version = lk.version;
  }

  util::Buffer data;
  util::WireWriter writer(data);
  writer.u32(directive.lock_id);
  writer.u64(version);
  writer.raw(bundle);

  // Count before sending: once the bundle is on the wire the puller may
  // observe it (and read our stats) before this thread runs again.
  tm_transfers_served_->add();
  tm_bytes_out_->add(data.size());
  FlightRecorder::record(trace::EventKind::kTransferServed, endpoint_.node(),
                         directive.dst_site, directive.lock_id, data.size());
  {
    util::MutexLock lock(mu_);
    ++stats_.transfers_served;
    bool use_fast = false;
    if (fast_bulk_ != nullptr) {
      const auto peer = bulk_peers_.find(directive.dst_site);
      use_fast = peer != bulk_peers_.end() &&
                 (peer->second.backends & bulk_backend_cap(bulk_kind_)) != 0;
    }
    if (use_fast) {
      // Hand the bundle to the sender thread: fast sends block (TCP
      // connect, batched-UDP DONE wait) and must not stall this loop.
      ++stats_.bulk_fast_served;
      fast_sends_.push_back(FastSend{directive.dst_site, directive.dst_port,
                                     directive.lock_id, std::move(data)});
      fast_send_cv_.notify_all();
      return;
    }
  }
  try {
    // The directive's envelope taught the endpoint the puller's address, so
    // dst_site is sendable even if this daemon never configured it.
    endpoint_.send(directive.dst_site, directive.dst_port, std::move(data));
  } catch (const std::logic_error&) {
    util::MutexLock lock(mu_);
    --stats_.transfers_served;
    MOCHA_WARN("live") << "daemon " << endpoint_.node()
                       << ": cannot serve transfer of lock "
                       << directive.lock_id << " to unknown site "
                       << directive.dst_site << " (directive from node "
                       << src << ")";
  }
}

void DaemonService::bulk_send_loop() {
  while (true) {
    FastSend job;
    {
      util::MutexLock lock(mu_);
      while (fast_sends_.empty()) {
        if (!running_.load()) return;
        fast_send_cv_.wait_for_us(mu_, 100'000);
      }
      job = std::move(fast_sends_.front());
      fast_sends_.pop_front();
    }
    if (!running_.load()) {
      // Shutting down: skip the blocking fast send so stop() is not held
      // for kFastBulkSendTimeoutUs per leftover bundle; the UDP leg hands
      // off to the endpoint's retransmit machinery without blocking.
      fast_send_fallback(std::move(job));
      continue;
    }
    const std::int64_t t_send = Clock::monotonic().now_us();
    const util::Status sent = fast_bulk_->send_bundle(
        job.dst, job.port, job.data, kFastBulkSendTimeoutUs);
    if (sent.is_ok()) {
      tm_bundle_send_us_->record(Clock::monotonic().now_us() - t_send);
      continue;
    }
    MOCHA_WARN("live") << "daemon " << endpoint_.node() << ": "
                       << bulk_backend_name(bulk_kind_)
                       << " bulk send of lock " << job.lock_id << " to site "
                       << job.dst << " failed (" << sent.to_string()
                       << "); falling back to udp";
    fast_send_fallback(std::move(job));
  }
}

void DaemonService::fast_send_fallback(FastSend job) {
  tm_bulk_fallbacks_->add();
  FlightRecorder::record(trace::EventKind::kBulkFallback, endpoint_.node(),
                         job.dst, job.lock_id, job.data.size());
  {
    util::MutexLock lock(mu_);
    --stats_.bulk_fast_served;
    ++stats_.bulk_fallbacks;
  }
  try {
    endpoint_.send(job.dst, job.port, std::move(job.data));
  } catch (const std::logic_error&) {
    util::MutexLock lock(mu_);
    --stats_.transfers_served;
    MOCHA_WARN("live") << "daemon " << endpoint_.node()
                       << ": cannot serve transfer of lock " << job.lock_id
                       << " to unknown site " << job.dst;
  }
}

void DaemonService::bulk_loop() {
  while (running_.load()) {
    auto bundle = fast_bulk_->recv_bundle(replica::kDaemonDataPort, 100'000);
    if (bundle.has_value()) apply_bundle(bundle->src, bundle->payload);
  }
}

std::uint8_t DaemonService::own_bulk_caps() const {
  return static_cast<std::uint8_t>(replica::kBulkCapUdp |
                                   bulk_backend_cap(bulk_kind_));
}

void DaemonService::announce_bulk(net::NodeId peer) {
  if (fast_bulk_ == nullptr) return;
  {
    util::MutexLock lock(mu_);
    if (!hello_sent_.insert(peer).second) return;
  }
  util::Buffer hello;
  replica::BulkHelloMsg{endpoint_.node(), own_bulk_caps(),
                        bulk_kind_ == BulkBackend::kTcp
                            ? fast_bulk_->contact_port()
                            : std::uint16_t{0},
                        bulk_kind_ == BulkBackend::kBatchedUdp
                            ? fast_bulk_->contact_port()
                            : std::uint16_t{0}}
      .encode(hello);
  try {
    endpoint_.send(peer, replica::kDaemonPort, std::move(hello));
  } catch (const std::logic_error&) {
    // Peer address unknown (caller skipped ensure_peer) — allow a retry
    // once it is.
    util::MutexLock lock(mu_);
    hello_sent_.erase(peer);
  }
}

void DaemonService::record_peer_bulk(net::NodeId peer, std::uint8_t backends,
                                     std::uint16_t tcp_port,
                                     std::uint16_t budp_port) {
  {
    util::MutexLock lock(mu_);
    const bool fresh = bulk_peers_.find(peer) == bulk_peers_.end();
    bulk_peers_[peer] = PeerBulk{backends, tcp_port, budp_port};
    if (fresh) ++stats_.bulk_peers_known;
  }
  if (fast_bulk_ != nullptr) {
    fast_bulk_->set_peer_contact(peer, bulk_kind_ == BulkBackend::kTcp
                                           ? tcp_port
                                           : budp_port);
  }
}

std::uint8_t DaemonService::peer_bulk_caps(net::NodeId peer) const {
  util::MutexLock lock(mu_);
  const auto it = bulk_peers_.find(peer);
  return it == bulk_peers_.end() ? std::uint8_t{0} : it->second.backends;
}

bool DaemonService::drain_bulk(std::int64_t timeout_us) {
  return fast_bulk_ == nullptr || fast_bulk_->drain(timeout_us);
}

TransportBackend::Stats DaemonService::bulk_transport_stats() const {
  return fast_bulk_ == nullptr ? TransportBackend::Stats{}
                               : fast_bulk_->stats();
}

void DaemonService::apply_bundle(net::NodeId src,
                                 const util::Buffer& payload) {
  // Decode the whole bundle before touching the store: a truncated one must
  // leave contents and version as they were, not half-overwritten.
  LockId lock_id = 0;
  Version version = 0;
  std::vector<std::pair<std::string, util::Buffer>> entries;
  try {
    util::WireReader reader(payload);
    lock_id = reader.u32();
    version = reader.u64();
    const std::uint32_t count = reader.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string name = reader.str();
      entries.emplace_back(std::move(name), reader.bytes());
    }
  } catch (const util::CodecError& err) {
    MOCHA_DEBUG("live") << "daemon " << endpoint_.node()
                        << ": dropping malformed bundle from node " << src
                        << ": " << err.what();
    return;
  }
  tm_bytes_in_->add(payload.size());

  util::MutexLock lock(mu_);
  LockReplicas& lk = lock_replicas(lock_id);
  if (version < lk.version) {
    // A duplicate or a straggler from an earlier cycle; applying it would
    // roll contents back behind what the lock protocol promised.
    ++stats_.stale_drops;
    return;
  }
  for (auto& [name, contents] : entries) {
    if (!lk.contents.contains(name)) lk.names.push_back(name);
    lk.contents[name] = std::move(contents);
  }
  lk.version = version;
  ++lk.applied;
  ++stats_.transfers_applied;
  tm_transfers_applied_->add();
  FlightRecorder::record(trace::EventKind::kUpdatePushed, endpoint_.node(),
                         src, lock_id, static_cast<std::int64_t>(version));
  version_cv_.notify_all();
  MOCHA_DEBUG("live") << "daemon " << endpoint_.node() << ": applied lock "
                      << lock_id << " version " << version << " from node "
                      << src;
}

}  // namespace mocha::live
