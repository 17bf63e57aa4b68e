#include "live/daemon.h"

#include <cstdlib>
#include <stdexcept>

#include "util/log.h"

namespace mocha::live {

using replica::LockId;
using replica::Version;

namespace {

// How long a TCP send may take before its bundle is re-served on the
// endpoint.
constexpr std::int64_t kTcpBulkSendTimeoutUs = 2'000'000;

// The `u32 n (str name, bytes payload)…` bundle body.
void write_bundle(util::WireWriter& writer,
                  const std::vector<std::string>& names,
                  const std::map<std::string, util::Buffer>& contents) {
  writer.u32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    writer.str(name);
    auto it = contents.find(name);
    writer.bytes(it != contents.end() ? it->second : util::Buffer{});
  }
}

}  // namespace

util::Buffer marshal_bundle(
    const std::vector<std::string>& names,
    const std::map<std::string, util::Buffer>& contents) {
  util::Buffer bundle;
  util::WireWriter writer(bundle);
  write_bundle(writer, names, contents);
  return bundle;
}

const char* bulk_backend_name(BulkBackend kind) {
  switch (kind) {
    case BulkBackend::kUdp:
      return "udp";
    case BulkBackend::kTcp:
      return "tcp";
    case BulkBackend::kHybrid:
      return "hybrid";
  }
  return "hybrid";
}

std::optional<BulkBackend> parse_bulk_backend(std::string_view name) {
  for (const BulkBackend kind :
       {BulkBackend::kUdp, BulkBackend::kTcp, BulkBackend::kHybrid}) {
    if (name == bulk_backend_name(kind)) return kind;
  }
  return std::nullopt;
}

BulkBackend bulk_backend_from_env(BulkBackend fallback) {
  const char* v = std::getenv("MOCHA_BULK_BACKEND");
  if (v == nullptr || *v == '\0') return fallback;
  const auto parsed = parse_bulk_backend(v);
  if (!parsed.has_value()) {
    MOCHA_WARN("live") << "ignoring unknown MOCHA_BULK_BACKEND=" << v
                       << " (want udp|tcp|hybrid)";
    return fallback;
  }
  return *parsed;
}

DaemonService::DaemonService(Endpoint& endpoint, BulkBackend bulk)
    : endpoint_(endpoint),
      bulk_kind_(bulk),
      tcp_min_bytes_(bulk == BulkBackend::kHybrid ? kHybridMinBundleBytes : 0) {
  const std::string prefix =
      "daemon." + std::to_string(endpoint.node()) + ".";
  MetricsRegistry& registry = MetricsRegistry::global();
  tm_transfers_served_ = registry.counter(prefix + "transfers_served");
  tm_transfers_applied_ = registry.counter(prefix + "transfers_applied");
  tm_bytes_out_ = registry.counter(prefix + "bytes_out");
  tm_bytes_in_ = registry.counter(prefix + "bytes_in");
  tm_bulk_fallbacks_ = registry.counter(prefix + "bulk_fallbacks");
  tm_bundle_send_us_ = registry.histogram(prefix + "bundle_send_us");
  if (bulk != BulkBackend::kUdp) {
    tcp_ = std::make_unique<TcpBulkChannel>(
        endpoint,
        [this](net::NodeId src, net::Port port, util::Buffer payload) {
          // The TCP twin of the data-port handler: dropped while stopped.
          if (running_.load() && port == replica::kDaemonDataPort) {
            apply_bundle(src, payload);
          }
        });
  }
}

DaemonService::~DaemonService() {
  stop();
  // Fails what is still queued on the channel (re-served on the endpoint)
  // while every member its callbacks use is alive.
  tcp_.reset();
}

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
}

void DaemonService::stop() {
  if (!running_.exchange(false)) return;
  endpoint_.set_port_handler(replica::kDaemonPort, nullptr);
  endpoint_.set_port_handler(replica::kDaemonDataPort, nullptr);
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
        handle_directive(reader);
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
        record_peer_bulk(msg.src, hello.backends, hello.tcp_port);
        util::Buffer ack;
        replica::BulkHelloAckMsg{endpoint_.node(), own_bulk_caps(),
                                 own_tcp_port()}
            .encode(ack);
        endpoint_.send(msg.src, replica::kDaemonPort, std::move(ack));
        break;
      }
      case replica::kBulkHelloAck: {
        const auto ack = replica::BulkHelloAckMsg::decode(reader);
        record_peer_bulk(msg.src, ack.backends, ack.tcp_port);
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

void DaemonService::handle_directive(util::WireReader& reader) {
  const auto directive = replica::TransferReplicaMsg::decode(reader);
  const net::NodeId dst = directive.dst_site;
  const net::Port port = directive.dst_port;
  const LockId lock_id = directive.lock_id;

  util::Buffer data;
  std::uint16_t tcp_contact = 0;
  {
    util::MutexLock lock(mu_);
    const LockReplicas& lk = lock_replicas(lock_id);
    // `u32 lock | u64 version | bundle`, marshaled once into a buffer of
    // the exact size, so no reallocation copies it again.
    std::size_t size = 4 + 8 + 4;
    for (const std::string& name : lk.names) {
      const auto it = lk.contents.find(name);
      size += 4 + name.size() + 4 +
              (it != lk.contents.end() ? it->second.size() : 0);
    }
    data.reserve(size);
    util::WireWriter writer(data);
    writer.u32(lock_id);
    // Stamp what this daemon actually holds, not what the directive claims:
    // a redirected pull (home-daemon retry) may legitimately serve an older
    // version, and the receiver's stale-drop check needs the truth.
    writer.u64(lk.version);
    write_bundle(writer, lk.names, lk.contents);

    // Count before sending: once the bundle is on the wire the puller may
    // observe it (and read our stats) before this thread runs again.
    ++stats_.transfers_served;
    const auto peer = bulk_peers_.find(dst);
    if (tcp_ != nullptr && data.size() >= tcp_min_bytes_ &&
        peer != bulk_peers_.end() &&
        (peer->second.backends & replica::kBulkCapTcp) != 0) {
      tcp_contact = peer->second.tcp_port;
    }
    if (tcp_contact != 0) ++stats_.bulk_fast_served;
  }
  tm_transfers_served_->add();
  tm_bytes_out_->add(data.size());
  FlightRecorder::record(trace::EventKind::kTransferServed, endpoint_.node(),
                         dst, lock_id, data.size());
  if (tcp_contact == 0) {
    // The directive's envelope taught the endpoint the puller's address, so
    // dst is sendable even if this daemon never configured it.
    serve_on_endpoint(dst, port, lock_id, std::move(data));
    return;
  }
  const std::int64_t t_send = Clock::monotonic().now_us();
  tcp_->send_bundle(
      dst, tcp_contact, port, std::move(data), kTcpBulkSendTimeoutUs,
      [this, dst, port, lock_id, t_send](util::Status status,
                                         util::Buffer unsent) {
        if (status.is_ok()) {
          tm_bundle_send_us_->record(Clock::monotonic().now_us() - t_send);
        } else {
          tcp_fallback(dst, port, lock_id, status, std::move(unsent));
        }
      });
}

void DaemonService::serve_on_endpoint(net::NodeId dst, net::Port port,
                                      LockId lock_id, util::Buffer data) {
  try {
    endpoint_.send(dst, port, std::move(data));
  } catch (const std::logic_error&) {
    util::MutexLock lock(mu_);
    --stats_.transfers_served;
    MOCHA_WARN("live") << "daemon " << endpoint_.node()
                       << ": cannot serve transfer of lock " << lock_id
                       << " to unknown site " << dst;
  }
}

void DaemonService::tcp_fallback(net::NodeId dst, net::Port port,
                                 LockId lock_id, const util::Status& why,
                                 util::Buffer data) {
  MOCHA_WARN("live") << "daemon " << endpoint_.node()
                     << ": tcp bulk send of lock " << lock_id << " to site "
                     << dst << " failed (" << why.to_string()
                     << "); falling back to udp";
  tm_bulk_fallbacks_->add();
  FlightRecorder::record(trace::EventKind::kBulkFallback, endpoint_.node(),
                         dst, lock_id, data.size());
  {
    util::MutexLock lock(mu_);
    --stats_.bulk_fast_served;
    ++stats_.bulk_fallbacks;
  }
  serve_on_endpoint(dst, port, lock_id, std::move(data));
}

std::uint8_t DaemonService::own_bulk_caps() const {
  return static_cast<std::uint8_t>(
      replica::kBulkCapUdp | (tcp_ != nullptr ? replica::kBulkCapTcp : 0));
}

std::uint16_t DaemonService::own_tcp_port() const {
  return tcp_ != nullptr ? tcp_->contact_port() : std::uint16_t{0};
}

void DaemonService::announce_bulk(net::NodeId peer) {
  if (tcp_ == nullptr) return;
  {
    util::MutexLock lock(mu_);
    if (!hello_sent_.insert(peer).second) return;
  }
  util::Buffer hello;
  replica::BulkHelloMsg{endpoint_.node(), own_bulk_caps(), own_tcp_port()}
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
                                     std::uint16_t tcp_port) {
  util::MutexLock lock(mu_);
  const bool fresh = bulk_peers_.find(peer) == bulk_peers_.end();
  bulk_peers_[peer] = PeerBulk{backends, tcp_port};
  if (fresh) ++stats_.bulk_peers_known;
}

std::uint8_t DaemonService::peer_bulk_caps(net::NodeId peer) const {
  util::MutexLock lock(mu_);
  const auto it = bulk_peers_.find(peer);
  return it == bulk_peers_.end() ? std::uint8_t{0} : it->second.backends;
}

bool DaemonService::drain_bulk(std::int64_t timeout_us) {
  return tcp_ == nullptr || tcp_->drain(timeout_us);
}

TcpBulkChannel::Stats DaemonService::bulk_transport_stats() const {
  return tcp_ == nullptr ? TcpBulkChannel::Stats{} : tcp_->stats();
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
