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

}  // namespace

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
      tcp_min_bytes_(bulk == BulkBackend::kHybrid ? kHybridMinBundleBytes : 0),
      core_(endpoint.node(), *this) {
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
          // The TCP twin of a UDP delivery: dropped while stopped.
          if (running_.load()) {
            endpoint_.deliver_local(src, port, std::move(payload));
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

void DaemonService::store(LockReplicas& lk, const std::string& name,
                          util::Buffer contents) {
  if (!lk.contents.contains(name)) lk.names.push_back(name);
  lk.contents[name] = std::move(contents);
}

void DaemonService::write(LockId lock_id, const std::string& name,
                          util::Buffer contents) {
  util::MutexLock lock(mu_);
  store(locks_[lock_id], name, std::move(contents));
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
  core_.publish(lock_id, version);
}

Version DaemonService::local_version(LockId lock_id) const {
  util::MutexLock lock(mu_);
  return core_.version(lock_id);
}

std::uint64_t DaemonService::transfers_applied(LockId lock_id) const {
  util::MutexLock lock(mu_);
  return core_.applied(lock_id);
}

DaemonService::Stats DaemonService::stats() const {
  util::MutexLock lock(mu_);
  return {served_.load(),          core_.bundles_applied(),
          core_.stale_drops(),     core_.polls_answered(),
          fast_served_.load(),     fallbacks_.load()};
}

// --- replica::DaemonSink ---

void DaemonService::bundle(LockId lock_id,
                           std::vector<replica::BundleView>& out) {
  const LockReplicas& lk = locks_[lock_id];
  for (const std::string& name : lk.names) {
    out.push_back({name, lk.contents.at(name), {}});
  }
}

void DaemonService::apply(LockId lock_id,
                          std::vector<replica::BundleEntry>& entries) {
  for (replica::BundleEntry& entry : entries) {
    store(locks_[lock_id], entry.name, std::move(entry.payload));
  }
}

void DaemonService::send(net::NodeId dst, net::Port port, util::Buffer msg) {
  endpoint_.send(dst, port, std::move(msg));
}

void DaemonService::serve(const replica::TransferReplicaMsg& directive,
                          util::Buffer data) {
  const net::NodeId dst = directive.dst_site;
  const net::Port port = directive.dst_port;
  const LockId lock_id = directive.lock_id;
  // The directive names the requester's address: no lookup round trip.
  if (directive.dst_ipv4 != 0 && !endpoint_.knows_peer(dst)) {
    endpoint_.add_peer(dst, {directive.dst_ipv4, directive.dst_udp_port});
  }
  const bool tcp = tcp_ != nullptr && data.size() >= tcp_min_bytes_ &&
                   (directive.dst_bulk_caps & replica::kBulkCapTcp) != 0 &&
                   directive.dst_tcp_port != 0;
  // Count before sending: once the bundle is on the wire the requester may
  // observe it (and read our stats) before this thread runs again.
  ++served_;
  tm_transfers_served_->add();
  tm_bytes_out_->add(data.size());
  FlightRecorder::record(trace::EventKind::kTransferServed, endpoint_.node(),
                         dst, lock_id, data.size());
  if (!tcp) return serve_on_endpoint(dst, port, lock_id, std::move(data));
  ++fast_served_;
  const std::int64_t t_send = Clock::monotonic().now_us();
  tcp_->send_bundle(
      dst, directive.dst_tcp_port, port, std::move(data),
      kTcpBulkSendTimeoutUs,
      [this, dst, port, lock_id, t_send](util::Status status,
                                         util::Buffer unsent) {
        if (status.is_ok()) {
          tm_bundle_send_us_->record(Clock::monotonic().now_us() - t_send);
        } else {
          tcp_fallback(dst, port, lock_id, status, std::move(unsent));
        }
      });
}

void DaemonService::handle_control(Endpoint::Message msg) {
  // Anything else is a newer peer's message this build predates: dropping
  // it is the §10 downgrade path.
  util::MutexLock lock(mu_);
  (void)core_.handle(msg.src, msg.payload);
}

void DaemonService::serve_on_endpoint(net::NodeId dst, net::Port port,
                                      LockId lock_id, util::Buffer data) {
  try {
    endpoint_.send(dst, port, std::move(data));
  } catch (const std::logic_error&) {
    --served_;
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
  --fast_served_;
  ++fallbacks_;
  serve_on_endpoint(dst, port, lock_id, std::move(data));
}

std::uint8_t DaemonService::bulk_caps() const {
  return static_cast<std::uint8_t>(
      replica::kBulkCapUdp | (tcp_ != nullptr ? replica::kBulkCapTcp : 0));
}

std::uint16_t DaemonService::tcp_port() const {
  return tcp_ != nullptr ? tcp_->contact_port() : std::uint16_t{0};
}

bool DaemonService::drain_bulk(std::int64_t timeout_us) {
  return tcp_ == nullptr || tcp_->drain(timeout_us);
}

TcpBulkChannel::Stats DaemonService::bulk_transport_stats() const {
  return tcp_ == nullptr ? TcpBulkChannel::Stats{} : tcp_->stats();
}

replica::DaemonCore::Applied DaemonService::apply_bundle(
    net::NodeId src, std::span<const std::uint8_t> payload) {
  replica::DaemonCore::Applied applied;
  {
    util::MutexLock lock(mu_);
    applied = core_.apply(payload);
  }
  if (applied.outcome == replica::DaemonCore::Apply::kMalformed) return applied;
  tm_bytes_in_->add(payload.size());
  if (applied.outcome == replica::DaemonCore::Apply::kApplied) {
    tm_transfers_applied_->add();
    FlightRecorder::record(trace::EventKind::kUpdatePushed, endpoint_.node(),
                           src, applied.lock_id,
                           static_cast<std::int64_t>(applied.version));
  }
  return applied;
}

}  // namespace mocha::live
