#include "live/lock_server.h"

#include "util/log.h"

namespace mocha::live {

using replica::LockHold;

LockServer::LockServer(Endpoint& endpoint, LockServerOptions opts)
    : endpoint_(endpoint), opts_(opts), dir_(*this, {opts.lease_grace_us}) {
  const std::string prefix = "shard." + std::to_string(opts_.shard_id) + ".";
  MetricsRegistry& registry = MetricsRegistry::global();
  tm_acquires_ = registry.counter(prefix + "acquires");
  tm_grants_ = registry.counter(prefix + "grants");
  tm_releases_ = registry.counter(prefix + "releases");
  tm_lease_breaks_ = registry.counter(prefix + "lease_breaks");
  tm_stats_requests_ = registry.counter(prefix + "stats_requests");
  tm_queue_depth_ = registry.gauge(prefix + "queue_depth");
  tm_active_leases_ = registry.gauge(prefix + "active_leases");
  tm_wait_us_ = registry.histogram(prefix + "wait_us");
  tm_hold_us_ = registry.histogram(prefix + "hold_us");
  util::MutexLock guard(mu_);
  stats_.shard_id = opts_.shard_id;
}

LockServer::~LockServer() { stop(); }

void LockServer::set_shard_map(ShardMap map) { shard_map_ = std::move(map); }

void LockServer::start() {
  if (running_.exchange(true)) return;
  if (shard_map_.empty()) {
    // Single-shard default: advertise this endpoint as the whole directory.
    // ipv4 = 0 tells clients to keep their bootstrap route to this node.
    ShardMap::Entry self;
    self.shard = opts_.shard_id;
    self.node = endpoint_.node();
    self.udp_port = endpoint_.udp_port();
    shard_map_ = ShardMap({self});
  }
  endpoint_.set_port_handler(replica::kSyncPort, [this](Endpoint::Message msg) {
    handle(std::move(msg));
  });
}

void LockServer::stop() {
  if (!running_.exchange(false)) return;
  // Off the loop before returning: no handler call and no lease timer may
  // reach this server once stop() is done.
  endpoint_.run_on_loop([this] {
    endpoint_.set_port_handler(replica::kSyncPort, nullptr);
    dir_.for_each_active([this](const LockHold& hold) {
      endpoint_.reactor().cancel(hold.lease);
    });
  });
}

LockServer::Stats LockServer::stats() const {
  const Reactor::Stats reactor = endpoint_.reactor().stats();
  util::MutexLock lock(mu_);
  Stats stats = stats_;
  stats.reactor_iterations = reactor.iterations;
  stats.reactor_timers_fired = reactor.timers_fired;
  stats.max_epoll_batch = reactor.max_epoll_batch;
  return stats;
}

bool LockServer::is_blacklisted(std::uint32_t site) const {
  util::MutexLock lock(mu_);
  return blacklist_.contains(site);
}

void LockServer::publish_stats() {
  tm_queue_depth_->set(static_cast<std::int64_t>(dir_.queued_waiters()));
  tm_active_leases_->set(static_cast<std::int64_t>(dir_.active_holds()));
  util::MutexLock guard(mu_);
  stats_.grants = dir_.grants();
  stats_.releases = dir_.releases();
  stats_.locks_broken = dir_.locks_broken();
  stats_.registrations = dir_.registrations();
  stats_.queued_waiters = dir_.queued_waiters();
  stats_.active_leases = dir_.active_holds();
}

void LockServer::handle(Endpoint::Message msg) {
  if (dir_.handle(Clock::monotonic().now_us(), msg.payload)) {
    publish_stats();
    return;
  }
  try {
    util::WireReader reader(msg.payload);
    switch (reader.u8()) {
      case replica::kResolveNode: {
        // Peer discovery for direct daemon→daemon pulls: this endpoint has
        // heard from every client (their acquires arrive here), so its peer
        // table can introduce any two of them to each other.
        const auto query = replica::ResolveNodeMsg::decode(reader);
        replica::NodeAddrMsg answer;
        answer.node = query.node;
        if (auto addr = endpoint_.peer_addr(query.node); addr.has_value()) {
          answer.ipv4 = addr->ipv4;
          answer.udp_port = addr->port;
          answer.known = 1;
        }
        util::Buffer reply;
        answer.encode(reply);
        endpoint_.send(msg.src, query.reply_port, std::move(reply));
        util::MutexLock guard(mu_);
        ++stats_.resolves;
        break;
      }
      case replica::kShardMapRequest:
        handle_shard_map_request(msg.src, reader);
        break;
      case replica::kStatsRequest:
        handle_stats_request(msg.src, reader);
        break;
      default:
        // Sim-only traffic (replica registry, cached directory, …) is not
        // served by the live lock server yet.
        break;
    }
  } catch (const util::CodecError& err) {
    MOCHA_DEBUG("live") << "lock server: dropping malformed message from node "
                        << msg.src << ": " << err.what();
  }
}

void LockServer::handle_shard_map_request(net::NodeId src,
                                          util::WireReader& reader) {
  const auto request = replica::ShardMapRequestMsg::decode(reader);
  replica::ShardMapReplyMsg answer;
  answer.shards = shard_map_.entries();
  util::Buffer reply;
  answer.encode(reply);
  endpoint_.send(src, request.reply_port, std::move(reply));
  util::MutexLock guard(mu_);
  ++stats_.shard_map_requests;
}

void LockServer::handle_stats_request(net::NodeId src,
                                      util::WireReader& reader) {
  const auto request = replica::StatsRequestMsg::decode(reader);
  tm_stats_requests_->add();
  replica::StatsReplyMsg answer;
  answer.probe_nonce = request.probe_nonce;
  answer.shard_id = opts_.shard_id;
  fill_stats_reply(MetricsRegistry::global().snapshot(), answer);
  util::Buffer reply;
  answer.encode(reply);
  endpoint_.send(src, request.reply_port, std::move(reply));
}

// --- replica::LockDirectorySink ---

void LockServer::send_grant(const LockHold& hold,
                            const replica::GrantMsg& grant) {
  util::Buffer msg;
  grant.encode(msg);
  endpoint_.send(hold.site, hold.grant_port, std::move(msg));
}

std::uint64_t LockServer::arm_lease(const LockHold& hold) {
  // §4 failure detection as a continuation: one reactor timer per active
  // hold, cancelled at release, replaces a periodic lease scan. The core
  // re-checks (site, nonce) when it fires.
  return endpoint_.reactor().call_at(
      hold.lease_deadline_us,
      [this, lock_id = hold.lock_id, site = hold.site, nonce = hold.nonce] {
        dir_.lease_expired(Clock::monotonic().now_us(), lock_id, site, nonce);
        publish_stats();
      });
}

void LockServer::cancel_lease(const LockHold& hold) {
  endpoint_.reactor().cancel(hold.lease);
}

void LockServer::confirm_owner(const LockHold& hold) {
  dir_.owner_confirmed(Clock::monotonic().now_us(), hold.lock_id, hold.site,
                       hold.nonce, /*alive=*/false);
}

void LockServer::trace(const replica::LockEvent& event) {
  switch (event.kind) {
    case trace::EventKind::kLockRequested:
      tm_acquires_->add();
      break;
    case trace::EventKind::kLockGranted:
      tm_grants_->add();
      tm_wait_us_->record(event.span_us);
      break;
    case trace::EventKind::kLockReleased:
      tm_releases_->add();
      if (event.span_us >= 0) tm_hold_us_->record(event.span_us);
      break;
    case trace::EventKind::kLockBroken: {
      util::MutexLock guard(mu_);
      blacklist_.insert(event.site);
      tm_lease_breaks_->add();
      MOCHA_INFO("live") << "lock " << event.lock_id << " broken: site "
                         << event.site
                         << " exceeded its lease; site blacklisted";
      break;
    }
    default:
      break;
  }
  FlightRecorder::record(event.kind, endpoint_.node(), event.site,
                         event.lock_id, event.version, event.nonce);
}

}  // namespace mocha::live
