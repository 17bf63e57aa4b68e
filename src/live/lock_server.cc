#include "live/lock_server.h"

#include <algorithm>

#include "util/log.h"

namespace mocha::live {

using replica::GrantFlag;
using replica::LockWireMode;

LockServer::LockServer(Endpoint& endpoint, LockServerOptions opts)
    : endpoint_(endpoint), opts_(opts) {
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
    for (const auto& [id, lock] : locks_) {
      for (const Request& req : lock.active) {
        endpoint_.reactor().cancel(req.lease_timer);
      }
    }
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
  const auto it = blacklist_.find(site);
  return it != blacklist_.end() && Clock::monotonic().now_us() < it->second;
}

void LockServer::publish_gauges() {
  tm_queue_depth_->set(static_cast<std::int64_t>(queued_waiters_));
  tm_active_leases_->set(static_cast<std::int64_t>(active_leases_));
  util::MutexLock guard(mu_);
  stats_.queued_waiters = queued_waiters_;
  stats_.active_leases = active_leases_;
}

void LockServer::handle(Endpoint::Message msg) {
  try {
    util::WireReader reader(msg.payload);
    switch (reader.u8()) {
      case replica::kAcquireLock:
        handle_acquire(reader);
        break;
      case replica::kReleaseLock:
        handle_release(reader);
        break;
      case replica::kRegisterLock: {
        const auto reg = replica::RegisterLockMsg::decode(reader);
        LockState& lock = locks_[reg.lock_id];
        lock.id = reg.lock_id;
        lock.holders.insert(reg.site);
        util::MutexLock guard(mu_);
        ++stats_.registrations;
        break;
      }
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

void LockServer::handle_acquire(util::WireReader& reader) {
  const auto msg = replica::AcquireLockMsg::decode(reader);
  Request req;
  req.lock_id = msg.lock_id;
  req.site = msg.site;
  req.grant_port = msg.grant_port;
  req.data_port = msg.data_port;
  req.expected_hold_us = msg.expected_hold_us != 0
                             ? msg.expected_hold_us
                             : static_cast<std::uint64_t>(
                                   opts_.default_expected_hold_us);
  req.mode = msg.mode;
  req.nonce = msg.nonce;
  req.enqueued_at_us = Clock::monotonic().now_us();
  tm_acquires_->add();
  FlightRecorder::record(trace::EventKind::kLockRequested, endpoint_.node(),
                         req.site, req.lock_id, 0, req.nonce);

  if (is_blacklisted(req.site)) {
    // §4: a thread whose lock was broken is prevented from future requests.
    send_grant(req, 0, GrantFlag::kRejected, {});
    return;
  }

  LockState& lock = locks_[req.lock_id];
  lock.id = req.lock_id;
  lock.holders.insert(req.site);
  lock.waiting.push_back(req);
  ++queued_waiters_;
  grant_from_queue(lock);
  publish_gauges();
}

void LockServer::grant_from_queue(LockState& lock) {
  // Strict FIFO with shared batching — same policy as the sim SyncService:
  // the head is granted; while it is shared, the consecutive run of shared
  // requests behind it joins, so a waiting writer blocks later readers.
  while (!lock.waiting.empty()) {
    const Request& head = lock.waiting.front();
    if (head.mode == LockWireMode::kExclusive) {
      if (!lock.active.empty()) return;
      Request req = head;
      lock.waiting.pop_front();
      --queued_waiters_;
      activate(lock, std::move(req));
      return;
    }
    if (lock.has_active_exclusive()) return;
    Request req = head;
    lock.waiting.pop_front();
    --queued_waiters_;
    activate(lock, std::move(req));
    // continue: grant the consecutive shared run
  }
}

void LockServer::activate(LockState& lock, Request req) {
  // §4 failure detection as a continuation: one reactor timer per active
  // hold replaces the old periodic lease scan. The timer is cancelled on
  // release; (site, nonce) re-checked at expiry for the cancel/fire race.
  const std::int64_t now_us = Clock::monotonic().now_us();
  req.granted_at_us = now_us;
  tm_wait_us_->record(now_us - req.enqueued_at_us);
  tm_grants_->add();
  FlightRecorder::record(trace::EventKind::kLockGranted, endpoint_.node(),
                         req.site, req.lock_id, lock.version, req.nonce);
  const std::int64_t lease_deadline_us =
      now_us + static_cast<std::int64_t>(req.expected_hold_us) +
      opts_.lease_grace_us;
  req.lease_timer = endpoint_.reactor().call_at(
      lease_deadline_us,
      [this, lock_id = req.lock_id, site = req.site, nonce = req.nonce] {
        on_lease_expired(lock_id, site, nonce);
      });

  // Version 0 = no release yet, every holder still has initial contents.
  // Otherwise the up-to-date set decides whether the requester's copy is
  // current — with UR=1 this degenerates to the paper's lastLockOwner check,
  // and a current requester skips the transfer entirely. A NEED_NEW_VERSION
  // grant names the last owner as transfer_from; the client pulls the
  // replica bundle from that site's daemon.
  const bool current =
      lock.version == 0 || lock.up_to_date.contains(req.site);
  send_grant(req, lock.version,
             current ? GrantFlag::kVersionOk : GrantFlag::kNeedNewVersion,
             lock.holders, current ? 0 : lock.last_owner.value_or(0));
  lock.active.push_back(std::move(req));
  ++active_leases_;
  util::MutexLock guard(mu_);
  ++stats_.grants;
}

void LockServer::send_grant(const Request& req, replica::Version version,
                            GrantFlag flag,
                            const std::set<std::uint32_t>& holders,
                            std::uint32_t transfer_from) {
  replica::GrantMsg grant;
  grant.lock_id = req.lock_id;
  grant.nonce = req.nonce;
  grant.version = version;
  grant.flag = flag;
  grant.transfer_from = transfer_from;
  grant.holders.assign(holders.begin(), holders.end());
  util::Buffer msg;
  grant.encode(msg);
  endpoint_.send(req.site, req.grant_port, std::move(msg));
}

void LockServer::handle_release(util::WireReader& reader) {
  const auto msg = replica::ReleaseLockMsg::decode(reader);
  auto it = locks_.find(msg.lock_id);
  if (it == locks_.end()) return;
  LockState& lock = it->second;

  auto active_it = std::find_if(
      lock.active.begin(), lock.active.end(),
      [&](const Request& r) { return r.site == msg.site; });
  if (active_it != lock.active.end()) {
    endpoint_.reactor().cancel(active_it->lease_timer);
    tm_hold_us_->record(Clock::monotonic().now_us() -
                        active_it->granted_at_us);
    FlightRecorder::record(trace::EventKind::kLockReleased, endpoint_.node(),
                           msg.site, msg.lock_id, msg.new_version,
                           active_it->nonce);
    lock.active.erase(active_it);
    --active_leases_;
  } else {
    if (!lock.active.empty() || is_blacklisted(msg.site)) {
      // Stale release — e.g. from an owner whose lock was already broken.
      return;
    }
  }

  if (msg.mode == LockWireMode::kExclusive) {
    lock.version = msg.new_version;
    lock.last_owner = msg.site;
    lock.up_to_date.clear();
    lock.up_to_date.insert(msg.up_to_date.begin(), msg.up_to_date.end());
  } else {
    // A reader received (or already had) the current version.
    lock.up_to_date.insert(msg.site);
  }
  tm_releases_->add();
  {
    util::MutexLock guard(mu_);
    ++stats_.releases;
  }
  grant_from_queue(lock);
  publish_gauges();
}

void LockServer::on_lease_expired(replica::LockId lock_id, std::uint32_t site,
                                  std::uint64_t nonce) {
  auto it = locks_.find(lock_id);
  if (it == locks_.end()) return;
  LockState& lock = it->second;
  auto active_it = std::find_if(
      lock.active.begin(), lock.active.end(), [&](const Request& r) {
        return r.site == site && r.nonce == nonce;
      });
  if (active_it == lock.active.end()) return;  // released before we fired

  // §4, failure of a lock-owning thread. The sim service confirms with a
  // daemon heartbeat first; the live runtime has no heartbeat path yet, so
  // an expired lease breaks the lock directly.
  lock.active.erase(active_it);
  --active_leases_;
  lock.holders.erase(site);
  lock.up_to_date.erase(site);
  blacklist_site(site);
  tm_lease_breaks_->add();
  FlightRecorder::record(trace::EventKind::kLockBroken, endpoint_.node(),
                         site, lock_id, 0, nonce);
  {
    util::MutexLock guard(mu_);
    ++stats_.locks_broken;
  }
  MOCHA_INFO("live") << "lock " << lock_id << " broken: site " << site
                     << " exceeded its lease; site blacklisted";
  grant_from_queue(lock);
  publish_gauges();
}

void LockServer::blacklist_site(std::uint32_t site) {
  util::MutexLock guard(mu_);
  blacklist_[site] = opts_.blacklist_ttl_us > 0
                         ? Clock::monotonic().now_us() + opts_.blacklist_ttl_us
                         : INT64_MAX;
}

}  // namespace mocha::live
