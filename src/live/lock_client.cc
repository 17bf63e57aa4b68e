#include "live/lock_client.h"

#include <arpa/inet.h>

#include "util/log.h"

namespace mocha::live {

using replica::GrantFlag;
using replica::LockWireMode;

LockClient::LockClient(Endpoint& endpoint, net::NodeId server,
                       LockClientOptions opts, DaemonService* daemon)
    : endpoint_(endpoint),
      server_(server),
      opts_(opts),
      daemon_(daemon),
      clock_(&Clock::monotonic()),
      next_port_(opts.reply_port_base),
      nonce_(opts.nonce_seed) {
  const std::string prefix =
      "client." + std::to_string(endpoint.node()) + ".";
  MetricsRegistry& registry = MetricsRegistry::global();
  tm_acquire_grant_us_ = registry.histogram(prefix + "acquire_grant_us");
  tm_grant_transfer_us_ = registry.histogram(prefix + "grant_transfer_us");
}

LockClient::LockLocal& LockClient::local(replica::LockId lock_id) {
  auto it = locks_.find(lock_id);
  if (it == locks_.end()) {
    it = locks_.emplace(lock_id, LockLocal{}).first;
    it->second.grant_port = next_port_++;
    it->second.data_port = next_port_++;
  }
  return it->second;
}

net::NodeId LockClient::home_for(replica::LockId lock_id) const {
  return shard_map_.empty() ? server_ : shard_map_.node_of(lock_id);
}

util::Status LockClient::fetch_shard_map(std::int64_t timeout_us) {
  // A dedicated reply port: the handshake happens before any lock traffic,
  // but a shared port would let a stale reply bleed into later resolves.
  const net::Port reply_port = next_port_++;
  util::Buffer query;
  replica::ShardMapRequestMsg{reply_port}.encode(query);
  endpoint_.send(server_, replica::kSyncPort, std::move(query));

  const std::int64_t deadline = clock_->now_us() + timeout_us;
  while (true) {
    const std::int64_t now = clock_->now_us();
    if (now >= deadline) {
      return util::Status(util::StatusCode::kTimeout,
                          "no kShardMapReply from the bootstrap server");
    }
    auto reply = endpoint_.recv_for(reply_port, deadline - now);
    if (!reply.has_value()) continue;
    util::WireReader reader(reply->payload);
    if (reader.u8() != replica::kShardMapReply) continue;
    const auto msg = replica::ShardMapReplyMsg::decode(reader);
    for (const auto& entry : msg.shards) {
      // ipv4 == 0: not advertised — keep the existing route (the bootstrap
      // server itself, typically). Never clobber the bootstrap address
      // either; we demonstrably reach it already.
      if (entry.ipv4 == 0 || entry.node == server_) continue;
      in_addr ip{};
      ip.s_addr = entry.ipv4;  // already network byte order
      char quad[INET_ADDRSTRLEN] = {};
      if (::inet_ntop(AF_INET, &ip, quad, sizeof(quad)) == nullptr) continue;
      endpoint_.add_peer(entry.node, quad, entry.udp_port);
    }
    shard_map_ = ShardMap(msg.shards);
    return util::Status::ok();
  }
}

void LockClient::register_lock(replica::LockId lock_id) {
  local(lock_id);  // allocate reply ports
  util::Buffer msg;
  replica::RegisterLockMsg{lock_id, endpoint_.node()}.encode(msg);
  endpoint_.send(home_for(lock_id), replica::kSyncPort, std::move(msg));
}

bool LockClient::ensure_peer(net::NodeId node, net::NodeId via,
                             net::Port reply_port, std::int64_t timeout_us) {
  if (endpoint_.knows_peer(node)) return true;
  util::Buffer query;
  replica::ResolveNodeMsg{node, reply_port}.encode(query);
  endpoint_.send(via, replica::kSyncPort, std::move(query));

  const std::int64_t deadline = clock_->now_us() + timeout_us;
  while (true) {
    const std::int64_t now = clock_->now_us();
    if (now >= deadline) return false;
    auto reply = endpoint_.recv_for(reply_port, deadline - now);
    if (!reply.has_value()) continue;
    util::WireReader reader(reply->payload);
    if (reader.u8() != replica::kNodeAddr) continue;
    const auto addr = replica::NodeAddrMsg::decode(reader);
    if (addr.node != node) continue;
    if (addr.known == 0) return false;
    in_addr ip{};
    ip.s_addr = addr.ipv4;  // already network byte order
    char quad[INET_ADDRSTRLEN] = {};
    if (::inet_ntop(AF_INET, &ip, quad, sizeof(quad)) == nullptr) return false;
    endpoint_.add_peer(node, quad, addr.udp_port);
    return true;
  }
}

void LockClient::send_pull_directive(net::NodeId owner,
                                     replica::LockId lock_id,
                                     replica::Version version) {
  replica::TransferReplicaMsg directive;
  directive.lock_id = lock_id;
  directive.version = version;
  directive.dst_site = endpoint_.node();
  directive.dst_port = replica::kDaemonDataPort;
  util::Buffer msg;
  directive.encode(msg);
  endpoint_.send(owner, replica::kDaemonPort, std::move(msg));
}

util::Status LockClient::pull_replica(replica::LockId lock_id,
                                      const LockLocal& lk,
                                      const replica::GrantMsg& grant) {
  const replica::Version target = grant.version;
  if (daemon_->local_version(lock_id) >= target) {
    // lastLockOwner in effect: the newest bundle is already here (a
    // previous hold, or a push that raced the grant). Zero data frames.
    return util::Status::ok();
  }

  // Resolve and retry against the shard owning this lock: it is the party
  // that granted the lock, so its peer table has heard from every holder.
  const net::NodeId home = home_for(lock_id);
  const net::NodeId owner = grant.transfer_from;
  if (owner != 0 && owner != endpoint_.node() &&
      ensure_peer(owner, home, lk.grant_port, opts_.transfer_timeout_us)) {
    // Advertise our bulk-receive capabilities before the directive (once per
    // peer; in-order delivery guarantees the hello lands first), so the
    // serving daemon may answer over the fast backend (§10).
    daemon_->announce_bulk(owner);
    send_pull_directive(owner, lock_id, target);
    util::Status direct =
        daemon_->wait_for_version(lock_id, target, opts_.transfer_timeout_us);
    if (direct.is_ok()) {
      ++transfers_pulled_;
      return direct;
    }
  }

  // §4 fallback: the owner's daemon is unreachable or its bundle never
  // landed. Retry against the home daemon (the lock server's site),
  // accepting whatever version it holds — possibly older than `target`
  // (weakened consistency, mirroring the sim's poll-and-redirect).
  ++transfer_retries_;
  const std::uint64_t applied_before = daemon_->transfers_applied(lock_id);
  daemon_->announce_bulk(home);
  send_pull_directive(home, lock_id, target);
  util::Status retried = daemon_->wait_for_apply(lock_id, applied_before,
                                                 opts_.transfer_timeout_us);
  if (retried.is_ok()) {
    ++transfers_pulled_;
    return retried;
  }
  ++transfer_timeouts_;
  return util::Status(util::StatusCode::kTimeout,
                      "lock " + std::to_string(lock_id) +
                          ": promised replica transfer (version " +
                          std::to_string(target) + " from site " +
                          std::to_string(owner) +
                          ") never arrived, home retry timed out");
}

util::Status LockClient::acquire(replica::LockId lock_id, LockWireMode mode,
                                 std::int64_t expected_hold_us) {
  LockLocal& lk = local(lock_id);
  if (lk.held) {
    return util::Status(util::StatusCode::kInvalid,
                        "lock " + std::to_string(lock_id) +
                            " already held by this client");
  }

  // Drain leftovers from earlier cycles (a stale grant after a timed-out
  // acquire) so they cannot be mistaken for this cycle's reply.
  while (endpoint_.recv_for(lk.grant_port, 0).has_value()) {
  }

  const std::int64_t t_request = clock_->now_us();
  const std::uint64_t nonce = ++nonce_;
  replica::AcquireLockMsg msg;
  msg.lock_id = lock_id;
  msg.site = endpoint_.node();
  msg.grant_port = lk.grant_port;
  msg.data_port = lk.data_port;
  msg.expected_hold_us = static_cast<std::uint64_t>(expected_hold_us);
  msg.mode = mode;
  msg.nonce = nonce;
  util::Buffer request;
  msg.encode(request);
  endpoint_.send(home_for(lock_id), replica::kSyncPort, std::move(request));
  FlightRecorder::record(trace::EventKind::kLockRequested, endpoint_.node(),
                         home_for(lock_id), lock_id, 0, nonce);

  const std::int64_t deadline = t_request + opts_.grant_timeout_us;
  while (true) {
    const std::int64_t now = clock_->now_us();
    if (now >= deadline) {
      return util::Status(util::StatusCode::kTimeout,
                          "lock " + std::to_string(lock_id) +
                              ": no GRANT from lock server");
    }
    auto reply = endpoint_.recv_for(lk.grant_port, deadline - now);
    if (!reply.has_value()) continue;
    util::WireReader reader(reply->payload);
    if (reader.u8() != replica::kGrant) continue;
    const auto grant = replica::GrantMsg::decode(reader);
    if (grant.nonce != nonce) continue;  // stale grant: discard

    if (grant.flag == GrantFlag::kRejected) {
      return util::Status(
          util::StatusCode::kRejected,
          "site is blacklisted after a broken lock (failed while owning)");
    }
    const std::int64_t t_grant = clock_->now_us();
    last_grant_latency_us_ = t_grant - t_request;
    tm_acquire_grant_us_->record(last_grant_latency_us_);
    FlightRecorder::record(trace::EventKind::kLockGranted, endpoint_.node(),
                           home_for(lock_id), lock_id, grant.version, nonce);

    if (grant.flag == GrantFlag::kNeedNewVersion && daemon_ != nullptr) {
      util::Status pulled = pull_replica(lock_id, lk, grant);
      if (pulled.is_ok()) {
        tm_grant_transfer_us_->record(clock_->now_us() - t_grant);
      }
      if (!pulled.is_ok()) {
        // Do NOT release: the server believes this site holds the lock and
        // its lease breaker owns the cleanup (same as the sim's ReplicaLock
        // on a data timeout). Releasing here would publish a version whose
        // contents never arrived.
        return pulled;
      }
    }
    // kVersionOk (and transfer-less clients): adopt the version number so
    // release arithmetic stays consistent across holders.
    lk.version = grant.version;
    lk.held = true;
    lk.shared = mode == LockWireMode::kShared;
    lk.nonce = nonce;
    ++acquires_;
    return util::Status::ok();
  }
}

util::Status LockClient::release(replica::LockId lock_id) {
  LockLocal& lk = local(lock_id);
  if (!lk.held) {
    return util::Status(util::StatusCode::kInvalid,
                        "release() without a held lock");
  }
  const bool shared = lk.shared;
  const replica::Version new_version = shared ? lk.version : lk.version + 1;
  lk.version = new_version;
  lk.held = false;
  lk.shared = false;

  // Stamp the daemon before the RELEASE leaves: the server only grants the
  // next requester after this message arrives, so any pull directed at this
  // site's daemon finds contents and version already published.
  if (daemon_ != nullptr) daemon_->publish(lock_id, new_version);

  replica::ReleaseLockMsg msg;
  msg.lock_id = lock_id;
  msg.site = endpoint_.node();
  msg.new_version = new_version;
  msg.up_to_date = {endpoint_.node()};
  msg.mode = shared ? LockWireMode::kShared : LockWireMode::kExclusive;
  util::Buffer release;
  msg.encode(release);
  endpoint_.send(home_for(lock_id), replica::kSyncPort, std::move(release));
  ++releases_;
  FlightRecorder::record(trace::EventKind::kLockReleased, endpoint_.node(),
                         home_for(lock_id), lock_id, new_version, lk.nonce);
  return util::Status::ok();
}

bool LockClient::held(replica::LockId lock_id) const {
  auto it = locks_.find(lock_id);
  return it != locks_.end() && it->second.held;
}

replica::Version LockClient::version(replica::LockId lock_id) const {
  auto it = locks_.find(lock_id);
  return it == locks_.end() ? 0 : it->second.version;
}

}  // namespace mocha::live
