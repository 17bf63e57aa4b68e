#include "live/lock_client.h"

#include "util/log.h"

namespace mocha::live {

using replica::LockClientCore;
using replica::LockWireMode;

LockClient::LockClient(Endpoint& endpoint, net::NodeId server,
                       LockClientOptions opts, DaemonService* daemon)
    : endpoint_(endpoint),
      server_(server),
      opts_(opts),
      daemon_(daemon),
      clock_(&Clock::monotonic()),
      core_(endpoint.node(), opts.nonce_seed),
      next_port_(opts.reply_port_base) {
  const std::string prefix =
      "client." + std::to_string(endpoint.node()) + ".";
  MetricsRegistry& registry = MetricsRegistry::global();
  tm_acquire_grant_us_ = registry.histogram(prefix + "acquire_grant_us");
  tm_grant_transfer_us_ = registry.histogram(prefix + "grant_transfer_us");
}

LockClient::Lock& LockClient::local(replica::LockId lock_id) {
  auto it = locks_.find(lock_id);
  if (it == locks_.end()) {
    it = locks_.emplace(lock_id, Lock{}).first;
    it->second.id = lock_id;
    it->second.grant_port = next_port_++;
    // No data port without a replica store: the server then directs no
    // transfer here.
    if (daemon_ != nullptr) it->second.data_port = next_port_++;
  }
  return it->second;
}

net::NodeId LockClient::home_for(replica::LockId lock_id) const {
  return shard_map_.empty() ? server_ : shard_map_.node_of(lock_id);
}

util::Status LockClient::fetch_shard_map(std::int64_t timeout_us) {
  // A dedicated reply port: the handshake happens before any lock traffic,
  // and a shared port would let a stale reply bleed into a lock's replies.
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
      endpoint_.add_peer(entry.node, {entry.ipv4, entry.udp_port});
    }
    shard_map_ = ShardMap(msg.shards);
    return util::Status::ok();
  }
}

void LockClient::register_lock(replica::LockId lock_id) {
  local(lock_id).registered = true;
  endpoint_.send(home_for(lock_id), replica::kSyncPort,
                 core_.register_msg(
                     lock_id, daemon_ != nullptr ? daemon_->bulk_caps() : 0,
                     daemon_ != nullptr ? daemon_->tcp_port() : 0));
}

util::Status LockClient::await_transfer(Lock& lk, net::NodeId owner) {
  const std::int64_t deadline = clock_->now_us() + opts_.transfer_timeout_us;
  while (true) {
    const std::int64_t now = clock_->now_us();
    if (now >= deadline) {
      ++transfer_timeouts_;
      return util::Status(util::StatusCode::kTimeout,
                          "lock " + std::to_string(lk.id) +
                              ": promised replica transfer (version " +
                              std::to_string(lk.granted) + " from site " +
                              std::to_string(owner) + ") never arrived");
    }
    auto data = endpoint_.recv_for(lk.data_port, deadline - now);
    if (!data.has_value()) continue;
    // A stale or malformed bundle changes nothing; wait on for the real one.
    const auto applied = daemon_->apply_bundle(data->src, data->payload);
    if (applied.outcome != replica::DaemonCore::Apply::kApplied ||
        applied.lock_id != lk.id) {
      continue;
    }
    if (core_.on_transfer(lk, daemon_->local_version(lk.id))) {
      ++transfer_retries_;
    }
    ++transfers_pulled_;
    return util::Status::ok();
  }
}

util::Status LockClient::acquire(replica::LockId lock_id, LockWireMode mode,
                                 std::int64_t expected_hold_us) {
  Lock& lk = local(lock_id);
  if (lk.held) {
    return util::Status(util::StatusCode::kInvalid,
                        "lock " + std::to_string(lock_id) +
                            " already held by this client");
  }

  // Drain leftovers from earlier cycles (a stale grant after a timed-out
  // acquire, a bundle that landed after one) so they cannot be mistaken for
  // this cycle's replies.
  while (endpoint_.recv_for(lk.grant_port, 0).has_value()) {
  }
  if (daemon_ != nullptr) {
    while (endpoint_.recv_for(lk.data_port, 0).has_value()) {
    }
    if (!lk.registered) register_lock(lock_id);
  }

  const net::NodeId home = home_for(lock_id);
  const std::int64_t t_request = clock_->now_us();
  endpoint_.send(home, replica::kSyncPort,
                 core_.acquire(lk, mode,
                               static_cast<std::uint64_t>(expected_hold_us)));
  FlightRecorder::record(trace::EventKind::kLockRequested, endpoint_.node(),
                         home, lock_id, 0, lk.nonce);

  const std::int64_t deadline = t_request + opts_.grant_timeout_us;
  replica::GrantMsg grant;
  while (true) {
    const std::int64_t now = clock_->now_us();
    if (now >= deadline) {
      return util::Status(util::StatusCode::kTimeout,
                          "lock " + std::to_string(lock_id) +
                              ": no GRANT from lock server");
    }
    auto reply = endpoint_.recv_for(lk.grant_port, deadline - now);
    if (!reply.has_value()) continue;
    const LockClientCore::Grant answer =
        core_.on_grant(lk, reply->payload, &grant);
    if (answer == LockClientCore::Grant::kStale) continue;
    if (answer == LockClientCore::Grant::kRejected) {
      return util::Status(
          util::StatusCode::kRejected,
          "site is blacklisted after a broken lock (failed while owning)");
    }
    const std::int64_t t_grant = clock_->now_us();
    last_grant_latency_us_ = t_grant - t_request;
    tm_acquire_grant_us_->record(last_grant_latency_us_);
    FlightRecorder::record(trace::EventKind::kLockGranted, endpoint_.node(),
                           home, lock_id, grant.version, lk.nonce);

    if (answer == LockClientCore::Grant::kTransfer) {
      if (daemon_ == nullptr) {
        core_.on_transfer(lk, lk.granted);  // adopt the version number
      } else {
        // On failure do NOT release: the server believes this site holds
        // the lock and its lease breaker owns the cleanup (same as the
        // sim's ReplicaLock on a data timeout). Releasing here would
        // publish a version whose contents never arrived.
        util::Status transferred = await_transfer(lk, grant.transfer_from);
        if (!transferred.is_ok()) return transferred;
        tm_grant_transfer_us_->record(clock_->now_us() - t_grant);
      }
    }
    ++acquires_;
    return util::Status::ok();
  }
}

util::Status LockClient::release(replica::LockId lock_id) {
  Lock& lk = local(lock_id);
  if (!lk.held) {
    return util::Status(util::StatusCode::kInvalid,
                        "release() without a held lock");
  }
  const replica::Version new_version = core_.release(lk);

  // Stamp the daemon before the RELEASE leaves: the server only grants the
  // next requester after this message arrives, so any transfer directed at
  // this site's daemon finds contents and version already published.
  if (daemon_ != nullptr) daemon_->publish(lock_id, new_version);

  const std::uint32_t self = endpoint_.node();
  const net::NodeId home = home_for(lock_id);
  endpoint_.send(home, replica::kSyncPort,
                 core_.release_msg(lk, std::span(&self, 1)));
  ++releases_;
  FlightRecorder::record(trace::EventKind::kLockReleased, endpoint_.node(),
                         home, lock_id, new_version, lk.nonce);
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
