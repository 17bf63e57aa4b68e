#include "replica/lock.h"

#include <algorithm>

#include "replica/replica_system.h"
#include "runtime/system.h"
#include "util/log.h"

namespace mocha::replica {

namespace {

SiteReplicaRuntime& site_runtime_of(runtime::Mocha& mocha) {
  SiteReplicaRuntime* rt = mocha.replica_runtime();
  if (rt == nullptr) {
    throw std::logic_error(
        "no ReplicaSystem installed: construct replica::ReplicaSystem after "
        "adding sites");
  }
  return *rt;
}

}  // namespace

ReplicaLock::ReplicaLock(LockId lock_id, runtime::Mocha& mocha)
    : id_(lock_id),
      mocha_(mocha),
      site_(site_runtime_of(mocha)),
      local_(site_.lock_local(lock_id)) {
  if (local_.grant_port == 0) {
    // First ReplicaLock for this id at this site: allocate the per-lock
    // grant/data reply ports and register this site as a replica holder
    // with the synchronization thread.
    local_.grant_port = mocha_.alloc_reply_port();
    local_.data_port = mocha_.alloc_reply_port();
    site_.system().endpoint(site_.site()).send(site_.sync_site(),
                                               runtime::ports::kSync,
                                               site_.client().register_msg(id_));
  }
}

void ReplicaLock::associate(const std::shared_ptr<Replica>& replica) {
  auto& names = local_.replica_names;
  if (std::find(names.begin(), names.end(), replica->name()) == names.end()) {
    names.push_back(replica->name());
  }
  replica->set_guard(&local_);
}

void ReplicaLock::set_update_replication(int ur) {
  local_.ur = std::max(1, ur);
}

int ReplicaLock::update_replication() const { return local_.ur; }

bool ReplicaLock::held() const { return local_.held; }

Version ReplicaLock::version() const { return local_.version; }

util::Status ReplicaLock::lock(sim::Duration expected_hold) {
  return lock_internal(expected_hold, /*shared=*/false);
}

util::Status ReplicaLock::lock_shared(sim::Duration expected_hold) {
  return lock_internal(expected_hold, /*shared=*/true);
}

util::Status ReplicaLock::lock_internal(sim::Duration expected_hold,
                                        bool shared) {
  ReplicaSystem& system = site_.system();
  const ReplicaOptions& opts = system.options();
  net::MochaNetEndpoint& endpoint = system.endpoint(site_.site());

  // Paper Fig 5: local threads serialize before talking to the sync thread.
  while (local_.busy) local_.local_waiters->wait();
  local_.busy = true;

  auto fail = [this](util::Status status) {
    local_.busy = false;
    local_.local_waiters->notify_one();
    return status;
  };

  const sim::Time t_request = system.scheduler().now();

  // Drain leftovers from earlier cycles (a stale grant after a timed-out
  // acquire, or a duplicate transfer whose directive ACK was lost) so they
  // cannot be mistaken for this cycle's replies.
  while (endpoint.recv_for(local_.grant_port, 0).has_value()) {
  }
  while (endpoint.recv_for(local_.data_port, 0).has_value()) {
  }

  LockClientCore& client = site_.client();
  auto send_acquire = [&](runtime::SiteId sync_site) {
    endpoint.send(
        sync_site, runtime::ports::kSync,
        client.acquire(local_,
                       shared ? LockWireMode::kShared
                              : LockWireMode::kExclusive,
                       expected_hold != 0 ? expected_hold
                                          : opts.default_expected_hold));
  };
  GrantMsg granted;
  auto await_grant = [&]() -> std::optional<LockClientCore::Grant> {
    const sim::Time deadline = system.scheduler().now() + opts.grant_timeout;
    while (system.scheduler().now() < deadline) {
      auto msg = endpoint.recv_for(local_.grant_port,
                                   deadline - system.scheduler().now());
      if (!msg.has_value()) return std::nullopt;
      const auto answer = client.on_grant(local_, msg->payload, &granted);
      if (answer != LockClientCore::Grant::kStale) return answer;
    }
    return std::nullopt;
  };

  runtime::SiteId sync_site = site_.sync_site();
  send_acquire(sync_site);
  auto grant = await_grant();
  if (!grant.has_value()) {
    // §4 recovery: the synchronization thread may have failed over while our
    // request was pending. The local daemon knows the surrogate's location
    // if it saw the announcement; a node that was down during the broadcast
    // asks its peers. Retrying is safe: the old request died with the old
    // sync thread.
    if (site_.sync_site() == sync_site && opts.enable_sync_recovery) {
      (void)site_.discover_sync_site(mocha_.alloc_reply_port(),
                                     opts.grant_timeout);
    }
    if (site_.sync_site() != sync_site) {
      sync_site = site_.sync_site();
      send_acquire(sync_site);
      grant = await_grant();
    }
  }
  if (!grant.has_value()) {
    return fail(util::Status(util::StatusCode::kTimeout,
                             "lock " + std::to_string(id_) +
                                 ": no GRANT from synchronization thread"));
  }
  local_.last_grant_latency = system.scheduler().now() - t_request;
  local_.last_transfer_latency = 0;
  local_.holders.assign(granted.holders.begin(), granted.holders.end());

  if (*grant == LockClientCore::Grant::kRejected) {
    return fail(util::Status(
        util::StatusCode::kRejected,
        "site is blacklisted after a broken lock (failed while owning)"));
  }

  if (*grant == LockClientCore::Grant::kTransfer) {
    // A daemon (the last owner's, or a poll-selected survivor) transfers the
    // replicas directly into this thread's address space.
    const sim::Time t_grant = system.scheduler().now();
    net::BulkTransport bulk(endpoint, system.transfer_mode());
    auto data = bulk.recv_bulk(local_.data_port, opts.data_timeout);
    if (!data.is_ok()) {
      return fail(util::Status(util::StatusCode::kTimeout,
                               "lock " + std::to_string(id_) +
                                   ": replica transfer never arrived (" +
                                   data.status().to_string() + ")"));
    }
    site_.daemon().apply(data.value().payload);  // a stale one changes nothing
    client.on_transfer(local_, site_.daemon().version(id_));
    local_.last_transfer_latency = system.scheduler().now() - t_grant;
  }
  return util::Status::ok();
}

util::Status ReplicaLock::unlock() {
  if (!local_.held) {
    return util::Status(util::StatusCode::kInvalid,
                        "unlock() without a held lock");
  }
  ReplicaSystem& system = site_.system();
  const ReplicaOptions& opts = system.options();
  net::MochaNetEndpoint& endpoint = system.endpoint(site_.site());
  const bool shared = local_.shared;

  // Shared releases publish nothing: no version bump, no dissemination.
  const Version new_version = site_.client().release(local_);
  site_.daemon().publish(id_, new_version);
  if (!shared) {
    for (const std::string& name : local_.replica_names) {
      if (auto replica = site_.find_replica(name)) {
        replica->set_version(new_version);
      }
    }
  }

  // Push-based update dissemination (§4): ship the new state to UR-1 other
  // registered holders before releasing, choosing replacements when a
  // target has failed.
  std::vector<runtime::SiteId> up_to_date{site_.site()};
  if (!shared && local_.ur > 1 && !local_.replica_names.empty()) {
    const util::Buffer data = site_.daemon().encode(id_);

    net::BulkTransport bulk(endpoint, system.transfer_mode());
    int needed = local_.ur - 1;
    for (runtime::SiteId target : local_.holders) {
      if (needed == 0) break;
      if (target == site_.site()) continue;
      util::Status sent = bulk.send_bulk(target, kDaemonDataPort, data,
                                         opts.disseminate_timeout);
      if (sent.is_ok()) {
        up_to_date.push_back(target);
        --needed;
      } else {
        // Failure detected while disseminating: skip to the next candidate
        // daemon (§4, failure of non-lock-owning thread).
        MOCHA_INFO("lock") << "dissemination to site " << target
                           << " failed, choosing replacement: "
                           << sent.to_string();
      }
    }
  }

  auto build_release = [&] {
    return site_.client().release_msg(local_, up_to_date);
  };
  if (opts.enable_sync_recovery) {
    // The release must reach a live synchronization thread or its version is
    // lost across a failover; wait for the transport ack and re-route via
    // the local daemon's knowledge on silence.
    util::Status sent =
        endpoint.send_sync(site_.sync_site(), runtime::ports::kSync,
                           build_release(), opts.transfer_timeout);
    if (!sent.is_ok()) {
      // Give the watchdog time to promote the surrogate, then re-route to
      // wherever the local daemon now says the sync thread lives.
      system.scheduler().sleep_for(
          opts.sync_probe_interval *
          static_cast<sim::Duration>(opts.sync_probe_misses + 1));
      endpoint.send(site_.sync_site(), runtime::ports::kSync, build_release());
    }
  } else {
    endpoint.send(site_.sync_site(), runtime::ports::kSync, build_release());
  }

  // Paper Fig 5: notify a waiting local thread; no local handoff — it must
  // go through the sync thread so acquisition stays fair.
  local_.busy = false;
  local_.local_waiters->notify_one();
  return util::Status::ok();
}

}  // namespace mocha::replica
