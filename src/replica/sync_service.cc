#include "replica/sync_service.h"

#include "replica/replica_system.h"
#include "util/log.h"

namespace mocha::replica {

// The transport-neutral protocol constant and the simulated runtime's port
// table must agree — both backends listen on this port.
static_assert(kSyncPort == runtime::ports::kSync);
static_assert(kDaemonPort == runtime::ports::kDaemon);

SyncService::SyncService(ReplicaSystem& system, runtime::SiteId site)
    : system_(system),
      site_(site),
      dir_(*this,
           {static_cast<std::int64_t>(system.options().lease_grace),
            system.options().disable_version_ok}) {
  const SyncStateLog& log = system_.sync_log();
  dir_.restore(log.locks, log.blacklist);
  replicas_ = log.replicas;
  cached_ = log.cached;
  system_.scheduler().spawn(
      "syncthread@" + system_.mocha().site_name(site_), [this] { loop(); });
}

std::int64_t SyncService::now() const {
  return static_cast<std::int64_t>(system_.scheduler().now());
}

void SyncService::log_replica(const std::string& name) {
  SyncStateLog& log = system_.sync_log();
  log.replicas[name] = replicas_.at(name);
  ++log.writes;
}

void SyncService::loop() {
  endpoint_ = &system_.endpoint(site_);
  while (true) {
    auto msg = next_message();
    if (msg.has_value()) handle(std::move(*msg));
    scan_leases();
  }
}

std::optional<net::MochaNetEndpoint::Message> SyncService::next_message() {
  if (!stash_.empty()) {
    auto msg = std::move(stash_.front());
    stash_.pop_front();
    return msg;
  }
  // Wake periodically to scan leases only while some lock is actually held;
  // otherwise block outright so an idle system quiesces (and Scheduler::run
  // can return).
  if (dir_.active_holds() == 0) return endpoint_->recv(runtime::ports::kSync);
  return endpoint_->recv_for(runtime::ports::kSync,
                             system_.options().lease_check_interval);
}

void SyncService::handle(net::MochaNetEndpoint::Message msg) {
  if (dir_.handle(now(), msg.payload)) return;
  util::WireReader reader(msg.payload);
  switch (reader.u8()) {
    case kRegisterReplica: {
      std::string name = reader.str();
      const runtime::SiteId site = reader.u32();
      ReplicaDirectoryEntry entry;
      entry.type = reader.str();
      entry.r_copies = static_cast<int>(reader.u32());
      entry.initial_blob = reader.bytes();
      entry.sites.insert(site);
      replicas_[name] = std::move(entry);
      log_replica(name);
      break;
    }
    case kAttachReplica: {
      const std::string name = reader.str();
      const runtime::SiteId site = reader.u32();
      const net::Port reply_port = reader.u16();
      util::Buffer reply;
      util::WireWriter writer(reply);
      writer.u8(kAttachReply);
      auto it = replicas_.find(name);
      if (it == replicas_.end()) {
        writer.boolean(false);
        writer.str("");
        writer.bytes(util::Buffer{});
      } else {
        it->second.sites.insert(site);
        log_replica(name);
        writer.boolean(true);
        writer.str(it->second.type);
        writer.bytes(it->second.initial_blob);
      }
      endpoint_->send(site, reply_port, std::move(reply));
      break;
    }
    case kPublishCached:
      handle_publish_cached(reader);
      break;
    case kRefreshCached:
      handle_refresh_cached(reader);
      break;
    default:
      break;
  }
}

// --- §7 non-synchronization-based consistency: cached-object directory ---

void SyncService::handle_publish_cached(util::WireReader& reader) {
  const std::string name = reader.str();
  const runtime::SiteId site = reader.u32();
  const net::Port reply_port = reader.u16();
  VersionVector vv = VersionVector::decode(reader);
  util::Buffer blob = reader.bytes();

  auto it = cached_.find(name);
  const bool accept =
      it == cached_.end() || vv.dominates_or_equals(it->second.vv);

  util::Buffer reply;
  util::WireWriter writer(reply);
  writer.u8(kPublishReply);
  writer.boolean(accept);
  if (accept) {
    cached_[name] = SyncStateLog::CachedRecord{std::move(blob), vv};
    system_.sync_log().cached[name] = cached_[name];
    ++system_.sync_log().writes;
    VersionVector{}.encode(writer);
    writer.bytes(util::Buffer{});
  } else {
    // Conflict (or stale publisher): hand back the directory state so the
    // client can detect and resolve (Bayou/Coda/Rover style).
    it->second.vv.encode(writer);
    writer.bytes(it->second.blob);
  }
  endpoint_->send(site, reply_port, std::move(reply));
}

void SyncService::handle_refresh_cached(util::WireReader& reader) {
  const std::string name = reader.str();
  const runtime::SiteId site = reader.u32();
  const net::Port reply_port = reader.u16();

  util::Buffer reply;
  util::WireWriter writer(reply);
  writer.u8(kRefreshReply);
  auto it = cached_.find(name);
  writer.boolean(it != cached_.end());
  if (it != cached_.end()) {
    it->second.vv.encode(writer);
    writer.bytes(it->second.blob);
  } else {
    VersionVector{}.encode(writer);
    writer.bytes(util::Buffer{});
  }
  endpoint_->send(site, reply_port, std::move(reply));
}

// --- LockDirectorySink: the core's outputs as simulated I/O ---

void SyncService::send_grant(const LockHold& hold, const GrantMsg& grant) {
  util::Buffer msg;
  grant.encode(msg);
  endpoint_->send(hold.site, hold.grant_port, std::move(msg));
}

void SyncService::record_changed(LockId id, const LockRecord& record) {
  SyncStateLog& log = system_.sync_log();
  log.locks[id] = record;
  ++log.writes;
}

void SyncService::trace(const LockEvent& event) {
  const sim::Time time = system_.scheduler().now();
  const bool broken = event.kind == trace::EventKind::kLockBroken;
  if (auto* tracer = system_.mocha().network().tracer()) {
    tracer->record(event.kind, time, event.site, site_, event.lock_id,
                   !broken && event.mode == LockWireMode::kShared ? 1 : 0);
    if (broken) {
      tracer->record(trace::EventKind::kFailureDetected, time, event.site,
                     site_, event.lock_id, 0);
    }
  }
  if (!broken) return;
  system_.sync_log().blacklist.insert(event.site);
  system_.mocha().event_log().record(
      time, runtime::EventKind::kFailure, system_.mocha().site_name(event.site),
      "lock " + std::to_string(event.lock_id) +
          " broken (owner failed while holding); site blacklisted");
}

void SyncService::transfer_needed(const TransferDirective& directive) {
  // The directive's transport ack is the failure detector (§4).
  util::Buffer msg;
  directive.msg.encode(msg);
  const bool delivered =
      endpoint_
          ->send_sync(directive.daemon, runtime::ports::kDaemon,
                      std::move(msg), system_.options().transfer_timeout)
          .is_ok();
  if (delivered) {
    dir_.transfer_delivered(now(), directive.id);
  } else {
    dir_.transfer_failed(now(), directive.id);
  }
}

void SyncService::send_poll(std::uint64_t /*transfer_id*/,
                            runtime::SiteId daemon,
                            const PollVersionMsg& poll) {
  util::Buffer msg;
  poll.encode(msg);
  endpoint_->send(daemon, runtime::ports::kDaemon, std::move(msg));
}

void SyncService::poll_window(std::uint64_t transfer_id) {
  // Nothing else runs on this thread during the window: reports go to the
  // core, unrelated traffic is handled afterwards.
  sim::Scheduler& sched = system_.scheduler();
  const sim::Time deadline = sched.now() + system_.options().poll_window;
  while (dir_.polling(transfer_id) && sched.now() < deadline) {
    auto msg =
        endpoint_->recv_for(runtime::ports::kSync, deadline - sched.now());
    if (!msg.has_value()) break;
    if (!msg->payload.empty() &&
        util::WireReader(msg->payload).u8() == kVersionReport) {
      dir_.handle(now(), msg->payload);
    } else {
      stash_.push_back(std::move(*msg));
    }
  }
  dir_.poll_window_closed(now(), transfer_id);
}

void SyncService::transfer_step(TransferStep step,
                                const TransferDirective& directive,
                                Version lock_version) {
  const sim::Time time = system_.scheduler().now();
  const LockId lock_id = directive.msg.lock_id;
  switch (step) {
    case TransferStep::kOwnerFailed:
      // §4, failure of a non-lock-owning thread: the transfer directive
      // timed out, so the daemon (and its node) are presumed failed.
      ++failures_detected_;
      if (auto* tracer = system_.mocha().network().tracer()) {
        tracer->record(trace::EventKind::kFailureDetected, time,
                       directive.daemon, site_, lock_id, 0);
      }
      system_.mocha().event_log().record(
          time, runtime::EventKind::kFailure,
          system_.mocha().site_name(directive.daemon),
          "daemon unresponsive while directing transfer of lock " +
              std::to_string(lock_id) + "; polling survivors");
      break;
    case TransferStep::kRedirectFailed:
      ++failures_detected_;
      break;
    case TransferStep::kWeakened:
      ++stale_forwards_;
      system_.mocha().event_log().record(
          time, runtime::EventKind::kFailure,
          system_.mocha().site_name(directive.msg.dst_site),
          "lock " + std::to_string(lock_id) + ": version " +
              std::to_string(lock_version) + " lost; forwarding version " +
              std::to_string(directive.msg.version));
      break;
    case TransferStep::kLost:
      MOCHA_ERROR("sync") << "lock " << lock_id
                          << ": no surviving daemon could serve a transfer";
      break;
  }
}

void SyncService::confirm_owner(const LockHold& hold) {
  // §4: the lock has been held for an extraordinary amount of time. Confirm
  // with a heartbeat (nothing else runs on this thread meanwhile).
  util::Buffer probe;
  util::WireWriter writer(probe);
  writer.u8(kHeartbeat);
  writer.u32(hold.lock_id);
  const bool alive =
      endpoint_
          ->send_sync(hold.site, runtime::ports::kDaemon, std::move(probe),
                      system_.options().heartbeat_timeout)
          .is_ok();
  if (!alive) ++failures_detected_;
  dir_.owner_confirmed(now(), hold.lock_id, hold.site, hold.nonce, alive);
}

void SyncService::scan_leases() {
  // One expired hold at a time: confirming it takes simulated time and may
  // grant the lock to others, so look again from the start after each.
  while (true) {
    const LockHold* expired = nullptr;
    dir_.for_each_active([&](const LockHold& hold) {
      if (expired == nullptr && now() > hold.lease_deadline_us) {
        expired = &hold;
      }
    });
    if (expired == nullptr) return;
    dir_.lease_expired(now(), expired->lock_id, expired->site, expired->nonce);
  }
}

}  // namespace mocha::replica
