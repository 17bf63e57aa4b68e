// The synchronization thread of the simulated runtime (paper §3, Fig 7):
// the sim adapter around replica::LockDirectory, which the live LockServer
// runs too. One simulated thread at the home site. The §4 steps done here:
//   - each transfer directive the core emits is a blocking send to the
//     daemon; its transport ack (or timeout) answers the core, which polls
//     the surviving daemons and redirects on failure. The poll window
//     blocks this thread for ReplicaOptions::poll_window, or until every
//     poll is answered;
//   - leases are scanned every lease_check_interval while a lock is held,
//     and an expired one is confirmed with a blocking heartbeat first;
//   - durable facts go to the SyncStateLog, which a surrogate restores from.
// It also keeps the sim-only replica registry and §7 cached directory.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>

#include "net/mochanet.h"
#include "replica/lock_directory.h"
#include "replica/sync_log.h"
#include "replica/wire.h"
#include "runtime/system.h"

namespace mocha::replica {

class ReplicaSystem;

class SyncService : private LockDirectorySink {
 public:
  // Starts the synchronization thread at `site`, restoring durable state
  // from the system's SyncStateLog (empty on the initial home start; the
  // previous incarnation's facts after a failover).
  SyncService(ReplicaSystem& system, runtime::SiteId site);

  // --- statistics / introspection (tests & benches) ---
  std::uint64_t grants() const { return dir_.grants(); }
  std::uint64_t locks_broken() const { return dir_.locks_broken(); }
  std::uint64_t failures_detected() const { return failures_detected_; }
  std::uint64_t stale_forwards() const { return stale_forwards_; }
  bool is_blacklisted(runtime::SiteId site) const {
    return dir_.is_blacklisted(site);
  }

 private:
  // --- LockDirectorySink ---
  void send_grant(const LockHold& hold, const GrantMsg& grant) override;
  // A blocking directive; its transport ack answers the core.
  void transfer_needed(const TransferDirective& directive) override;
  void send_poll(std::uint64_t transfer_id, runtime::SiteId daemon,
                 const PollVersionMsg& poll) override;
  // Runs the poll window on this thread, feeding reports to the core.
  void poll_window(std::uint64_t transfer_id) override;
  void transfer_step(TransferStep step, const TransferDirective& directive,
                     Version lock_version) override;
  // Heartbeats the owner's daemon and answers the core.
  void confirm_owner(const LockHold& hold) override;
  void record_changed(LockId id, const LockRecord& record) override;
  void trace(const LockEvent& event) override;

  std::int64_t now() const;
  void log_replica(const std::string& name);

  void loop();
  // Delivers the next sync-port message, honoring the pending stash and
  // waking up at least every lease_check_interval while any lock is held.
  std::optional<net::MochaNetEndpoint::Message> next_message();

  void handle(net::MochaNetEndpoint::Message msg);
  void handle_publish_cached(util::WireReader& reader);
  void handle_refresh_cached(util::WireReader& reader);
  void scan_leases();

  ReplicaSystem& system_;
  runtime::SiteId site_;
  net::MochaNetEndpoint* endpoint_ = nullptr;  // endpoint of site_
  LockDirectory dir_;
  std::map<std::string, ReplicaDirectoryEntry> replicas_;
  std::map<std::string, SyncStateLog::CachedRecord> cached_;  // §7 directory
  std::deque<net::MochaNetEndpoint::Message> stash_;

  std::uint64_t failures_detected_ = 0;
  std::uint64_t stale_forwards_ = 0;
};

}  // namespace mocha::replica
