// The synchronization thread of the simulated runtime (paper §3, Fig 7):
// the sim adapter around replica::LockDirectory, which the live LockServer
// runs too. One simulated thread at the home site. The §4 steps done here:
//   - "transfer needed" is a blocking directive to the owner's daemon; on
//     timeout it polls the surviving daemons for one poll window and
//     redirects the most recent *available* version (weakened consistency);
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
  // Directs `owner`'s daemon to transfer lock replicas to the requester;
  // falls back to polling on timeout.
  void transfer_needed(const LockHold& hold, runtime::SiteId owner,
                       Version version) override;
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
  // One TRANSFER_REPLICA directive to `source`'s daemon for `hold`; reports
  // the outcome to the core.
  bool send_transfer_directive(const LockHold& hold, runtime::SiteId source,
                               Version version);
  // §4 failure handling: poll registered daemons for their newest version
  // and direct the best one to transfer.
  void poll_and_redirect(const LockHold& hold);
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
