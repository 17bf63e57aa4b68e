// Per-site replica runtime of the simulated runtime: the local replica
// registry, the per-lock state shared by application threads of one site,
// and the site's *daemon thread* (paper §3) — a maximum-priority thread
// with direct access to the shared objects, which transfers replicas to
// remote requesters, applies pushed updates, answers version polls, and
// responds to heartbeats. The sim adapter around replica::DaemonCore and
// replica::LockClientCore (which ReplicaLock drives), the cores the live
// DaemonService and LockClient run too.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/bulk.h"
#include "replica/daemon_core.h"
#include "replica/lock_client_core.h"
#include "replica/replica.h"
#include "replica/wire.h"
#include "runtime/system.h"
#include "sim/scheduler.h"

namespace mocha::replica {

class ReplicaSystem;

// Tunables for the consistency + fault-tolerance machinery.
struct ReplicaOptions {
  // Marshaling cost model; jdk11() is what the paper measured (Fig 8),
  // custom() is its stated future work (ablation bench).
  serial::MarshalCostModel marshal_model = serial::MarshalCostModel::jdk11();

  // Availability knob default: number of up-to-date copies maintained at
  // unlock (UR in §4). 1 = no dissemination.
  int default_ur = 1;

  // Ablation knob: disable the lastLockOwner / up-to-date-set optimization
  // (paper Fig 7), forcing a replica transfer on every acquisition after the
  // first release. Measures what the version-number machinery buys.
  bool disable_version_ok = false;

  sim::Duration grant_timeout = sim::seconds(30);
  sim::Duration data_timeout = sim::seconds(60);
  // Sync-side timeout when directing a daemon to transfer (failure detector).
  sim::Duration transfer_timeout = sim::seconds(2);
  // Window the sync thread waits for version reports while polling daemons.
  sim::Duration poll_window = sim::seconds(1);
  // Dissemination send timeout (failure detector on push).
  sim::Duration disseminate_timeout = sim::seconds(2);

  // Lock-lease machinery (§4, failure of lock-owning thread).
  sim::Duration default_expected_hold = sim::msec(500);
  sim::Duration lease_grace = sim::msec(300);
  sim::Duration lease_check_interval = sim::msec(250);
  sim::Duration heartbeat_timeout = sim::msec(800);

  // --- Synchronization-thread failure recovery (§4's sketched protocol) ---
  // When enabled, a watchdog at `sync_backup_site` probes the sync thread's
  // node; after `sync_probe_misses` silent probes it spawns a surrogate
  // SyncService from the stable-storage log and informs every daemon.
  // NOTE: the watchdog probes for the lifetime of the simulation, so drive
  // such runs with Scheduler::run_until (run() would never quiesce).
  bool enable_sync_recovery = false;
  runtime::SiteId sync_backup_site = 1;
  sim::Duration sync_probe_interval = sim::seconds(1);
  sim::Duration sync_probe_timeout = sim::msec(500);
  int sync_probe_misses = 2;
};

// Local state for one lock id at one site, shared by that site's threads:
// the client core's lock state plus the Fig 5 local serialization.
struct LockLocal : ClientLock {
  bool busy = false;  // a local thread owns or is acquiring the lock
  std::unique_ptr<sim::Condition> local_waiters;
  std::vector<std::string> replica_names;  // association order
  int ur = 1;
  std::vector<runtime::SiteId> holders;  // registered sites, from last GRANT

  // Introspection for benchmarks (§5): componentwise costs of the last
  // lock() call — request-to-GRANT latency, and GRANT-to-data latency when a
  // transfer was needed (0 on the VERSIONOK path).
  sim::Duration last_grant_latency = 0;
  sim::Duration last_transfer_latency = 0;
};

class SiteReplicaRuntime : private DaemonSink {
 public:
  SiteReplicaRuntime(ReplicaSystem& system, runtime::SiteId site);

  runtime::SiteId site() const { return site_; }
  ReplicaSystem& system() { return system_; }

  // This site's current view of where the synchronization thread runs.
  // Updated by the daemon on kSyncMoved; application threads that time out
  // "query the local daemon" by re-reading this (§4 recovery protocol).
  runtime::SiteId sync_site() const { return sync_site_; }
  void set_sync_site(runtime::SiteId site) { sync_site_ = site; }

  // Asks peer daemons where the synchronization thread lives and adopts the
  // first answer (used after a timeout when this node missed the kSyncMoved
  // broadcast — e.g. it was dead during the failover). Returns the updated
  // view, or nullopt if nobody answered.
  std::optional<runtime::SiteId> discover_sync_site(net::Port reply_port,
                                                    sim::Duration timeout);

  // --- replica registry (shared with the daemon thread) ---
  void register_replica(std::shared_ptr<Replica> replica);
  std::shared_ptr<Replica> find_replica(const std::string& name) const;

  // --- lock-local state ---
  LockLocal& lock_local(LockId id);

  // This site's daemon rules (version table, bundle codec; marshaling a
  // bundle charges the configured cost model to the calling simulated
  // process) and lock-client rules (nonces, grant matching, versions).
  DaemonCore& daemon() { return daemon_; }
  LockClientCore& client() { return client_; }

  // --- statistics ---
  std::uint64_t transfers_served() const { return transfers_served_; }
  std::uint64_t updates_applied() const { return updates_applied_; }

 private:
  void daemon_loop();       // control: transfer directives, polls, heartbeats
  void daemon_data_loop();  // bulk: pushed replica-update bundles
  // --- DaemonSink ---
  void bundle(LockId lock_id, std::vector<BundleView>& out) override;
  void apply(LockId lock_id, std::vector<BundleEntry>& entries) override;
  void serve(const TransferReplicaMsg& directive, util::Buffer data) override;
  void send(net::NodeId dst, net::Port port, util::Buffer msg) override;

  ReplicaSystem& system_;
  runtime::SiteId site_;
  runtime::SiteId sync_site_ = 0;  // home until a failover
  std::map<std::string, std::shared_ptr<Replica>> replicas_;
  std::map<LockId, std::unique_ptr<LockLocal>> locks_;
  LockClientCore client_;
  DaemonCore daemon_;
  std::uint64_t transfers_served_ = 0;
  std::uint64_t updates_applied_ = 0;
};

}  // namespace mocha::replica
