// live::LockClient — the application-thread side of the entry-consistency
// lock protocol over real sockets (the wall-clock twin of
// replica::ReplicaLock::lock()/unlock()).
//
// Speaks the exact kAcquireLock / kReleaseLock / kRegisterLock / kGrant
// messages from replica/wire.h against a live::LockServer. When a
// DaemonService is attached, a NEED_NEW_VERSION grant triggers a pull-based
// replica transfer (paper §3: replicas are made consistent exactly when
// their lock is acquired):
//
//   1. the grant names the last owner (GrantMsg.transfer_from);
//   2. the client resolves that node's UDP address through the server
//      (kResolveNode/kNodeAddr) if the endpoint has never heard from it;
//   3. it sends the §6 kTransferReplica directive to the owner's daemon,
//      which ships the replica bundle to this node's kDaemonDataPort;
//   4. acquire() blocks until the daemon has applied the target version.
//
// If the promised transfer never arrives, the pull is retried once against
// the home daemon (the lock server's site), accepting whatever version it
// holds — the §4 weakened-consistency fallback. A second miss fails the
// acquire with a typed kTimeout (the lock is NOT released locally: the
// server's lease breaker owns cleanup, same as the sim).
//
// Without a daemon the old PR-1 behavior is preserved: the client adopts
// the version number and no data moves.
//
// Not thread-safe: one LockClient serves one application thread, matching
// the per-thread grant/data reply ports of the paper's design.
#pragma once

#include <cstdint>
#include <map>

#include "live/daemon.h"
#include "live/endpoint.h"
#include "live/shard_map.h"
#include "replica/wire.h"
#include "util/analysis_annotations.h"

namespace mocha::live {

struct LockClientOptions {
  std::int64_t grant_timeout_us = 10'000'000;
  // Wait for a promised replica transfer before retrying / failing. Applied
  // per attempt (direct pull, then home-daemon retry).
  std::int64_t transfer_timeout_us = 2'000'000;
  // First per-lock grant/data reply port (runtime::ports::kAppBase). Give
  // each LockClient sharing one endpoint a disjoint range.
  net::Port reply_port_base = 1000;
  // Starting nonce. Multiple LockClients sharing one endpoint appear as the
  // same site to the server, whose lease ABA guard keys on (site, nonce) —
  // give each a disjoint nonce space (e.g. reply_port_base << 32).
  std::uint64_t nonce_seed = 0;
};

class LockClient {
 public:
  // `server` must already be a known peer of `endpoint` (add_peer). The
  // client's site id on the wire is endpoint.node(). `daemon` (optional)
  // is this process's replica daemon; without it NEED_NEW_VERSION grants
  // only adopt the version number.
  LockClient(Endpoint& endpoint, net::NodeId server,
             LockClientOptions opts = {}, DaemonService* daemon = nullptr);

  // Sharded routing (docs/PROTOCOL.md §9): with a shard map installed,
  // every per-lock message (acquire/release/register/resolve and the
  // home-daemon retry) goes to the shard owning that lock id; without one,
  // everything goes to the bootstrap `server` (single-shard deployments).
  void set_shard_map(ShardMap map) { shard_map_ = std::move(map); }
  const ShardMap& shard_map() const { return shard_map_; }

  // Registration handshake: asks the bootstrap server for the deployment's
  // shard map (kShardMapRequest), registers every advertised shard endpoint
  // as a peer, and installs the map. kTimeout when no reply arrived.
  util::Status fetch_shard_map(std::int64_t timeout_us) MOCHA_BLOCKING;

  // Registers this site as a holder of `lock_id` with the owning shard
  // (fire-and-forget; acquire() also registers implicitly).
  void register_lock(replica::LockId lock_id);

  // Acquires `lock_id`; blocks until the GRANT arrives and — for
  // NEED_NEW_VERSION with an attached daemon — the replica transfer has
  // been applied. `expected_hold_us` feeds the server's lease-based failure
  // detector; 0 uses replica::kDefaultExpectedHoldUs.
  // Errors: kRejected (this site was blacklisted after a broken lock),
  // kTimeout (no grant within grant_timeout, or the promised transfer never
  // arrived after the home-daemon retry).
  util::Status acquire(
      replica::LockId lock_id,
      replica::LockWireMode mode = replica::LockWireMode::kExclusive,
      std::int64_t expected_hold_us = 0) MOCHA_BLOCKING;

  // Releases a held lock; exclusive releases publish version + 1 (stamped
  // into the attached daemon first, so later pulls see it).
  util::Status release(replica::LockId lock_id) MOCHA_BLOCKING;

  bool held(replica::LockId lock_id) const;
  replica::Version version(replica::LockId lock_id) const;

  // Request-to-GRANT latency of the most recent successful acquire()
  // (excludes the transfer wait; acquire-with-transfer is wall-clocked by
  // the caller).
  std::int64_t last_grant_latency_us() const { return last_grant_latency_us_; }

  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t releases() const { return releases_; }
  // Replica pulls completed on acquire / retried against the home daemon /
  // failed outright (typed-timeout acquires).
  std::uint64_t transfers_pulled() const { return transfers_pulled_; }
  std::uint64_t transfer_retries() const { return transfer_retries_; }
  std::uint64_t transfer_timeouts() const { return transfer_timeouts_; }

 private:
  struct LockLocal {
    bool held = false;
    bool shared = false;
    replica::Version version = 0;
    net::Port grant_port = 0;
    net::Port data_port = 0;
    std::uint64_t nonce = 0;  // of the acquire that holds the lock
  };

  LockLocal& local(replica::LockId lock_id);
  // Shard owning `lock_id` — the bootstrap server when no map is installed.
  net::NodeId home_for(replica::LockId lock_id) const;
  // The NEED_NEW_VERSION pull path; see the file comment for the protocol.
  util::Status pull_replica(replica::LockId lock_id, const LockLocal& lk,
                            const replica::GrantMsg& grant);
  // Makes `node` sendable, asking shard `via` for its address if needed.
  bool ensure_peer(net::NodeId node, net::NodeId via, net::Port reply_port,
                   std::int64_t timeout_us);
  void send_pull_directive(net::NodeId owner, replica::LockId lock_id,
                           replica::Version version);

  Endpoint& endpoint_;
  net::NodeId server_;
  ShardMap shard_map_;
  LockClientOptions opts_;
  DaemonService* daemon_;
  Clock* clock_;
  std::map<replica::LockId, LockLocal> locks_;
  // Per-thread reply ports, mirroring runtime::ports::kAppBase.
  net::Port next_port_;
  std::uint64_t nonce_;
  std::int64_t last_grant_latency_us_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t transfers_pulled_ = 0;
  std::uint64_t transfer_retries_ = 0;
  std::uint64_t transfer_timeouts_ = 0;

  // Span histograms ("client.<node>.*"): request -> grant, and grant ->
  // transfer-applied for NEED_NEW_VERSION acquires.
  Histogram* tm_acquire_grant_us_ = nullptr;
  Histogram* tm_grant_transfer_us_ = nullptr;
};

}  // namespace mocha::live
