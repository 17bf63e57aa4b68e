// live::LockClient — the application-thread side of the lock protocol over
// real sockets: the live adapter around replica::LockClientCore (the rules
// the sim's ReplicaLock runs too), adding endpoint ports, shard routing and
// wall-clock waits.
//
// With a DaemonService attached, a NEED_NEW_VERSION grant is followed by the
// transfer the lock server directs (paper §3, Fig 7): a daemon sends the
// bundle straight to this lock's data port, and acquire() applies it before
// returning — a weakened forward (§4) included, counted in
// transfer_retries(). If none lands within transfer_timeout_us, acquire()
// fails with kTimeout and does not release (the server's lease breaker owns
// cleanup, as in the sim). The first acquire of each lock registers the
// daemon's bulk contact. Without a daemon the client asks for no data and
// adopts the version number.
//
// Not thread-safe: one LockClient serves one application thread, matching
// the per-thread grant/data reply ports of the paper's design.
#pragma once

#include <cstdint>
#include <map>

#include "live/daemon.h"
#include "live/endpoint.h"
#include "live/shard_map.h"
#include "replica/lock_client_core.h"
#include "replica/wire.h"
#include "util/analysis_annotations.h"

namespace mocha::live {

struct LockClientOptions {
  std::int64_t grant_timeout_us = 10'000'000;
  // Wait for the replica transfer a NEED_NEW_VERSION grant promises, the
  // server's poll-and-redirect included, before failing with kTimeout.
  std::int64_t transfer_timeout_us = 4'000'000;
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
  // every per-lock message (acquire/release/register) goes to the shard
  // owning that lock id; without one, everything goes to the bootstrap
  // `server` (single-shard deployments).
  void set_shard_map(ShardMap map) { shard_map_ = std::move(map); }
  const ShardMap& shard_map() const { return shard_map_; }

  // Registration handshake: asks the bootstrap server for the deployment's
  // shard map (kShardMapRequest), registers every advertised shard endpoint
  // as a peer, and installs the map. kTimeout when no reply arrived.
  util::Status fetch_shard_map(std::int64_t timeout_us) MOCHA_BLOCKING;

  // Registers this site as a holder of `lock_id` with the owning shard,
  // with the daemon's bulk contact (fire-and-forget; acquire() registers
  // implicitly too, and does so explicitly once when a daemon is attached).
  void register_lock(replica::LockId lock_id);

  // Acquires `lock_id`; blocks until the GRANT arrives and — for
  // NEED_NEW_VERSION with an attached daemon — the replica transfer has
  // been applied. `expected_hold_us` feeds the server's lease-based failure
  // detector; 0 uses replica::kDefaultExpectedHoldUs.
  // Errors: kRejected (this site was blacklisted after a broken lock),
  // kTimeout (no grant within grant_timeout, or the promised transfer never
  // arrived within transfer_timeout).
  util::Status acquire(
      replica::LockId lock_id,
      replica::LockWireMode mode = replica::LockWireMode::kExclusive,
      std::int64_t expected_hold_us = 0) MOCHA_BLOCKING;

  // Releases a held lock; exclusive releases publish version + 1 (stamped
  // into the attached daemon first, so later transfers serve it).
  util::Status release(replica::LockId lock_id) MOCHA_BLOCKING;

  bool held(replica::LockId lock_id) const;
  replica::Version version(replica::LockId lock_id) const;

  // Request-to-GRANT latency of the most recent successful acquire()
  // (excludes the transfer wait; acquire-with-transfer is wall-clocked by
  // the caller).
  std::int64_t last_grant_latency_us() const { return last_grant_latency_us_; }

  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t releases() const { return releases_; }
  // Replica transfers completed on acquire / of those, weakened forwards
  // (older than the GRANT's version, §4) / acquires failed by a transfer
  // that never landed (typed timeouts).
  std::uint64_t transfers_pulled() const { return transfers_pulled_; }
  std::uint64_t transfer_retries() const { return transfer_retries_; }
  std::uint64_t transfer_timeouts() const { return transfer_timeouts_; }

 private:
  struct Lock : replica::ClientLock {
    bool registered = false;  // the daemon's contact is with the shard
  };

  Lock& local(replica::LockId lock_id);
  // Shard owning `lock_id` — the bootstrap server when no map is installed.
  net::NodeId home_for(replica::LockId lock_id) const;
  // Waits on the lock's data port for the directed transfer and applies it.
  util::Status await_transfer(Lock& lk, net::NodeId owner) MOCHA_BLOCKING;

  Endpoint& endpoint_;
  net::NodeId server_;
  ShardMap shard_map_;
  LockClientOptions opts_;
  DaemonService* daemon_;
  Clock* clock_;
  replica::LockClientCore core_;
  std::map<replica::LockId, Lock> locks_;
  // Per-thread reply ports, mirroring runtime::ports::kAppBase.
  net::Port next_port_;
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
