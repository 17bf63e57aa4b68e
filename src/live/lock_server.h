// live::LockServer — one shard of the lock directory, driven by its
// endpoint's event loop.
//
// The wall-clock twin of replica::SyncService, reduced to the lock core:
// strict-FIFO grant queue with shared-mode batching, version numbers, the
// up-to-date replica set, lock leases, and the §4 blacklist. It speaks the
// exact kAcquireLock / kReleaseLock / kRegisterLock / kGrant messages from
// replica/wire.h on logical port replica::kSyncPort.
//
// Event-loop architecture: the server starts no thread. start() registers a
// sync-port handler (Endpoint::set_port_handler), so every message is
// handled on the endpoint's loop thread, the one that received it; every
// lease is a timer on that loop, armed at activation and cancelled at
// release (no scanning); blacklist entries expire lazily. That one thread
// drives every waiter as continuation state in the grant queue: no
// per-client thread or condvar, and no cross-thread wakeup per grant.
//
// Sharding (docs/PROTOCOL.md §9): a deployment runs N LockServers, each on
// its own endpoint, each owning the lock ids its ShardMap assigns it. The
// server answers kShardMapRequest with the full map so clients can route;
// with no map configured it serves everything (single-shard, wire-
// compatible with pre-shard clients).
//
// NEED_NEW_VERSION grants name the last owner (GrantMsg.transfer_from); the
// requesting client pulls the replica bundle from that site's daemon
// directly (live::DaemonService), with the server additionally answering
// kResolveNode address queries so two clients that have never exchanged a
// datagram can find each other. Registered holders per lock are tracked as
// groundwork for UR push.
//
// Not yet carried over from the sim service (see docs/PROTOCOL.md §8):
// sync-directed transfers with poll-and-redirect on daemon failure, and the
// heartbeat confirm before a lease break — an expired lease breaks the lock
// directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "live/endpoint.h"
#include "live/reactor.h"
#include "live/shard_map.h"
#include "replica/wire.h"
#include "util/analysis_annotations.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mocha::live {

struct LockServerOptions {
  std::int64_t default_expected_hold_us = 500'000;
  std::int64_t lease_grace_us = 300'000;
  // §4 keeps a broken-lock site blacklisted forever; a positive TTL lets
  // the entry lapse after that long (operational escape hatch).
  std::int64_t blacklist_ttl_us = 0;
  // Shard id reported in stats and logs (the ShardMap decides routing).
  std::uint32_t shard_id = 0;
};

// MOCHA_REACTOR_SAFE (class-level): the port handler and reactor timers may
// capture `this` because teardown is ordered — ~LockServer calls stop(),
// which unregisters the handler and cancels every lease timer on the loop
// thread before any member is destroyed.
class MOCHA_REACTOR_SAFE LockServer {
 public:
  struct Stats {
    std::uint32_t shard_id = 0;
    std::uint64_t grants = 0;
    std::uint64_t releases = 0;
    std::uint64_t locks_broken = 0;
    std::uint64_t registrations = 0;
    std::uint64_t resolves = 0;  // kResolveNode address queries answered
    std::uint64_t shard_map_requests = 0;
    // Gauges: current queue depth / lease population of this shard.
    std::uint64_t queued_waiters = 0;
    std::uint64_t active_leases = 0;
    // The endpoint loop's counters: the shard's one thread, endpoint work in.
    std::uint64_t reactor_iterations = 0;
    std::uint64_t reactor_timers_fired = 0;
    std::uint64_t max_epoll_batch = 0;
  };

  LockServer(Endpoint& endpoint, LockServerOptions opts = {});
  ~LockServer();

  LockServer(const LockServer&) = delete;
  LockServer& operator=(const LockServer&) = delete;

  // Installs the deployment's shard map served to kShardMapRequest clients.
  // Must be called before start(); an empty map makes the server advertise
  // itself as the only shard.
  void set_shard_map(ShardMap map);

  // (Un)register the sync-port handler; after stop() the loop never calls in.
  void start();
  void stop();

  Stats stats() const EXCLUDES(mu_);
  bool is_blacklisted(std::uint32_t site) const EXCLUDES(mu_);

 private:
  struct Request {
    replica::LockId lock_id = 0;
    std::uint32_t site = 0;
    net::Port grant_port = 0;
    net::Port data_port = 0;
    std::uint64_t expected_hold_us = 0;
    replica::LockWireMode mode = replica::LockWireMode::kExclusive;
    std::uint64_t nonce = 0;
    // Reactor lease timer armed at activation, cancelled at release.
    Reactor::TimerId lease_timer = Reactor::kInvalidTimer;
    // Telemetry span anchors (monotonic): arrival -> activate() is the wait
    // histogram, activate() -> release is the hold histogram.
    std::int64_t enqueued_at_us = 0;
    std::int64_t granted_at_us = 0;
  };

  struct LockState {
    replica::LockId id = 0;
    std::vector<Request> active;  // current holders (readers, or one writer)
    std::deque<Request> waiting;
    replica::Version version = 0;
    std::optional<std::uint32_t> last_owner;  // last *writer*
    std::set<std::uint32_t> up_to_date;       // sites holding `version`
    std::set<std::uint32_t> holders;          // registered replica holders
    bool has_active_exclusive() const {
      return active.size() == 1 &&
             active.front().mode == replica::LockWireMode::kExclusive;
    }
  };

  // All handlers below run on the loop thread (analyzer-enforced).
  void handle(Endpoint::Message msg) MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  void handle_acquire(util::WireReader& reader) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  void handle_release(util::WireReader& reader) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  void handle_shard_map_request(net::NodeId src, util::WireReader& reader)
      MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  // §11 introspection: answers with the whole process's registry snapshot.
  void handle_stats_request(net::NodeId src, util::WireReader& reader)
      MOCHA_REACTOR_ONLY;
  void grant_from_queue(LockState& lock) MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  void activate(LockState& lock, Request req) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  void send_grant(const Request& req, replica::Version version,
                  replica::GrantFlag flag,
                  const std::set<std::uint32_t>& holders,
                  std::uint32_t transfer_from = 0) MOCHA_REACTOR_ONLY;
  // §4 lease breaker, fired by the request's reactor timer. The (site,
  // nonce) pair guards against ABA: a timer racing a release + re-acquire of
  // the same site must not break the new hold.
  void on_lease_expired(replica::LockId lock_id, std::uint32_t site,
                        std::uint64_t nonce) MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  void blacklist_site(std::uint32_t site) MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  // Publishes the queue/lease gauges into stats_ (call with counts current).
  void publish_gauges() MOCHA_REACTOR_ONLY EXCLUDES(mu_);

  Endpoint& endpoint_;
  LockServerOptions opts_;
  std::atomic<bool> running_{false};

  // Owned exclusively by the loop thread while the server runs (never
  // touched from other threads, so no capability guards it; start() and
  // stop() hand over through the loop's own queue).
  std::map<replica::LockId, LockState> locks_;
  ShardMap shard_map_;
  std::uint64_t queued_waiters_ = 0;  // incremental gauges, loop thread
  std::uint64_t active_leases_ = 0;

  mutable util::Mutex mu_;
  // Cross-thread observable state: the loop thread publishes, stats() /
  // is_blacklisted() read from arbitrary threads.
  // Blacklisted site -> monotonic expiry (INT64_MAX: forever).
  std::map<std::uint32_t, std::int64_t> blacklist_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);

  // Registry handles ("shard.<id>.*"), resolved once in the constructor;
  // written from the reactor thread, scraped from anywhere.
  Counter* tm_acquires_ = nullptr;
  Counter* tm_grants_ = nullptr;
  Counter* tm_releases_ = nullptr;
  Counter* tm_lease_breaks_ = nullptr;
  Counter* tm_stats_requests_ = nullptr;
  Gauge* tm_queue_depth_ = nullptr;
  Gauge* tm_active_leases_ = nullptr;
  Histogram* tm_wait_us_ = nullptr;
  Histogram* tm_hold_us_ = nullptr;
};

}  // namespace mocha::live
