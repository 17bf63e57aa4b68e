// live::LockServer — one shard of the lock directory, driven by its
// endpoint's event loop.
//
// The live adapter around replica::LockDirectory, the lock directory the
// simulated SyncService runs too. It starts no thread: start() registers a
// sync-port handler, so every message is handled on the endpoint's loop
// thread, and every lease the core arms is a timer on that loop, cancelled
// at release. No per-client thread or condvar, no cross-thread wakeup per
// grant.
//
// Sharding (docs/PROTOCOL.md §9): a deployment runs N LockServers, each on
// its own endpoint, each owning the lock ids its ShardMap assigns it. The
// server answers kShardMapRequest with the full map so clients can route;
// with no map configured it serves everything (single-shard, wire-
// compatible with pre-shard clients).
//
// The §4 steps done here: "transfer needed" sends the directive to the
// last owner's daemon in the same loop event as the GRANT, with the
// requester's address (from this endpoint's peer table). Its transport ack
// is delivery and a send whose retries run out is the failure detector, as
// send_sync is in the sim; the core then polls and redirects, the window
// capped at the endpoint's retry schedule. An expired lease is confirmed
// "dead" at once (no heartbeat yet), so the core breaks the lock and
// blacklists the owner for good. Not yet live (docs/PROTOCOL.md §8): the
// heartbeat and the durable-record log.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>

#include "live/endpoint.h"
#include "live/reactor.h"
#include "live/shard_map.h"
#include "replica/lock_directory.h"
#include "replica/wire.h"
#include "util/analysis_annotations.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mocha::live {

struct LockServerOptions {
  std::int64_t lease_grace_us = 300'000;
  // Shard id reported in stats and logs (the ShardMap decides routing).
  std::uint32_t shard_id = 0;
};

// MOCHA_REACTOR_SAFE (class-level): the port handler, reactor timers and
// tracked sends may capture `this` because teardown is ordered —
// ~LockServer calls stop(), which unregisters the handler, cancels every
// lease and poll timer and expires the token tracked-send outcomes check,
// all on the loop thread, before any member is destroyed.
class MOCHA_REACTOR_SAFE LockServer : private replica::LockDirectorySink {
 public:
  struct Stats {
    std::uint32_t shard_id = 0;
    std::uint64_t grants = 0;
    std::uint64_t releases = 0;
    std::uint64_t locks_broken = 0;
    std::uint64_t registrations = 0;
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
  // All handlers below run on the loop thread (analyzer-enforced).
  void handle(Endpoint::Message msg) MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  void handle_shard_map_request(net::NodeId src, util::WireReader& reader)
      MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  // §11 introspection: answers with the whole process's registry snapshot.
  void handle_stats_request(net::NodeId src, util::WireReader& reader)
      MOCHA_REACTOR_ONLY;
  // Publishes the core's counters and gauges into stats_ and the registry.
  void publish_stats() MOCHA_REACTOR_ONLY EXCLUDES(mu_);

  // --- replica::LockDirectorySink (called by dir_ on the loop thread) ---
  void send_grant(const replica::LockHold& hold,
                  const replica::GrantMsg& grant) MOCHA_REACTOR_ONLY override;
  std::uint64_t arm_lease(const replica::LockHold& hold) MOCHA_REACTOR_ONLY
      override;
  void cancel_lease(const replica::LockHold& hold) MOCHA_REACTOR_ONLY
      override;
  // No heartbeat path yet: an expired lease is answered "dead" at once.
  void confirm_owner(const replica::LockHold& hold) MOCHA_REACTOR_ONLY
      override;
  void transfer_needed(const replica::TransferDirective& directive)
      MOCHA_REACTOR_ONLY override;
  void send_poll(std::uint64_t transfer_id, net::NodeId daemon,
                 const replica::PollVersionMsg& poll) MOCHA_REACTOR_ONLY
      override;
  void poll_window(std::uint64_t transfer_id) MOCHA_REACTOR_ONLY override;
  void transfer_step(replica::TransferStep step,
                     const replica::TransferDirective& directive,
                     replica::Version lock_version) MOCHA_REACTOR_ONLY
      override;
  // A tracked send to `daemon`'s daemon port; `done` gets the transport
  // outcome unless the server stopped first. False for an unknown daemon.
  bool send_to_daemon(net::NodeId daemon, util::Buffer msg,
                      std::function<void(bool acked)> done)
      MOCHA_REACTOR_ONLY;
  void trace(const replica::LockEvent& event) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_) override;

  Endpoint& endpoint_;
  LockServerOptions opts_;
  std::atomic<bool> running_{false};

  // Owned exclusively by the loop thread while the server runs (never
  // touched from other threads, so no capability guards it; start() and
  // stop() hand over through the loop's own queue): the directory, the
  // map, each open poll window's timer, and the token tracked-send
  // outcomes hold weakly (expired by stop()).
  replica::LockDirectory dir_;
  ShardMap shard_map_;
  std::map<std::uint64_t, Reactor::TimerId> poll_timers_;
  std::shared_ptr<bool> alive_;

  mutable util::Mutex mu_;
  // Cross-thread observable state: the loop thread publishes, stats() /
  // is_blacklisted() read from arbitrary threads.
  std::set<std::uint32_t> blacklist_ GUARDED_BY(mu_);
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
