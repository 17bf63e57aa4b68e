// live::DaemonService — the per-site replica daemon over real sockets.
//
// The wall-clock twin of replica::SiteReplicaRuntime's daemon threads: it
// owns the local copies of the replicas grouped under each lock and moves
// them between daemons with the exact §6 wire messages the sim uses —
// kTransferReplica directives on replica::kDaemonPort, raw replica bundles
// (u32 lock | u64 version | bundle) on replica::kDaemonDataPort. Bundles are
// fragmented by live::Endpoint, so the adaptive-RTO/NACK fast path covers
// replica data too.
//
// Transfers are pull-based in the live runtime: the client that received a
// NEED_NEW_VERSION grant sends the transfer directive to the last owner's
// daemon itself (see live::LockClient), instead of the sync thread doing it
// as in the sim. The serving daemon learns the puller's UDP address from the
// directive's datagram envelope, so no prior peer configuration is needed in
// that direction.
//
// Threading: the daemon starts no thread. Its port handlers run on the
// endpoint's loop thread, and so does its TCP bulk channel. The replica
// store is mutex-guarded and safe to use from any thread;
// LockClient::acquire() blocks on its version/applied condition variable
// while a promised transfer is in flight.
//
// Bulk transport (§10): by default the daemon runs the paper's hybrid rule.
// A bundle of at least kHybridMinBundleBytes goes over TCP (live/tcp_bulk.h)
// to a peer whose BULK-HELLO advertised kBulkCapTcp; every smaller bundle,
// and every control message, stays on the endpoint. A failed TCP send is
// re-served on the endpoint, so a hybrid daemon always interoperates with a
// UDP-only peer. BulkBackend::kUdp and kTcp are the two pure arms the
// crossover sweep measures.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "live/endpoint.h"
#include "live/tcp_bulk.h"
#include "replica/wire.h"
#include "util/analysis_annotations.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mocha::live {

// How a daemon moves outbound replica bundles.
enum class BulkBackend : std::uint8_t {
  kUdp = 0,     // every bundle on the endpoint
  kTcp = 1,     // every bundle over TCP to TCP-capable peers
  kHybrid = 2,  // TCP from kHybridMinBundleBytes up (the default)
};

// The hybrid crossover: the smallest bundle (`u32 lock | u64 version |
// bundle` payload) that goes over TCP. bench/baselines/BENCH_live_hybrid.json
// pins the measured crossover at this size.
constexpr std::size_t kHybridMinBundleBytes = 64 * 1024;

// CLI/env spelling: "udp", "tcp", "hybrid".
const char* bulk_backend_name(BulkBackend kind);
std::optional<BulkBackend> parse_bulk_backend(std::string_view name);
// MOCHA_BULK_BACKEND in the environment, else `fallback`. Unparseable
// values fall back too (a forked test lane must not die on a typo).
BulkBackend bulk_backend_from_env(BulkBackend fallback);

// MOCHA_REACTOR_SAFE (class-level): the port handlers and TCP channel
// callbacks capture `this`; ~DaemonService calls stop(), which unregisters
// the handlers, then destroys the channel before any other member.
class MOCHA_REACTOR_SAFE DaemonService {
 public:
  struct Stats {
    std::uint64_t transfers_served = 0;   // outbound bundles sent
    std::uint64_t transfers_applied = 0;  // inbound bundles applied
    std::uint64_t stale_drops = 0;        // inbound bundles older than local
    std::uint64_t polls_answered = 0;
    std::uint64_t bulk_fast_served = 0;   // of transfers_served: over TCP
    std::uint64_t bulk_fallbacks = 0;     // TCP send failed, rode UDP
    std::uint64_t bulk_peers_known = 0;   // BULK-HELLO/ACKs recorded
  };

  explicit DaemonService(Endpoint& endpoint,
                         BulkBackend bulk = BulkBackend::kHybrid);
  ~DaemonService();

  DaemonService(const DaemonService&) = delete;
  DaemonService& operator=(const DaemonService&) = delete;

  // (Un)registers the port handlers; a stopped daemon applies no inbound
  // bundle. stop() is idempotent.
  void start();
  void stop();

  // --- Replica store (application side; hold the lock while writing) ---
  // Registers `name` under `lock_id` with its initial contents. Replicas
  // transfer as a bundle: every name registered under the lock moves when
  // the lock's replica is transferred (paper §3: one lock per object or per
  // group of objects).
  void register_replica(replica::LockId lock_id, const std::string& name,
                        util::Buffer initial) EXCLUDES(mu_);
  void write(replica::LockId lock_id, const std::string& name,
             util::Buffer contents) EXCLUDES(mu_);
  // Copy of the current contents (empty when unknown).
  util::Buffer read(replica::LockId lock_id, const std::string& name) const
      EXCLUDES(mu_);

  // Stamps the lock's local replica version — called by the writer after its
  // writes, before the lock release publishes `version` to the server, so a
  // later pull finds contents and version consistent.
  void publish(replica::LockId lock_id, replica::Version version)
      EXCLUDES(mu_);
  replica::Version local_version(replica::LockId lock_id) const EXCLUDES(mu_);

  // Blocks until the local version of `lock_id` reaches `target` (transfer
  // applied, or a local publish); kTimeout after `timeout_us`.
  util::Status wait_for_version(replica::LockId lock_id,
                                replica::Version target,
                                std::int64_t timeout_us) MOCHA_BLOCKING
      EXCLUDES(mu_);
  // Weakened-consistency wait (§4): succeeds when *any* bundle has been
  // applied to `lock_id` since the caller sampled transfers_applied() —
  // used by the home-daemon retry, where an older version is acceptable.
  util::Status wait_for_apply(replica::LockId lock_id,
                              std::uint64_t applied_before,
                              std::int64_t timeout_us) MOCHA_BLOCKING
      EXCLUDES(mu_);
  std::uint64_t transfers_applied(replica::LockId lock_id) const
      EXCLUDES(mu_);

  // --- Bulk transport (§10) ---
  BulkBackend bulk_backend() const { return bulk_kind_; }
  // Fire-and-forget BULK-HELLO toward `peer`, once per peer (endpoint
  // delivery is per-src in-order, so a hello sent just before a transfer
  // directive is guaranteed to precede it). No-op on a pure-UDP daemon:
  // UDP needs no advertisement, absence of a hello *is* the fallback.
  void announce_bulk(net::NodeId peer) EXCLUDES(mu_);
  // Capability bits this daemon has recorded for `peer` (0 = never heard a
  // hello; the peer is assumed UDP-only).
  std::uint8_t peer_bulk_caps(net::NodeId peer) const EXCLUDES(mu_);
  // Flushes and FIN-closes the TCP channel's cached connections (no-op
  // true on pure UDP) — run under mocha_live's shared exit deadline.
  bool drain_bulk(std::int64_t timeout_us) MOCHA_BLOCKING;
  // TCP channel counters (all zero on pure UDP).
  TcpBulkChannel::Stats bulk_transport_stats() const;

  Stats stats() const EXCLUDES(mu_);

 private:
  // All replicas guarded by one lock move as one bundle.
  struct LockReplicas {
    replica::Version version = 0;
    std::uint64_t applied = 0;  // bundles applied to this lock
    std::vector<std::string> names;  // registration order = bundle order
    std::map<std::string, util::Buffer> contents;
  };

  // What a peer's BULK-HELLO / ACK taught us: which backends it can receive
  // on and where its TCP listener is.
  struct PeerBulk {
    std::uint8_t backends = replica::kBulkCapUdp;
    std::uint16_t tcp_port = 0;
  };

  // Daemon-port handler (loop thread): directives, polls, bulk hellos.
  void handle_control(Endpoint::Message msg) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  void handle_directive(util::WireReader& reader) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  // The endpoint leg of a transfer; undoes the served count when `dst` has
  // no known address.
  void serve_on_endpoint(net::NodeId dst, net::Port port,
                         replica::LockId lock_id, util::Buffer data)
      EXCLUDES(mu_);
  // A failed TCP send re-served on the endpoint.
  void tcp_fallback(net::NodeId dst, net::Port port, replica::LockId lock_id,
                    const util::Status& why, util::Buffer data)
      EXCLUDES(mu_);
  // Applies a data-port payload; a malformed one changes nothing.
  void apply_bundle(net::NodeId src, const util::Buffer& payload)
      EXCLUDES(mu_);
  void record_peer_bulk(net::NodeId peer, std::uint8_t backends,
                        std::uint16_t tcp_port) EXCLUDES(mu_);
  std::uint8_t own_bulk_caps() const;
  std::uint16_t own_tcp_port() const;
  LockReplicas& lock_replicas(replica::LockId lock_id) REQUIRES(mu_);

  Endpoint& endpoint_;
  const BulkBackend bulk_kind_;
  // Bundles of at least this many bytes take TCP when the peer offers it.
  const std::size_t tcp_min_bytes_;
  std::atomic<bool> running_{false};

  mutable util::Mutex mu_;
  util::CondVar version_cv_;  // signaled on publish / bundle apply
  std::map<replica::LockId, LockReplicas> locks_ GUARDED_BY(mu_);
  std::map<net::NodeId, PeerBulk> bulk_peers_ GUARDED_BY(mu_);
  std::set<net::NodeId> hello_sent_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);

  // Registry handles ("daemon.<node>.*"), resolved once in the constructor.
  Counter* tm_transfers_served_ = nullptr;
  Counter* tm_transfers_applied_ = nullptr;
  Counter* tm_bytes_out_ = nullptr;
  Counter* tm_bytes_in_ = nullptr;
  Counter* tm_bulk_fallbacks_ = nullptr;
  Histogram* tm_bundle_send_us_ = nullptr;

  // Null on pure UDP, which keeps the exact single-path behavior (and wire
  // cost: zero hellos). Declared last: its callbacks use the members above.
  std::unique_ptr<TcpBulkChannel> tcp_;
};

// Marshals / unmarshals the replica bundle that follows the
// `u32 lock | u64 version` header on the data port — the same
// `u32 n (str name, bytes payload)…` layout the sim daemon uses, factored
// out so tests can build bundles directly.
util::Buffer marshal_bundle(const std::vector<std::string>& names,
                            const std::map<std::string, util::Buffer>& contents);

}  // namespace mocha::live
