// live::DaemonService — the per-site replica daemon over real sockets: the
// live adapter around replica::DaemonCore, whose daemon rules (version
// table, bundle codec, decode-then-apply with the stale drop, dispatch of
// kTransferReplica / kPollVersion / kHeartbeat on replica::kDaemonPort) the
// sim's SiteReplicaRuntime runs too. This adapter adds the store (each
// lock's replicas as byte buffers), the endpoint ports and the hybrid TCP
// channel.
//
// Transfers are sync-directed (paper §3, Fig 7): the lock server sends the
// directive with the GRANT, and this daemon ships the bundle straight to
// the requester's data port, at the address and over the bulk backend the
// directive names. The requester applies it through apply_bundle().
//
// Threading: the daemon starts no thread. Its port handlers and its TCP
// bulk channel run on the endpoint's loop thread. The store and the core
// are mutex-guarded and safe to use from any thread.
//
// Bulk transport (§10): by default the daemon runs the paper's hybrid rule.
// A bundle of at least kHybridMinBundleBytes goes over TCP (live/tcp_bulk.h)
// to a requester that registered kBulkCapTcp; every smaller bundle, and
// every control message, stays on the endpoint. A failed TCP send is
// re-served on the endpoint, so a hybrid daemon always interoperates with a
// UDP-only peer. BulkBackend::kUdp and kTcp are the two pure arms the
// crossover sweep measures.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "live/endpoint.h"
#include "live/tcp_bulk.h"
#include "replica/daemon_core.h"
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
class MOCHA_REACTOR_SAFE DaemonService : private replica::DaemonSink {
 public:
  struct Stats {
    std::uint64_t transfers_served = 0;   // outbound bundles sent
    std::uint64_t transfers_applied = 0;  // inbound bundles applied
    std::uint64_t stale_drops = 0;        // inbound bundles older than local
    std::uint64_t polls_answered = 0;
    std::uint64_t bulk_fast_served = 0;   // of transfers_served: over TCP
    std::uint64_t bulk_fallbacks = 0;     // TCP send failed, rode UDP
  };

  explicit DaemonService(Endpoint& endpoint,
                         BulkBackend bulk = BulkBackend::kHybrid);
  ~DaemonService();

  DaemonService(const DaemonService&) = delete;
  DaemonService& operator=(const DaemonService&) = delete;

  // (Un)registers the port handlers; a stopped daemon serves nothing and
  // applies no pushed bundle. stop() is idempotent.
  void start();
  void stop();

  // --- Replica store (application side; hold the lock while writing) ---
  // Registers `name` under `lock_id` with its initial contents. Replicas
  // transfer as a bundle: every name registered under the lock moves when
  // the lock's replica is transferred (paper §3: one lock per object or per
  // group of objects).
  void register_replica(replica::LockId lock_id, const std::string& name,
                        util::Buffer initial) EXCLUDES(mu_) {
    write(lock_id, name, std::move(initial));
  }
  void write(replica::LockId lock_id, const std::string& name,
             util::Buffer contents) EXCLUDES(mu_);
  // Copy of the current contents (empty when unknown).
  util::Buffer read(replica::LockId lock_id, const std::string& name) const
      EXCLUDES(mu_);

  // Stamps the lock's local replica version — called by the writer after its
  // writes, before the lock release publishes `version` to the server, so a
  // later transfer finds contents and version consistent.
  void publish(replica::LockId lock_id, replica::Version version)
      EXCLUDES(mu_);
  replica::Version local_version(replica::LockId lock_id) const EXCLUDES(mu_);
  std::uint64_t transfers_applied(replica::LockId lock_id) const
      EXCLUDES(mu_);

  // Applies a data-path payload (received on a client's data port, or
  // pushed to kDaemonDataPort) through the core.
  replica::DaemonCore::Applied apply_bundle(
      net::NodeId src, std::span<const std::uint8_t> payload) EXCLUDES(mu_);

  // --- Bulk transport (§10) ---
  BulkBackend bulk_backend() const { return bulk_kind_; }
  // This daemon's bulk contact, which its site registers with each lock.
  std::uint8_t bulk_caps() const;
  std::uint16_t tcp_port() const;
  // Flushes and FIN-closes the TCP channel's cached connections (no-op
  // true on pure UDP) — run under mocha_live's shared exit deadline.
  bool drain_bulk(std::int64_t timeout_us) MOCHA_BLOCKING;
  // TCP channel counters (all zero on pure UDP).
  TcpBulkChannel::Stats bulk_transport_stats() const;

  Stats stats() const EXCLUDES(mu_);

 private:
  // The store of one lock: all its replicas move as one bundle.
  struct LockReplicas {
    std::vector<std::string> names;  // registration order = bundle order
    std::map<std::string, util::Buffer> contents;
  };
  static void store(LockReplicas& lk, const std::string& name,
                    util::Buffer contents);

  // --- replica::DaemonSink (called by core_ with mu_ held) ---
  void bundle(replica::LockId lock_id,
              std::vector<replica::BundleView>& out) override REQUIRES(mu_);
  void apply(replica::LockId lock_id,
             std::vector<replica::BundleEntry>& entries) override
      REQUIRES(mu_);
  // Ships the bundle: over TCP when the requester offers it and the bundle
  // is large enough, else on the endpoint (the loop thread, from
  // handle_control).
  void serve(const replica::TransferReplicaMsg& directive,
             util::Buffer data) override MOCHA_REACTOR_ONLY REQUIRES(mu_);
  void send(net::NodeId dst, net::Port port, util::Buffer msg) override
      REQUIRES(mu_);

  // Daemon-port handler (loop thread): directives, polls, heartbeats.
  void handle_control(Endpoint::Message msg) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  // The endpoint leg of a transfer; undoes the served count when `dst` has
  // no known address. Neither needs mu_.
  void serve_on_endpoint(net::NodeId dst, net::Port port,
                         replica::LockId lock_id, util::Buffer data);
  // A failed TCP send re-served on the endpoint.
  void tcp_fallback(net::NodeId dst, net::Port port, replica::LockId lock_id,
                    const util::Status& why, util::Buffer data);

  Endpoint& endpoint_;
  const BulkBackend bulk_kind_;
  // Bundles of at least this many bytes take TCP when the peer offers it.
  const std::size_t tcp_min_bytes_;
  std::atomic<bool> running_{false};

  mutable util::Mutex mu_;
  replica::DaemonCore core_ GUARDED_BY(mu_);
  std::map<replica::LockId, LockReplicas> locks_ GUARDED_BY(mu_);
  // Stats the core does not keep; the TCP callbacks run without mu_.
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> fast_served_{0};  // of served_: over TCP
  std::atomic<std::uint64_t> fallbacks_{0};

  // Registry handles ("daemon.<node>.*"), resolved once in the constructor.
  Counter* tm_transfers_served_ = nullptr;
  Counter* tm_transfers_applied_ = nullptr;
  Counter* tm_bytes_out_ = nullptr;
  Counter* tm_bytes_in_ = nullptr;
  Counter* tm_bulk_fallbacks_ = nullptr;
  Histogram* tm_bundle_send_us_ = nullptr;

  // Null on pure UDP, which keeps the exact single-path behavior. Declared
  // last: its callbacks use the members above.
  std::unique_ptr<TcpBulkChannel> tcp_;
};

}  // namespace mocha::live
