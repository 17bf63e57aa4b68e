// replica::DaemonCore — a site's replica daemon (paper §3) as one
// transport-free state machine: no threads, clocks, sockets or mutexes.
// The sim SiteReplicaRuntime and the live DaemonService are adapters; each
// keeps its own replica store behind a DaemonSink. The one copy of each
// daemon rule:
//   - the data-path payload `u32 lock | u64 version | bundle`, a bundle being
//     `u32 n (str name, bytes payload)…`, is encoded and decoded only here;
//   - a served bundle carries the version this daemon holds, not the one
//     the directive names;
//   - an inbound bundle is decoded whole before the store is touched, and
//     one older than the local version is dropped;
//   - daemon-port dispatch of kTransferReplica, kPollVersion and kHeartbeat.
// The core holds no reference across a sink call, so a sim adapter whose
// sink charges simulated CPU time may re-enter it meanwhile.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "net/types.h"
#include "replica/wire.h"
#include "util/buffer.h"

namespace mocha::replica {

// One replica of an outbound bundle: `payload` views the adapter's store
// (until the core call returns), or `marshaled` when the store marshals on
// demand.
struct BundleView {
  std::string name;
  std::span<const std::uint8_t> payload;
  util::Buffer marshaled;
};

// One replica of a decoded inbound bundle.
struct BundleEntry {
  std::string name;
  util::Buffer payload;
};

class DaemonSink {
 public:
  virtual ~DaemonSink() = default;
  // Appends lock_id's replicas, in bundle order.
  virtual void bundle(LockId lock_id, std::vector<BundleView>& out) = 0;
  // Overwrites lock_id's replicas with those of a whole, current bundle.
  virtual void apply(LockId lock_id, std::vector<BundleEntry>& entries) = 0;
  // Sends `data` (the data-port payload) to the directive's destination.
  virtual void serve(const TransferReplicaMsg& directive,
                     util::Buffer data) = 0;
  // Sends a control message (a poll's version report).
  virtual void send(net::NodeId dst, net::Port port, util::Buffer msg) = 0;
};

class DaemonCore {
 public:
  enum class Apply : std::uint8_t { kApplied, kStale, kMalformed };
  struct Applied {
    Apply outcome = Apply::kMalformed;
    LockId lock_id = 0;
    Version version = 0;  // the bundle's
  };

  DaemonCore(net::NodeId self, DaemonSink& sink);

  // kTransferReplica, kPollVersion or kHeartbeat (a truncated one is
  // dropped); false for any other message.
  bool handle(net::NodeId src, std::span<const std::uint8_t> payload);

  // A data-path payload: applied through the sink unless malformed or
  // stale.
  Applied apply(std::span<const std::uint8_t> payload);

  // The data-path payload of lock_id's replicas at the local version.
  util::Buffer encode(LockId lock_id);

  // The local writer published `version` (raises only).
  void publish(LockId lock_id, Version version);
  Version version(LockId lock_id) const;
  std::uint64_t applied(LockId lock_id) const;  // bundles applied

  std::uint64_t bundles_applied() const { return bundles_applied_; }
  std::uint64_t stale_drops() const { return stale_drops_; }
  std::uint64_t polls_answered() const { return polls_answered_; }

  // `u32 lock | u64 version | bundle`, in a buffer of exactly its size.
  static util::Buffer encode(LockId lock_id, Version version,
                             std::span<const BundleView> replicas);

 private:
  struct LockVersion {
    Version version = 0;
    std::uint64_t applied = 0;
  };

  net::NodeId self_;
  DaemonSink& sink_;
  std::map<LockId, LockVersion> locks_;
  std::uint64_t bundles_applied_ = 0;
  std::uint64_t stale_drops_ = 0;
  std::uint64_t polls_answered_ = 0;
};

}  // namespace mocha::replica
