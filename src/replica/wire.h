// Wire protocol for Mocha's shared-object layer (paper §3-§4).
//
// Control messages ride MochaNet logical ports:
//   ports::kSync   (home)  — lock acquire/release, replica registry, reports
//   ports::kDaemon (all)   — transfer directives, polls, heartbeats
//   ports::kDaemonData     — push-based replica update bundles (bulk)
//   per-thread grant/data ports — GRANT delivery and direct replica transfer
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/types.h"
#include "util/buffer.h"

namespace mocha::replica {

using LockId = std::uint32_t;
using Version = std::uint64_t;

// Well-known logical port of the synchronization thread (mirrored as
// runtime::ports::kSync for the simulated runtime; the live lock server
// listens here too).
constexpr net::Port kSyncPort = 30;

// Replica daemon control port (transfer directives, version polls,
// heartbeats), on every site; mirrored as runtime::ports::kDaemon for the
// simulated runtime, listened on by live::DaemonService.
constexpr net::Port kDaemonPort = 31;

// Bulk replica updates use a dedicated port so BulkTransport control frames
// never interleave with daemon control messages.
constexpr net::Port kDaemonDataPort = 32;

enum MsgType : std::uint8_t {
  // -> sync service
  kAcquireLock = 1,
  kReleaseLock = 2,
  kRegisterLock = 3,
  kRegisterReplica = 4,
  kAttachReplica = 5,
  kVersionReport = 6,
  // sync -> attacher
  kAttachReply = 7,
  // sync -> daemon
  kTransferReplica = 10,
  kPollVersion = 12,
  kHeartbeat = 14,
  // surrogate sync -> daemons after a sync-thread failover (§4 recovery)
  kSyncMoved = 15,
  // app thread -> peer daemon: where does the sync thread live now?
  // (used by nodes that were dead during the kSyncMoved broadcast)
  kWhereIsSync = 16,
  kSyncLocation = 17,
  // non-synchronization-based consistency (§7 ongoing work): cached-object
  // directory traffic
  kPublishCached = 18,
  kPublishReply = 19,
  kRefreshCached = 20,
  kRefreshReply = 21,
  // sync -> application thread (grant port)
  kGrant = 22,
  // Live-runtime peer discovery (§8): a node that must pull a replica from a
  // daemon it has never exchanged datagrams with asks the lock server (whose
  // endpoint learned every client's UDP address from the datagram envelope)
  // where that node lives.
  kResolveNode = 23,
  kNodeAddr = 24,
  // Sharded lock directory (§9): at registration a client asks its bootstrap
  // shard for the deployment's shard map; the reply lists every shard's
  // endpoint, and consistent hashing over the shard ids (live::ShardMap)
  // routes each lock id to exactly one of them.
  kShardMapRequest = 25,
  kShardMapReply = 26,
  // Bulk-transport negotiation (§10): before the first replica pull against
  // a peer, a daemon advertises which bulk backends it can *receive* on and
  // where they listen; the peer records the capabilities and answers with
  // its own. A peer that never heard of BULK-HELLO simply ignores it, so
  // mixed deployments degrade to the MochaNet-UDP bulk path.
  kBulkHello = 27,
  kBulkHelloAck = 28,
  // Live introspection (§11): any node asks a lock-server shard for its
  // process's telemetry snapshot — counters, gauges, and latency histograms
  // from live::MetricsRegistry — served off the shard's reactor so a scrape
  // never blocks the protocol path.
  kStatsRequest = 29,
  kStatsReply = 30,
};

// Bulk-backend capability bits carried by kBulkHello/kBulkHelloAck (§10).
// Every daemon can receive on the MochaNet-UDP data port, so kBulkCapUdp is
// always set by live senders; kBulkCapTcp is set when the daemon's TCP bulk
// listener is open. kBulkCapBatchedUdp is reserved: the batched-UDP backend
// was removed, live senders never set it, and receivers ignore it.
constexpr std::uint8_t kBulkCapUdp = 1u << 0;
constexpr std::uint8_t kBulkCapTcp = 1u << 1;
constexpr std::uint8_t kBulkCapBatchedUdp = 1u << 2;

// GRANT flags (paper Fig 5: VERSIONOK / NEEDNEWVERSION, plus the §4
// blacklist refinement).
enum class GrantFlag : std::uint8_t {
  kVersionOk = 0,      // requester already has the newest version
  kNeedNewVersion = 1, // a replica transfer is on its way
  kRejected = 2,       // requester was blacklisted after a broken lock
};

enum class LockWireMode : std::uint8_t { kExclusive = 0, kShared = 1 };

// --- Typed codecs for the lock-protocol messages ---
//
// Both runtimes — the simulated SyncService/ReplicaLock pair and the live
// LockServer/LockClient pair — speak exactly these bytes; there is one
// encoder/decoder per message, here. encode() writes the message including
// its type byte; decode() assumes the dispatcher consumed the type byte.
// Decoders throw util::CodecError on truncated input.

// kAcquireLock: thread -> synchronization thread.
struct AcquireLockMsg {
  LockId lock_id = 0;
  std::uint32_t site = 0;
  net::Port grant_port = 0;
  net::Port data_port = 0;
  std::uint64_t expected_hold_us = 0;
  LockWireMode mode = LockWireMode::kExclusive;
  // Echoed in the GRANT: stale grants (an earlier timed-out acquire, a
  // previous sync incarnation) are discarded by nonce mismatch.
  std::uint64_t nonce = 0;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kAcquireLock);
    writer.u32(lock_id);
    writer.u32(site);
    writer.u16(grant_port);
    writer.u16(data_port);
    writer.u64(expected_hold_us);
    writer.u8(static_cast<std::uint8_t>(mode));
    writer.u64(nonce);
  }
  static AcquireLockMsg decode(util::WireReader& reader) {
    AcquireLockMsg msg;
    msg.lock_id = reader.u32();
    msg.site = reader.u32();
    msg.grant_port = reader.u16();
    msg.data_port = reader.u16();
    msg.expected_hold_us = reader.u64();
    msg.mode = static_cast<LockWireMode>(reader.u8());
    msg.nonce = reader.u64();
    return msg;
  }
};

// kReleaseLock: thread -> synchronization thread.
struct ReleaseLockMsg {
  LockId lock_id = 0;
  std::uint32_t site = 0;
  Version new_version = 0;
  std::vector<std::uint32_t> up_to_date;  // sites holding new_version
  LockWireMode mode = LockWireMode::kExclusive;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kReleaseLock);
    writer.u32(lock_id);
    writer.u32(site);
    writer.u64(new_version);
    writer.u32(static_cast<std::uint32_t>(up_to_date.size()));
    for (std::uint32_t s : up_to_date) writer.u32(s);
    writer.u8(static_cast<std::uint8_t>(mode));
  }
  static ReleaseLockMsg decode(util::WireReader& reader) {
    ReleaseLockMsg msg;
    msg.lock_id = reader.u32();
    msg.site = reader.u32();
    msg.new_version = reader.u64();
    const std::uint32_t n = reader.u32();
    msg.up_to_date.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) msg.up_to_date.push_back(reader.u32());
    msg.mode = static_cast<LockWireMode>(reader.u8());
    return msg;
  }
};

// kRegisterLock: thread -> synchronization thread (become a holder).
struct RegisterLockMsg {
  LockId lock_id = 0;
  std::uint32_t site = 0;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kRegisterLock);
    writer.u32(lock_id);
    writer.u32(site);
  }
  static RegisterLockMsg decode(util::WireReader& reader) {
    RegisterLockMsg msg;
    msg.lock_id = reader.u32();
    msg.site = reader.u32();
    return msg;
  }
};

// kGrant: synchronization thread -> requesting thread (grant port).
struct GrantMsg {
  LockId lock_id = 0;
  std::uint64_t nonce = 0;
  Version version = 0;
  GrantFlag flag = GrantFlag::kVersionOk;
  // Site whose daemon holds `version` (the last lock owner); 0 when unknown.
  // With kNeedNewVersion the requester pulls the replica from this site.
  std::uint32_t transfer_from = 0;
  std::vector<std::uint32_t> holders;  // registered replica-holder sites

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kGrant);
    writer.u32(lock_id);
    writer.u64(nonce);
    writer.u64(version);
    writer.u8(static_cast<std::uint8_t>(flag));
    writer.u32(transfer_from);
    writer.u32(static_cast<std::uint32_t>(holders.size()));
    for (std::uint32_t s : holders) writer.u32(s);
  }
  static GrantMsg decode(util::WireReader& reader) {
    GrantMsg msg;
    msg.lock_id = reader.u32();
    msg.nonce = reader.u64();
    msg.version = reader.u64();
    msg.flag = static_cast<GrantFlag>(reader.u8());
    msg.transfer_from = reader.u32();
    const std::uint32_t n = reader.u32();
    msg.holders.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) msg.holders.push_back(reader.u32());
    return msg;
  }
};

// kTransferReplica: sync thread (sim) or pulling client (live) -> the daemon
// holding the newest copy. Directs it to send lock_id's replica bundle to
// (dst_site, dst_port) over the data path.
struct TransferReplicaMsg {
  LockId lock_id = 0;
  Version version = 0;      // version the sender believes the daemon holds
  std::uint32_t dst_site = 0;
  net::Port dst_port = 0;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kTransferReplica);
    writer.u32(lock_id);
    writer.u64(version);
    writer.u32(dst_site);
    writer.u16(dst_port);
  }
  static TransferReplicaMsg decode(util::WireReader& reader) {
    TransferReplicaMsg msg;
    msg.lock_id = reader.u32();
    msg.version = reader.u64();
    msg.dst_site = reader.u32();
    msg.dst_port = reader.u16();
    return msg;
  }
};

// kPollVersion: sync thread -> daemon ("what version of lock_id do you
// hold?"); answered with a kVersionReport to reply_port.
struct PollVersionMsg {
  LockId lock_id = 0;
  net::Port reply_port = 0;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kPollVersion);
    writer.u32(lock_id);
    writer.u16(reply_port);
  }
  static PollVersionMsg decode(util::WireReader& reader) {
    PollVersionMsg msg;
    msg.lock_id = reader.u32();
    msg.reply_port = reader.u16();
    return msg;
  }
};

// kVersionReport: daemon -> sync thread, answer to kPollVersion.
struct VersionReportMsg {
  LockId lock_id = 0;
  std::uint32_t site = 0;
  Version version = 0;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kVersionReport);
    writer.u32(lock_id);
    writer.u32(site);
    writer.u64(version);
  }
  static VersionReportMsg decode(util::WireReader& reader) {
    VersionReportMsg msg;
    msg.lock_id = reader.u32();
    msg.site = reader.u32();
    msg.version = reader.u64();
    return msg;
  }
};

// kResolveNode: live client -> lock server ("what UDP address is node N?").
struct ResolveNodeMsg {
  std::uint32_t node = 0;
  net::Port reply_port = 0;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kResolveNode);
    writer.u32(node);
    writer.u16(reply_port);
  }
  static ResolveNodeMsg decode(util::WireReader& reader) {
    ResolveNodeMsg msg;
    msg.node = reader.u32();
    msg.reply_port = reader.u16();
    return msg;
  }
};

// kNodeAddr: lock server -> live client, answer to kResolveNode. ipv4 is in
// network byte order (as stored in sockaddr_in); known=0 means the server has
// never heard from that node and ipv4/udp_port are meaningless.
struct NodeAddrMsg {
  std::uint32_t node = 0;
  std::uint32_t ipv4 = 0;
  std::uint16_t udp_port = 0;  // host byte order on the wire
  std::uint8_t known = 0;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kNodeAddr);
    writer.u32(node);
    writer.u32(ipv4);
    writer.u16(udp_port);
    writer.u8(known);
  }
  static NodeAddrMsg decode(util::WireReader& reader) {
    NodeAddrMsg msg;
    msg.node = reader.u32();
    msg.ipv4 = reader.u32();
    msg.udp_port = reader.u16();
    msg.known = reader.u8();
    return msg;
  }
};

// kShardMapRequest: live client -> any lock-server shard ("send me the
// shard map"). Answered with a kShardMapReply on reply_port.
struct ShardMapRequestMsg {
  net::Port reply_port = 0;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kShardMapRequest);
    writer.u16(reply_port);
  }
  static ShardMapRequestMsg decode(util::WireReader& reader) {
    ShardMapRequestMsg msg;
    msg.reply_port = reader.u16();
    return msg;
  }
};

// kShardMapReply: lock-server shard -> live client. One entry per shard of
// the deployment; ipv4 is in network byte order (as in kNodeAddr), and
// ipv4 == 0 means "no advertised address" — the client keeps whatever route
// it already has for that node (e.g. its bootstrap address).
struct ShardMapReplyMsg {
  struct Entry {
    std::uint32_t shard = 0;   // shard id, hashed into the routing ring
    std::uint32_t node = 0;    // the shard's NodeId on the wire
    std::uint32_t ipv4 = 0;    // network byte order; 0 = not advertised
    std::uint16_t udp_port = 0;
  };
  std::vector<Entry> shards;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kShardMapReply);
    writer.u32(static_cast<std::uint32_t>(shards.size()));
    for (const Entry& entry : shards) {
      writer.u32(entry.shard);
      writer.u32(entry.node);
      writer.u32(entry.ipv4);
      writer.u16(entry.udp_port);
    }
  }
  static ShardMapReplyMsg decode(util::WireReader& reader) {
    ShardMapReplyMsg msg;
    const std::uint32_t count = reader.u32();
    msg.shards.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Entry entry;
      entry.shard = reader.u32();
      entry.node = reader.u32();
      entry.ipv4 = reader.u32();
      entry.udp_port = reader.u16();
      msg.shards.push_back(entry);
    }
    return msg;
  }
};

// kBulkHello: daemon -> peer daemon (kDaemonPort). Advertises the sender's
// bulk-receive capabilities: `backends` is a kBulkCap* bitmask, tcp_port is
// the TCP bulk listener's port (host byte order; 0 = not offered). budp_port
// is reserved (the removed batched-UDP backend's port): always 0, kept so
// older peers still decode the message. The sender's IPv4 address is
// not carried — the receiver already learned it from the datagram envelope.
struct BulkHelloMsg {
  std::uint32_t site = 0;
  std::uint8_t backends = kBulkCapUdp;
  std::uint16_t tcp_port = 0;
  std::uint16_t budp_port = 0;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kBulkHello);
    writer.u32(site);
    writer.u8(backends);
    writer.u16(tcp_port);
    writer.u16(budp_port);
  }
  static BulkHelloMsg decode(util::WireReader& reader) {
    BulkHelloMsg msg;
    msg.site = reader.u32();
    msg.backends = reader.u8();
    msg.tcp_port = reader.u16();
    msg.budp_port = reader.u16();
    return msg;
  }
};

// kBulkHelloAck: peer daemon -> helloing daemon (kDaemonPort), answering a
// kBulkHello with the responder's own capabilities. Absence of the ack (an
// old binary drops the hello on the floor) is itself the negotiation result:
// the peer is UDP-only and bulk payloads stay on the MochaNet data port.
struct BulkHelloAckMsg {
  std::uint32_t site = 0;
  std::uint8_t backends = kBulkCapUdp;
  std::uint16_t tcp_port = 0;
  std::uint16_t budp_port = 0;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kBulkHelloAck);
    writer.u32(site);
    writer.u8(backends);
    writer.u16(tcp_port);
    writer.u16(budp_port);
  }
  static BulkHelloAckMsg decode(util::WireReader& reader) {
    BulkHelloAckMsg msg;
    msg.site = reader.u32();
    msg.backends = reader.u8();
    msg.tcp_port = reader.u16();
    msg.budp_port = reader.u16();
    return msg;
  }
};

// kStatsRequest: scraper -> lock-server shard (kSyncPort). `probe_nonce` is
// echoed in the reply so a scraper polling several shards over one reply
// port can match answers to questions.
struct StatsRequestMsg {
  net::Port reply_port = 0;
  std::uint64_t probe_nonce = 0;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kStatsRequest);
    writer.u16(reply_port);
    writer.u64(probe_nonce);
  }
  static StatsRequestMsg decode(util::WireReader& reader) {
    StatsRequestMsg msg;
    msg.reply_port = reader.u16();
    msg.probe_nonce = reader.u64();
    return msg;
  }
};

// kStatsReply: lock-server shard -> scraper (the request's reply port). The
// whole-process registry snapshot in wire form: scalar metrics (counters and
// gauges) plus log2-bucketed histograms, each carried with its name so the
// consumer needs no schema. Histogram buckets are transmitted as a prefix —
// trailing empty buckets are dropped — and bucket index b covers
// [2^(b-1), 2^b - 1] (bucket 0 is exactly 0), matching live::Histogram.
struct StatsReplyMsg {
  static constexpr std::uint8_t kCounter = 0;
  static constexpr std::uint8_t kGauge = 1;

  struct Metric {
    std::string name;
    std::uint8_t kind = kCounter;
    std::int64_t value = 0;
  };
  struct Hist {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> buckets;
  };

  std::uint64_t probe_nonce = 0;
  std::uint32_t shard_id = 0;
  std::int64_t wall_us = 0;  // CLOCK_REALTIME at snapshot time
  std::vector<Metric> metrics;
  std::vector<Hist> hists;

  void encode(util::Buffer& out) const {
    util::WireWriter writer(out);
    writer.u8(kStatsReply);
    writer.u64(probe_nonce);
    writer.u32(shard_id);
    writer.i64(wall_us);
    writer.u32(static_cast<std::uint32_t>(metrics.size()));
    for (const Metric& m : metrics) {
      writer.str(m.name);
      writer.u8(m.kind);
      writer.i64(m.value);
    }
    writer.u32(static_cast<std::uint32_t>(hists.size()));
    for (const Hist& h : hists) {
      writer.str(h.name);
      writer.u64(h.count);
      writer.u64(h.sum);
      writer.u32(static_cast<std::uint32_t>(h.buckets.size()));
      for (std::uint64_t b : h.buckets) writer.u64(b);
    }
  }
  static StatsReplyMsg decode(util::WireReader& reader) {
    // Reserve caps: counts come off the wire, so never pre-size more than a
    // sane snapshot could hold — truncated input throws before the loop
    // runs away anyway.
    constexpr std::uint32_t kReserveCap = 4096;
    StatsReplyMsg msg;
    msg.probe_nonce = reader.u64();
    msg.shard_id = reader.u32();
    msg.wall_us = reader.i64();
    const std::uint32_t n_metrics = reader.u32();
    msg.metrics.reserve(std::min(n_metrics, kReserveCap));
    for (std::uint32_t i = 0; i < n_metrics; ++i) {
      Metric m;
      m.name = reader.str();
      m.kind = reader.u8();
      m.value = reader.i64();
      msg.metrics.push_back(std::move(m));
    }
    const std::uint32_t n_hists = reader.u32();
    msg.hists.reserve(std::min(n_hists, kReserveCap));
    for (std::uint32_t i = 0; i < n_hists; ++i) {
      Hist h;
      h.name = reader.str();
      h.count = reader.u64();
      h.sum = reader.u64();
      const std::uint32_t n_buckets = reader.u32();
      h.buckets.reserve(std::min(n_buckets, kReserveCap));
      for (std::uint32_t b = 0; b < n_buckets; ++b) {
        h.buckets.push_back(reader.u64());
      }
      msg.hists.push_back(std::move(h));
    }
    return msg;
  }
};

}  // namespace mocha::replica
