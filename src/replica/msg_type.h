// replica::MsgType — the type byte that opens every shared-object-layer
// message (replica/wire.h), declared once as a table.
//
// Each row of MOCHA_MSG_TYPES is one live message type:
//   MSG(enumerator, value)          no typed codec; encoded where it is used
//   CODEC(enumerator, value, Stem)  typed codec replica::<Stem>Msg in wire.h
// MOCHA_RETIRED_MSG_TYPES lists the values of retired messages, which no
// live type may take again: an older peer would still read them the old way.
//
// From the table come the enum below, a static_assert that every value,
// live or retired, is taken once, and one round-trip case per CODEC row in
// tests/frame_conformance_test.cc (LockWireCodec.<Stem>RoundTrip).
// tools/lint_protocol.py reads the rows to check that every type has a
// producer and a consumer, and that the live runtime speaks every codec.
#pragma once

#include <cstdint>

#include "util/first_repeated_value.h"

#define MOCHA_MSG_TYPES(MSG, CODEC)                                            \
  /* -> sync service */                                                        \
  CODEC(kAcquireLock, 1, AcquireLock)                                          \
  CODEC(kReleaseLock, 2, ReleaseLock)                                          \
  CODEC(kRegisterLock, 3, RegisterLock)                                        \
  MSG(kRegisterReplica, 4)                                                     \
  MSG(kAttachReplica, 5)                                                       \
  CODEC(kVersionReport, 6, VersionReport)                                      \
  /* sync -> attacher */                                                       \
  MSG(kAttachReply, 7)                                                         \
  /* sync -> daemon */                                                         \
  CODEC(kTransferReplica, 10, TransferReplica)                                 \
  CODEC(kPollVersion, 12, PollVersion)                                         \
  MSG(kHeartbeat, 14)                                                          \
  /* surrogate sync -> daemons after a sync-thread failover (§4 recovery) */   \
  MSG(kSyncMoved, 15)                                                          \
  /* app thread -> peer daemon: where does the sync thread live now? (used */  \
  /* by nodes that were dead during the kSyncMoved broadcast) */               \
  MSG(kWhereIsSync, 16)                                                        \
  MSG(kSyncLocation, 17)                                                       \
  /* non-synchronization-based consistency (§7 ongoing work): cached-object */ \
  /* directory traffic */                                                      \
  MSG(kPublishCached, 18)                                                      \
  MSG(kPublishReply, 19)                                                       \
  MSG(kRefreshCached, 20)                                                      \
  MSG(kRefreshReply, 21)                                                       \
  /* sync -> application thread (grant port) */                                \
  CODEC(kGrant, 22, Grant)                                                     \
  /* Sharded lock directory (§9): at registration a client asks its */         \
  /* bootstrap shard for the deployment's shard map; the reply lists every */  \
  /* shard's endpoint, and consistent hashing over the shard ids */            \
  /* (live::ShardMap) routes each lock id to exactly one of them. */           \
  CODEC(kShardMapRequest, 25, ShardMapRequest)                                 \
  CODEC(kShardMapReply, 26, ShardMapReply)                                     \
  /* Live introspection (§11): any node asks a lock-server shard for its */    \
  /* process's telemetry snapshot (live::MetricsRegistry), served off the */   \
  /* shard's reactor so a scrape never blocks the protocol path. */            \
  CODEC(kStatsRequest, 29, StatsRequest)                                       \
  CODEC(kStatsReply, 30, StatsReply)

#define MOCHA_RETIRED_MSG_TYPES(RETIRED)                                       \
  /* 23, 24: live peer discovery (RESOLVE-NODE / NODE-ADDR); the lock */       \
  /* server now puts the requester's address into the transfer directive. */   \
  RETIRED(23)                                                                  \
  RETIRED(24)                                                                  \
  /* 27, 28: the BULK-HELLO exchange; a site's bulk capabilities now ride */   \
  /* its kRegisterLock and the transfer directive. */                          \
  RETIRED(27)                                                                  \
  RETIRED(28)

namespace mocha::replica {

#define MOCHA_MSG_ENUMERATOR(name, value, ...) name = value,
enum MsgType : std::uint8_t {
  MOCHA_MSG_TYPES(MOCHA_MSG_ENUMERATOR, MOCHA_MSG_ENUMERATOR)
};
#undef MOCHA_MSG_ENUMERATOR

#define MOCHA_MSG_VALUE(name, value, ...) value,
#define MOCHA_RETIRED_VALUE(value) value,
static_assert(util::first_repeated_value(
                  {MOCHA_MSG_TYPES(MOCHA_MSG_VALUE, MOCHA_MSG_VALUE)
                       MOCHA_RETIRED_MSG_TYPES(MOCHA_RETIRED_VALUE)}) == -1,
              "a MsgType value is taken twice, or reuses a retired value");
#undef MOCHA_RETIRED_VALUE
#undef MOCHA_MSG_VALUE

}  // namespace mocha::replica
