// Stable-storage log for the synchronization thread's durable state —
// the recovery mechanism the paper sketches for sync-thread failures (§4):
// "logging its state and employing a recovery protocol whereby a new
//  synchronization thread is spawned which informs the daemon threads of its
//  existence."
//
// The log holds only durable facts (versions, last writers, up-to-date sets,
// holder registrations, the replica directory, the blacklist). Volatile
// facts — the wait queue and the set of currently active holders — are NOT
// logged; they are reconstructed by client retries after failover.
//
// In a real deployment this would live on disk or a replicated store; here
// it is an in-memory object owned by ReplicaSystem, which by construction
// survives the home *node* being killed in the network fabric.
#pragma once

#include <map>
#include <set>
#include <string>

#include "replica/lock_directory.h"
#include "replica/version_vector.h"
#include "replica/wire.h"
#include "runtime/system.h"
#include "util/buffer.h"

namespace mocha::replica {

struct ReplicaDirectoryEntry {
  std::string type;
  util::Buffer initial_blob;
  int r_copies = 0;
  std::set<runtime::SiteId> sites;
};

struct SyncStateLog {
  struct CachedRecord {
    util::Buffer blob;
    VersionVector vv;
  };

  std::map<LockId, LockRecord> locks;
  std::map<std::string, ReplicaDirectoryEntry> replicas;
  std::map<std::string, CachedRecord> cached;  // §7 cached-object directory
  std::set<runtime::SiteId> blacklist;

  std::uint64_t writes = 0;  // how many log updates were made (introspection)
};

}  // namespace mocha::replica
