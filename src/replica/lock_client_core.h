// replica::LockClientCore — the application-thread side of the lock
// protocol (paper §2.1.1, Fig 5, §4) as one transport-free state machine:
// no threads, clocks, sockets or mutexes. The sim ReplicaLock and the live
// LockClient are adapters; each keeps its own waits. Only this core builds
// kAcquireLock, kReleaseLock and kRegisterLock and matches kGrant.
//
// One acquire: acquire() with a fresh nonce -> on_grant() matches the nonce
// -> kVersionOk holds at the granted version; kNeedNewVersion holds once
// the directed transfer lands on the data port (on_transfer). A transfer
// older than the GRANT's version is a weakened forward (§4): the hold
// adopts it, and on_transfer() says so. release() publishes version + 1
// (exclusive) or nothing new (shared).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/types.h"
#include "replica/wire.h"
#include "util/buffer.h"

namespace mocha::replica {

// One lock's client state at one site (sim) or one client (live).
struct ClientLock {
  LockId id = 0;
  net::Port grant_port = 0;
  // Where transfers to this site land; 0 (no replicas here) asks for none.
  net::Port data_port = 0;
  bool held = false;
  bool shared = false;      // held (or being acquired) in shared mode
  Version version = 0;      // of the current hold, else of the last one
  std::uint64_t nonce = 0;  // of the latest acquire
  Version granted = 0;      // the GRANT's version, while a transfer is due
};

class LockClientCore {
 public:
  enum class Grant : std::uint8_t {
    kStale,      // not a GRANT for the pending acquire: keep waiting
    kRejected,   // the site is blacklisted after a broken lock (§4)
    kVersionOk,  // held at the granted version
    kTransfer,   // held once the directed transfer lands (on_transfer)
  };

  LockClientCore(net::NodeId site, std::uint64_t nonce_seed = 0);

  net::NodeId site() const { return site_; }

  // kRegisterLock with the site daemon's bulk contact.
  util::Buffer register_msg(LockId id, std::uint8_t bulk_caps = 0,
                            std::uint16_t tcp_port = 0) const;

  // `expected_hold_us` 0 asks for the directory's default lease.
  util::Buffer acquire(ClientLock& lock, LockWireMode mode,
                       std::uint64_t expected_hold_us);

  // A grant-port message; `grant` receives any non-stale GRANT.
  Grant on_grant(ClientLock& lock, std::span<const std::uint8_t> payload,
                 GrantMsg* grant = nullptr);

  // The transfer landed at `version`: the hold begins. True for a
  // weakened forward.
  bool on_transfer(ClientLock& lock, Version version);

  // Ends the hold; returns the version the release publishes.
  Version release(ClientLock& lock);
  // kReleaseLock for the hold release() ended; `up_to_date` holds it.
  util::Buffer release_msg(const ClientLock& lock,
                           std::span<const std::uint32_t> up_to_date) const;

 private:
  net::NodeId site_;
  std::uint64_t nonce_;
};

}  // namespace mocha::replica
