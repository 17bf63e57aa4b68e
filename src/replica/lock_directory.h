// replica::LockDirectory — the synchronization thread's lock directory
// (paper §3, Fig 7, with the §4 lease, blacklist, up-to-date-set and
// poll-and-redirect rules) as one transport-free state machine: no
// threads, clocks, sockets or mutexes. The sim SyncService and the live
// LockServer are adapters around it. Every input carries the adapter's
// `now_us`; outputs go to a LockDirectorySink. The adapter may answer
// transfer_needed and confirm_owner from inside the sink call: the core
// makes those calls last.
//
// Grant policy: strict FIFO with shared batching. The queue head is
// granted; while it is shared, the consecutive shared requests behind it
// are granted too, so a waiting writer blocks later readers. Shared holders
// do not advance the version; each joins the up-to-date set.
//
// Sync-directed transfer (Fig 7, §4): a kNeedNewVersion grant to a site
// with a data port is followed by a directive to the last owner's daemon,
// which sends the replicas straight to the requester. An unacknowledged
// directive means that daemon is dead: polls go to every registered daemon,
// reports come in, the window closes (early once every poll is answered or
// failed), then directives go to the candidates in order — newest version
// first, the requester first on ties — until one is acknowledged. A
// candidate older than the lock's version is a weakened forward.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "net/types.h"
#include "replica/wire.h"
#include "trace/event_kind.h"

namespace mocha::replica {

// Lease length of an acquire that names none (the clients' default too).
inline constexpr std::uint64_t kDefaultExpectedHoldUs = 500'000;

// The durable facts of one lock, kept across a sync-thread failover.
struct LockRecord {
  Version version = 0;
  std::optional<net::NodeId> last_owner;  // last *writer*
  std::set<net::NodeId> up_to_date;       // sites holding `version`
  std::set<net::NodeId> holders;          // registered replica holders
};

// One acquire request, queued and then active. (site, nonce) names it.
struct LockHold {
  LockId lock_id = 0;
  net::NodeId site = 0;
  net::Port grant_port = 0;
  net::Port data_port = 0;
  std::uint64_t expected_hold_us = 0;
  LockWireMode mode = LockWireMode::kExclusive;
  std::uint64_t nonce = 0;
  std::int64_t enqueued_at_us = 0;
  std::int64_t granted_at_us = 0;
  std::int64_t lease_deadline_us = 0;
  std::uint64_t lease = 0;  // the adapter's handle, from arm_lease
};

// `daemon` is to send msg.lock_id's replicas to (msg.dst_site,
// msg.dst_port); `id` names the transfer in the adapter's answers.
struct TransferDirective {
  std::uint64_t id = 0;
  net::NodeId daemon = 0;
  TransferReplicaMsg msg;
};

// Progress through §4 poll-and-redirect, for the adapter's logs.
enum class TransferStep : std::uint8_t {
  kOwnerFailed,     // the last owner's daemon did not ack: polling begins
  kRedirectFailed,  // a polled survivor did not ack: next candidate
  kWeakened,        // directing a version older than the lock's
  kLost,            // no surviving daemon could serve the transfer
};

// kLockBroken means the holder's site is now blacklisted, for good (§4).
struct LockEvent {
  trace::EventKind kind;  // kLockRequested/Granted/Released/Broken
  LockId lock_id = 0;
  net::NodeId site = 0;
  LockWireMode mode = LockWireMode::kExclusive;
  Version version = 0;      // granted version / released new version
  std::uint64_t nonce = 0;  // the hold's nonce (0: none)
  std::int64_t span_us = -1;  // granted: queue wait; released: hold time
};

class LockDirectorySink {
 public:
  virtual ~LockDirectorySink() = default;
  // A grant, or a kRejected answer, for hold.site:grant_port.
  virtual void send_grant(const LockHold& hold, const GrantMsg& grant) = 0;
  // Arms a timer for hold.lease_deadline_us (a fresh hold, or one whose
  // lease fired and owner_confirmed extended); returns the new hold.lease. An
  // adapter that scans the deadlines instead keeps these defaults.
  virtual std::uint64_t arm_lease(const LockHold& /*hold*/) { return 0; }
  virtual void cancel_lease(const LockHold& /*hold*/) {}
  // Send to directive.daemon; answer transfer_delivered (acked) or
  // transfer_failed.
  virtual void transfer_needed(const TransferDirective& directive) = 0;
  // Reports come back through handle(); a failed send may be answered
  // with poll_failed.
  virtual void send_poll(std::uint64_t transfer_id, net::NodeId daemon,
                         const PollVersionMsg& poll) = 0;
  // Answer poll_window_closed when the window ends, unless the reports end
  // it first (polling()).
  virtual void poll_window(std::uint64_t transfer_id) = 0;
  virtual void transfer_step(TransferStep /*step*/,
                             const TransferDirective& /*directive*/,
                             Version /*lock_version*/) {}
  // hold's lease expired: answer with owner_confirmed.
  virtual void confirm_owner(const LockHold& hold) = 0;
  virtual void record_changed(LockId /*id*/, const LockRecord& /*record*/) {}
  virtual void trace(const LockEvent& /*event*/) {}
};

class LockDirectory {
 public:
  struct Config {
    std::int64_t lease_grace_us = 300'000;
    // Ablation: ignore the up-to-date set, so every acquisition after the
    // first release transfers (paper Fig 7 without lastLockOwner).
    bool disable_version_ok = false;
  };

  LockDirectory(LockDirectorySink& sink, Config config);

  // Durable state logged by a previous incarnation.
  void restore(const std::map<LockId, LockRecord>& locks,
               const std::set<net::NodeId>& blacklist);

  // kAcquireLock / kReleaseLock / kRegisterLock / kVersionReport, decoded
  // once here (a truncated one is dropped); returns false for any other
  // message.
  bool handle(std::int64_t now_us, std::span<const std::uint8_t> payload);
  // Stale expiries (the hold was released) are ignored: the ABA guard.
  void lease_expired(std::int64_t now_us, LockId lock_id, net::NodeId site,
                     std::uint64_t nonce);
  // Alive: the lease is extended. Dead: the lock is broken and the site
  // blacklisted (§4).
  void owner_confirmed(std::int64_t now_us, LockId lock_id, net::NodeId site,
                       std::uint64_t nonce, bool alive);
  // The directive was acked. A redirected one was a weakened forward when
  // below the lock's version (§4), and makes the polled survivor the one
  // up-to-date site — unless the lock moved on meanwhile: a live ack can
  // land after the requester's release.
  void transfer_delivered(std::int64_t now_us, std::uint64_t transfer_id);
  // Its daemon is presumed dead: it leaves the holder and up-to-date sets,
  // and the transfer moves on to polling or to the next candidate.
  void transfer_failed(std::int64_t now_us, std::uint64_t transfer_id);
  // The poll of `daemon` went unacked: the window waits for it no longer.
  void poll_failed(std::int64_t now_us, std::uint64_t transfer_id,
                   net::NodeId daemon);
  void poll_window_closed(std::int64_t now_us, std::uint64_t transfer_id);
  bool polling(std::uint64_t transfer_id) const;

  const LockRecord* record(LockId lock_id) const;
  bool is_blacklisted(net::NodeId site) const {
    return blacklist_.contains(site);
  }
  std::uint64_t grants() const { return grants_; }
  std::uint64_t releases() const { return releases_; }
  std::uint64_t locks_broken() const { return locks_broken_; }
  std::uint64_t registrations() const { return registrations_; }
  std::uint64_t queued_waiters() const { return queued_waiters_; }
  std::uint64_t active_holds() const { return active_holds_; }
  std::size_t transfers_pending() const { return transfers_.size(); }
  template <typename F>
  void for_each_active(F&& f) const {
    for (const auto& [id, lock] : locks_) {
      for (const LockHold& hold : lock.active) f(hold);
    }
  }

 private:
  struct LockState {
    LockRecord record;
    std::vector<LockHold> active;  // current holders (readers, or one writer)
    std::deque<LockHold> waiting;
  };
  struct Transfer {
    TransferDirective directive;  // the one in flight, or the next
    std::uint64_t nonce = 0;      // the requester's hold
    bool redirecting = false;     // past the last owner's directive
    bool polling = false;
    std::set<net::NodeId> awaiting;  // polled daemons yet to answer
    std::vector<std::pair<net::NodeId, Version>> candidates;  // reports
    std::size_t next = 0;  // of candidates
  };

  void acquire(const AcquireLockMsg& msg);
  void release(const ReleaseLockMsg& msg);
  void grant_from_queue(LockId id, LockState& lock);
  void activate(LockId id, LockState& lock, LockHold hold);
  void arm_lease(LockHold& hold);
  LockRecord* find_record(LockId lock_id);
  LockHold* find_active(LockId lock_id, net::NodeId site,
                        std::uint64_t nonce);
  void start_transfer(const LockHold& hold, net::NodeId owner,
                      Version version);
  void report(const VersionReportMsg& msg);
  void close_poll(std::uint64_t id);
  void redirect_next(std::uint64_t id);

  LockDirectorySink& sink_;
  Config config_;
  std::int64_t now_us_ = 0;  // of the input being processed
  std::map<LockId, LockState> locks_;
  std::set<net::NodeId> blacklist_;
  // Each site's daemon bulk contact (caps, TCP port), from kRegisterLock.
  std::map<net::NodeId, std::pair<std::uint8_t, std::uint16_t>> contacts_;
  std::map<std::uint64_t, Transfer> transfers_;
  std::uint64_t next_transfer_id_ = 0;

  std::uint64_t grants_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t locks_broken_ = 0;
  std::uint64_t registrations_ = 0;
  std::uint64_t queued_waiters_ = 0;
  std::uint64_t active_holds_ = 0;
};

}  // namespace mocha::replica
