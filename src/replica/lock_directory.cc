#include "replica/lock_directory.h"

#include <algorithm>
#include <limits>

#include "util/log.h"

namespace mocha::replica {
namespace {

// A truncated message is dropped before it can change any state.
template <typename Msg>
std::optional<Msg> decode(util::WireReader& reader) {
  try {
    return Msg::decode(reader);
  } catch (const util::CodecError& err) {
    MOCHA_DEBUG("lockdir") << "dropping malformed lock message: "
                           << err.what();
    return std::nullopt;
  }
}

}  // namespace

LockDirectory::LockDirectory(LockDirectorySink& sink, Config config)
    : sink_(sink), config_(config) {}

void LockDirectory::restore(const std::map<LockId, LockRecord>& locks,
                            const std::set<net::NodeId>& blacklist) {
  for (const auto& [id, record] : locks) locks_[id].record = record;
  blacklist_.insert(blacklist.begin(), blacklist.end());
}

void LockDirectory::arm_lease(LockHold& hold) {
  // now + grace + expected hold, saturating: the hold comes off the wire.
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  const std::int64_t base = now_us_ + config_.lease_grace_us;
  hold.lease_deadline_us =
      hold.expected_hold_us >= static_cast<std::uint64_t>(kNever - base)
          ? kNever
          : base + static_cast<std::int64_t>(hold.expected_hold_us);
  hold.lease = sink_.arm_lease(hold);
}

bool LockDirectory::handle(std::int64_t now_us,
                           std::span<const std::uint8_t> payload) {
  if (payload.empty()) return false;
  now_us_ = now_us;
  util::WireReader reader(payload);
  switch (reader.u8()) {
    case kAcquireLock:
      if (auto msg = decode<AcquireLockMsg>(reader)) acquire(*msg);
      return true;
    case kReleaseLock:
      if (auto msg = decode<ReleaseLockMsg>(reader)) release(*msg);
      return true;
    case kRegisterLock:
      if (auto msg = decode<RegisterLockMsg>(reader)) {
        LockRecord& record = locks_[msg->lock_id].record;
        record.holders.insert(msg->site);
        contacts_[msg->site] = {msg->bulk_caps, msg->tcp_port};
        ++registrations_;
        sink_.record_changed(msg->lock_id, record);
      }
      return true;
    case kVersionReport:
      if (auto msg = decode<VersionReportMsg>(reader)) report(*msg);
      return true;
    default:
      return false;
  }
}

void LockDirectory::acquire(const AcquireLockMsg& msg) {
  LockHold hold{msg.lock_id, msg.site, msg.grant_port, msg.data_port,
                msg.expected_hold_us != 0 ? msg.expected_hold_us
                                          : kDefaultExpectedHoldUs,
                msg.mode, msg.nonce, now_us_};
  sink_.trace({trace::EventKind::kLockRequested, hold.lock_id, hold.site,
               hold.mode, 0, hold.nonce});
  if (blacklist_.contains(hold.site)) {
    // §4: a thread whose lock was broken is prevented from future requests.
    sink_.send_grant(
        hold, {hold.lock_id, hold.nonce, 0, GrantFlag::kRejected, 0, {}});
    return;
  }
  LockState& lock = locks_[hold.lock_id];
  lock.record.holders.insert(hold.site);
  lock.waiting.push_back(hold);
  ++queued_waiters_;
  grant_from_queue(hold.lock_id, lock);
}

void LockDirectory::grant_from_queue(LockId id, LockState& lock) {
  // Writers need the lock free; readers need no active writer.
  while (!lock.waiting.empty()) {
    const bool exclusive =
        lock.waiting.front().mode == LockWireMode::kExclusive;
    const bool writer_active =
        !lock.active.empty() &&
        lock.active.front().mode == LockWireMode::kExclusive;
    if (exclusive ? !lock.active.empty() : writer_active) return;
    LockHold hold = lock.waiting.front();
    lock.waiting.pop_front();
    --queued_waiters_;
    activate(id, lock, std::move(hold));
    if (exclusive) return;  // else continue the consecutive shared run
  }
}

void LockDirectory::activate(LockId id, LockState& lock, LockHold hold) {
  ++grants_;
  hold.granted_at_us = now_us_;
  arm_lease(hold);

  // Version 0: nobody has released, every holder has its initial contents.
  // Otherwise the up-to-date set (§4) decides; with UR=1 it is Fig 7's
  // lastLockOwner check.
  const LockRecord& record = lock.record;
  const bool current =
      record.version == 0 ||
      (!config_.disable_version_ok && record.up_to_date.contains(hold.site));
  sink_.send_grant(
      hold, {id, hold.nonce, record.version,
             current ? GrantFlag::kVersionOk : GrantFlag::kNeedNewVersion,
             current ? 0 : record.last_owner.value_or(0),
             {record.holders.begin(), record.holders.end()}});

  const LockHold& active = lock.active.emplace_back(std::move(hold));
  ++active_holds_;
  sink_.trace({trace::EventKind::kLockGranted, id, active.site, active.mode,
               record.version, active.nonce,
               active.granted_at_us - active.enqueued_at_us});
  if (!current && record.last_owner.has_value() && active.data_port != 0) {
    start_transfer(active, *record.last_owner, record.version);
  }
}

void LockDirectory::start_transfer(const LockHold& hold, net::NodeId owner,
                                   Version version) {
  const std::uint64_t id = ++next_transfer_id_;
  transfers_[id].nonce = hold.nonce;
  TransferDirective& directive = transfers_[id].directive;
  directive = {id, owner, {hold.lock_id, version, hold.site, hold.data_port}};
  if (auto it = contacts_.find(hold.site); it != contacts_.end()) {
    directive.msg.dst_bulk_caps = it->second.first;
    directive.msg.dst_tcp_port = it->second.second;
  }
  // A copy: the adapter may answer inline, which can end the transfer.
  sink_.transfer_needed(TransferDirective(directive));
}

void LockDirectory::release(const ReleaseLockMsg& msg) {
  auto it = locks_.find(msg.lock_id);
  if (it == locks_.end()) return;
  LockState& lock = it->second;
  LockEvent event{trace::EventKind::kLockReleased, msg.lock_id, msg.site,
                  msg.mode, msg.new_version};
  auto active_it =
      std::find_if(lock.active.begin(), lock.active.end(),
                   [&](const LockHold& h) { return h.site == msg.site; });
  if (active_it != lock.active.end()) {
    event.nonce = active_it->nonce;
    event.span_us = now_us_ - active_it->granted_at_us;
    sink_.cancel_lease(*active_it);
    lock.active.erase(active_it);
    --active_holds_;
  } else if (!lock.active.empty() || blacklist_.contains(msg.site)) {
    // Stale, e.g. from an owner whose lock was broken. With nothing active
    // it is the recovered release: the grant predates a sync failover.
    return;
  }

  LockRecord& record = lock.record;
  if (msg.mode == LockWireMode::kExclusive) {
    record.version = msg.new_version;
    record.last_owner = msg.site;
    record.up_to_date.clear();
    record.up_to_date.insert(msg.up_to_date.begin(), msg.up_to_date.end());
  } else {
    record.up_to_date.insert(msg.site);  // a reader has the current version
  }
  ++releases_;
  sink_.record_changed(msg.lock_id, record);
  sink_.trace(event);
  grant_from_queue(msg.lock_id, lock);
}

LockRecord* LockDirectory::find_record(LockId lock_id) {
  auto it = locks_.find(lock_id);
  return it == locks_.end() ? nullptr : &it->second.record;
}

const LockRecord* LockDirectory::record(LockId lock_id) const {
  return const_cast<LockDirectory*>(this)->find_record(lock_id);
}

LockHold* LockDirectory::find_active(LockId lock_id, net::NodeId site,
                                     std::uint64_t nonce) {
  auto it = locks_.find(lock_id);
  if (it == locks_.end()) return nullptr;
  for (LockHold& hold : it->second.active) {
    if (hold.site == site && hold.nonce == nonce) return &hold;
  }
  return nullptr;
}

void LockDirectory::lease_expired(std::int64_t now_us, LockId lock_id,
                                  net::NodeId site, std::uint64_t nonce) {
  now_us_ = now_us;
  // §4, failure of a lock-owning thread: held for an extraordinary time.
  if (const LockHold* hold = find_active(lock_id, site, nonce)) {
    sink_.confirm_owner(*hold);
  }
}

void LockDirectory::owner_confirmed(std::int64_t now_us, LockId lock_id,
                                    net::NodeId site, std::uint64_t nonce,
                                    bool alive) {
  now_us_ = now_us;
  LockHold* found = find_active(lock_id, site, nonce);
  if (found == nullptr) return;
  if (alive) {  // just slow: extend the lease
    arm_lease(*found);
    return;
  }
  // §4: break the lock, blacklist the owner, grant to the next requester.
  LockState& lock = locks_[lock_id];
  const LockHold dead = *found;
  sink_.cancel_lease(dead);
  lock.active.erase(lock.active.begin() + (found - lock.active.data()));
  --active_holds_;
  ++locks_broken_;
  blacklist_.insert(site);
  lock.record.holders.erase(site);
  lock.record.up_to_date.erase(site);
  sink_.record_changed(lock_id, lock.record);
  sink_.trace({trace::EventKind::kLockBroken, lock_id, site, dead.mode, 0,
               nonce});
  grant_from_queue(lock_id, lock);
}

void LockDirectory::transfer_delivered(std::int64_t now_us,
                                       std::uint64_t transfer_id) {
  now_us_ = now_us;
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  const Transfer transfer = std::move(it->second);
  transfers_.erase(it);
  const TransferDirective& directive = transfer.directive;
  LockRecord* record = find_record(directive.msg.lock_id);
  // Only while the requester's hold stands: once it released (possibly at
  // the very version the lock had at the grant, after a weakened forward),
  // the record is newer than anything this ack could say.
  if (record == nullptr || !transfer.redirecting ||
      find_active(directive.msg.lock_id, directive.msg.dst_site,
                  transfer.nonce) == nullptr ||
      (directive.daemon == record->last_owner &&
       directive.msg.version == record->version)) {
    return;
  }
  record->version = std::min(record->version, directive.msg.version);
  record->up_to_date = {directive.daemon};
  record->last_owner = directive.daemon;
  sink_.record_changed(directive.msg.lock_id, *record);
}

void LockDirectory::transfer_failed(std::int64_t now_us,
                                    std::uint64_t transfer_id) {
  now_us_ = now_us;
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  Transfer& transfer = it->second;
  const TransferDirective& directive = transfer.directive;
  LockRecord& record = *find_record(directive.msg.lock_id);
  record.holders.erase(directive.daemon);
  record.up_to_date.erase(directive.daemon);
  sink_.record_changed(directive.msg.lock_id, record);
  if (transfer.redirecting) {
    sink_.transfer_step(TransferStep::kRedirectFailed, directive,
                        record.version);
    redirect_next(transfer_id);
    return;
  }
  // §4, failure of a non-lock-owning thread: the last owner's daemon (and
  // its node) are presumed failed; poll every registered daemon for the
  // most recent version it holds.
  transfer.redirecting = transfer.polling = true;
  transfer.awaiting = record.holders;
  sink_.transfer_step(TransferStep::kOwnerFailed, directive, record.version);
  if (record.holders.empty()) return close_poll(transfer_id);
  for (net::NodeId daemon : record.holders) {
    sink_.send_poll(transfer_id, daemon, {directive.msg.lock_id, kSyncPort});
  }
  sink_.poll_window(transfer_id);
}

void LockDirectory::report(const VersionReportMsg& msg) {
  // Reports nobody awaits are stragglers from an earlier window: dropped.
  std::vector<std::uint64_t> answered;
  for (auto& [id, transfer] : transfers_) {
    if (transfer.polling && transfer.directive.msg.lock_id == msg.lock_id &&
        transfer.awaiting.erase(msg.site) != 0) {
      transfer.candidates.emplace_back(msg.site, msg.version);
      if (transfer.awaiting.empty()) answered.push_back(id);
    }
  }
  for (std::uint64_t id : answered) close_poll(id);
}

void LockDirectory::poll_failed(std::int64_t now_us, std::uint64_t transfer_id,
                                net::NodeId daemon) {
  now_us_ = now_us;
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end() || !it->second.polling) return;
  it->second.awaiting.erase(daemon);
  if (it->second.awaiting.empty()) close_poll(transfer_id);
}

void LockDirectory::poll_window_closed(std::int64_t now_us,
                                       std::uint64_t transfer_id) {
  now_us_ = now_us;
  if (polling(transfer_id)) close_poll(transfer_id);
}

bool LockDirectory::polling(std::uint64_t transfer_id) const {
  auto it = transfers_.find(transfer_id);
  return it != transfers_.end() && it->second.polling;
}

void LockDirectory::close_poll(std::uint64_t id) {
  Transfer& transfer = transfers_.at(id);
  transfer.polling = false;
  transfer.awaiting.clear();
  // Newest version first; on ties the requester itself (its transfer is a
  // local loopback), then the lower site id.
  const net::NodeId requester = transfer.directive.msg.dst_site;
  std::sort(transfer.candidates.begin(), transfer.candidates.end(),
            [requester](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              if ((a.first == requester) != (b.first == requester)) {
                return a.first == requester;
              }
              return a.first < b.first;
            });
  redirect_next(id);
}

void LockDirectory::redirect_next(std::uint64_t id) {
  auto it = transfers_.find(id);
  Transfer& transfer = it->second;
  TransferDirective& directive = transfer.directive;
  const Version lock_version = find_record(directive.msg.lock_id)->version;
  if (transfer.next == transfer.candidates.size()) {
    const TransferDirective lost = directive;
    transfers_.erase(it);
    return sink_.transfer_step(TransferStep::kLost, lost, lock_version);
  }
  const auto [daemon, version] = transfer.candidates[transfer.next++];
  directive.daemon = daemon;
  directive.msg.version = std::min(version, lock_version);
  const TransferDirective out = directive;
  if (version < lock_version) {
    // Weakened consistency (§4): the most recent version died with its
    // node; forward the most recently *available* older version.
    sink_.transfer_step(TransferStep::kWeakened, out, lock_version);
  }
  sink_.transfer_needed(out);
}

}  // namespace mocha::replica
