#include "replica/lock_client_core.h"

namespace mocha::replica {

LockClientCore::LockClientCore(net::NodeId site, std::uint64_t nonce_seed)
    : site_(site), nonce_(nonce_seed) {}

util::Buffer LockClientCore::register_msg(LockId id, std::uint8_t bulk_caps,
                                          std::uint16_t tcp_port) const {
  util::Buffer msg;
  RegisterLockMsg{id, site_, bulk_caps, tcp_port}.encode(msg);
  return msg;
}

util::Buffer LockClientCore::acquire(ClientLock& lock, LockWireMode mode,
                                     std::uint64_t expected_hold_us) {
  // A fresh nonce per acquire: grants echoing any other nonce are stale
  // (an earlier timed-out acquire, a previous sync incarnation).
  lock.nonce = ++nonce_;
  lock.shared = mode == LockWireMode::kShared;
  util::Buffer msg;
  AcquireLockMsg{lock.id,        site_, lock.grant_port, lock.data_port,
                 expected_hold_us, mode,  lock.nonce}
      .encode(msg);
  return msg;
}

LockClientCore::Grant LockClientCore::on_grant(
    ClientLock& lock, std::span<const std::uint8_t> payload, GrantMsg* out) {
  GrantMsg grant;
  try {
    util::WireReader reader(payload);
    if (reader.u8() != kGrant) return Grant::kStale;
    grant = GrantMsg::decode(reader);
  } catch (const util::CodecError&) {
    return Grant::kStale;
  }
  if (grant.lock_id != lock.id || grant.nonce != lock.nonce) {
    return Grant::kStale;
  }
  const GrantFlag flag = grant.flag;
  const Version version = grant.version;
  if (out != nullptr) *out = std::move(grant);
  switch (flag) {
    case GrantFlag::kRejected:
      return Grant::kRejected;
    case GrantFlag::kNeedNewVersion:
      lock.granted = version;
      return Grant::kTransfer;
    case GrantFlag::kVersionOk:
      break;
  }
  lock.version = version;
  lock.held = true;
  return Grant::kVersionOk;
}

bool LockClientCore::on_transfer(ClientLock& lock, Version version) {
  const bool weakened = version < lock.granted;
  lock.version = weakened ? version : lock.granted;
  lock.held = true;
  return weakened;
}

Version LockClientCore::release(ClientLock& lock) {
  if (!lock.shared) ++lock.version;
  lock.held = false;
  return lock.version;
}

util::Buffer LockClientCore::release_msg(
    const ClientLock& lock, std::span<const std::uint32_t> up_to_date) const {
  util::Buffer msg;
  ReleaseLockMsg{lock.id, site_, lock.version,
                 std::vector<std::uint32_t>(up_to_date.begin(),
                                            up_to_date.end()),
                 lock.shared ? LockWireMode::kShared
                             : LockWireMode::kExclusive}
      .encode(msg);
  return msg;
}

}  // namespace mocha::replica
