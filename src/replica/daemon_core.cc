#include "replica/daemon_core.h"

#include <algorithm>

#include "util/log.h"

namespace mocha::replica {

DaemonCore::DaemonCore(net::NodeId self, DaemonSink& sink)
    : self_(self), sink_(sink) {}

bool DaemonCore::handle(net::NodeId src,
                        std::span<const std::uint8_t> payload) {
  if (payload.empty()) return false;
  util::WireReader reader(payload);
  try {
    switch (reader.u8()) {
      case kTransferReplica: {
        const TransferReplicaMsg directive = TransferReplicaMsg::decode(reader);
        sink_.serve(directive, encode(directive.lock_id));
        return true;
      }
      case kPollVersion: {
        const PollVersionMsg poll = PollVersionMsg::decode(reader);
        util::Buffer report;
        VersionReportMsg{poll.lock_id, self_, version(poll.lock_id)}.encode(
            report);
        ++polls_answered_;
        sink_.send(src, poll.reply_port, std::move(report));
        return true;
      }
      case kHeartbeat:
        // Liveness is proven by the transport ack the prober waits on;
        // nothing to do here.
        return true;
      default:
        return false;
    }
  } catch (const util::CodecError& err) {
    MOCHA_DEBUG("daemon") << "site " << self_
                          << ": dropping malformed control message from "
                          << src << ": " << err.what();
    return true;
  }
}

DaemonCore::Applied DaemonCore::apply(std::span<const std::uint8_t> payload) {
  // Decode the whole bundle before touching the store: a truncated one must
  // leave contents and version as they were, not half-overwritten.
  Applied result;
  std::vector<BundleEntry> entries;
  try {
    util::WireReader reader(payload);
    result.lock_id = reader.u32();
    result.version = reader.u64();
    const std::uint32_t count = reader.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string name = reader.str();
      entries.push_back({std::move(name), reader.bytes()});
    }
  } catch (const util::CodecError& err) {
    MOCHA_DEBUG("daemon") << "site " << self_
                          << ": dropping malformed bundle: " << err.what();
    return result;
  }
  if (result.version < version(result.lock_id)) {
    // A duplicate or a straggler from an earlier cycle; applying it would
    // roll contents back behind what the lock protocol promised.
    ++stale_drops_;
    result.outcome = Apply::kStale;
    return result;
  }
  sink_.apply(result.lock_id, entries);
  LockVersion& lock = locks_[result.lock_id];  // after the sink call
  lock.version = std::max(lock.version, result.version);
  ++lock.applied;
  ++bundles_applied_;
  result.outcome = Apply::kApplied;
  return result;
}

util::Buffer DaemonCore::encode(LockId lock_id) {
  // What this daemon holds, not what a directive claims: a redirected
  // transfer (§4) may serve an older version, and the receiver's stale check
  // and weakened-forward rule need the truth. Read before the sink call,
  // which may take simulated time.
  const Version stamp = version(lock_id);
  std::vector<BundleView> replicas;
  sink_.bundle(lock_id, replicas);
  return encode(lock_id, stamp, replicas);
}

void DaemonCore::publish(LockId lock_id, Version version) {
  LockVersion& lock = locks_[lock_id];
  lock.version = std::max(lock.version, version);
}

Version DaemonCore::version(LockId lock_id) const {
  auto it = locks_.find(lock_id);
  return it == locks_.end() ? 0 : it->second.version;
}

std::uint64_t DaemonCore::applied(LockId lock_id) const {
  auto it = locks_.find(lock_id);
  return it == locks_.end() ? 0 : it->second.applied;
}

util::Buffer DaemonCore::encode(LockId lock_id, Version version,
                                std::span<const BundleView> replicas) {
  std::size_t size = 4 + 8 + 4;
  for (const BundleView& replica : replicas) {
    size += 4 + replica.name.size() + 4 + replica.payload.size();
  }
  util::Buffer data;
  data.reserve(size);
  util::WireWriter writer(data);
  writer.u32(lock_id);
  writer.u64(version);
  writer.u32(static_cast<std::uint32_t>(replicas.size()));
  for (const BundleView& replica : replicas) {
    writer.str(replica.name);
    writer.bytes(replica.payload);
  }
  return data;
}

}  // namespace mocha::replica
