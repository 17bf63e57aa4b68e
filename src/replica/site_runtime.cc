#include "replica/site_runtime.h"

#include "replica/replica_system.h"
#include "util/log.h"

namespace mocha::replica {

SiteReplicaRuntime::SiteReplicaRuntime(ReplicaSystem& system,
                                       runtime::SiteId site)
    : system_(system), site_(site), client_(site), daemon_(site, *this) {
  sim::Scheduler& sched = system_.scheduler();
  const std::string& name = system_.mocha().site_name(site);
  sched.spawn("daemon/" + name, [this] { daemon_loop(); });
  sched.spawn("daemondata/" + name, [this] { daemon_data_loop(); });
}

void SiteReplicaRuntime::register_replica(std::shared_ptr<Replica> replica) {
  replicas_[replica->name()] = std::move(replica);
}

std::shared_ptr<Replica> SiteReplicaRuntime::find_replica(
    const std::string& name) const {
  auto it = replicas_.find(name);
  return it != replicas_.end() ? it->second : nullptr;
}

LockLocal& SiteReplicaRuntime::lock_local(LockId id) {
  auto it = locks_.find(id);
  if (it == locks_.end()) {
    auto local = std::make_unique<LockLocal>();
    local->id = id;
    local->ur = system_.options().default_ur;
    local->local_waiters =
        std::make_unique<sim::Condition>(system_.scheduler());
    it = locks_.emplace(id, std::move(local)).first;
  }
  return *it->second;
}

void SiteReplicaRuntime::bundle(LockId lock_id, std::vector<BundleView>& out) {
  const std::vector<std::string> names = lock_local(lock_id).replica_names;
  for (const std::string& name : names) {
    std::shared_ptr<Replica> replica = find_replica(name);
    BundleView& view = out.emplace_back(BundleView{
        name, {}, replica != nullptr ? replica->marshal_payload()
                                     : util::Buffer{}});
    view.payload = view.marshaled;
    // JDK-style serialization runs once per object — the per-replica fixed
    // cost is why the paper's app pays ~1 ms per small replica (§5.1).
    serial::charge_marshal_cost(system_.options().marshal_model,
                                view.marshaled.size());
  }
}

void SiteReplicaRuntime::apply(LockId /*lock_id*/,
                               std::vector<BundleEntry>& entries) {
  // The daemon (and the acquiring thread) has direct access to the shared
  // objects (§4): unmarshal straight into them.
  for (BundleEntry& entry : entries) {
    serial::charge_marshal_cost(system_.options().marshal_model,
                                entry.payload.size());
    std::shared_ptr<Replica> replica = find_replica(entry.name);
    if (replica == nullptr || entry.payload.empty()) continue;
    replica->unmarshal_payload(entry.payload);
  }
}

void SiteReplicaRuntime::serve(const TransferReplicaMsg& directive,
                               util::Buffer data) {
  const std::size_t bundle_bytes = data.size() - 12;  // past lock | version
  net::BulkTransport bulk(system_.endpoint(site_), system_.transfer_mode());
  util::Status sent =
      bulk.send_bulk(directive.dst_site, directive.dst_port, std::move(data),
                     system_.options().data_timeout);
  if (sent.is_ok()) {
    ++transfers_served_;
    if (auto* tracer = system_.mocha().network().tracer()) {
      tracer->record(trace::EventKind::kTransferServed,
                     system_.scheduler().now(), site_, directive.dst_site,
                     directive.lock_id, bundle_bytes);
    }
  } else {
    MOCHA_WARN("daemon") << system_.mocha().site_name(site_)
                         << ": transfer of lock " << directive.lock_id
                         << " to site " << directive.dst_site
                         << " failed: " << sent.to_string();
  }
}

void SiteReplicaRuntime::send(net::NodeId dst, net::Port port,
                              util::Buffer msg) {
  system_.endpoint(site_).send(dst, port, std::move(msg));
}

void SiteReplicaRuntime::daemon_loop() {
  net::MochaNetEndpoint& endpoint = system_.endpoint(site_);
  while (true) {
    net::MochaNetEndpoint::Message msg =
        endpoint.recv(runtime::ports::kDaemon);
    if (daemon_.handle(msg.src, msg.payload)) continue;
    util::WireReader reader(msg.payload);
    switch (reader.u8()) {
      case kWhereIsSync: {
        const net::Port reply_port = reader.u16();
        util::Buffer reply;
        util::WireWriter writer(reply);
        writer.u8(kSyncLocation);
        writer.u32(sync_site_);
        endpoint.send(msg.src, reply_port, std::move(reply));
        break;
      }
      case kSyncMoved: {
        // A surrogate synchronization thread announced itself (§4 recovery);
        // local application threads will find it via sync_site().
        const runtime::SiteId new_site = reader.u32();
        sync_site_ = new_site;
        MOCHA_INFO("daemon") << system_.mocha().site_name(site_)
                             << ": synchronization thread moved to '"
                             << system_.mocha().site_name(new_site) << "'";
        break;
      }
      default:
        break;
    }
  }
}

std::optional<runtime::SiteId> SiteReplicaRuntime::discover_sync_site(
    net::Port reply_port, sim::Duration timeout) {
  net::MochaNetEndpoint& endpoint = system_.endpoint(site_);
  for (runtime::SiteId s = 0; s < system_.mocha().site_count(); ++s) {
    if (s == site_) continue;
    util::Buffer query;
    util::WireWriter writer(query);
    writer.u8(kWhereIsSync);
    writer.u16(reply_port);
    endpoint.send(s, runtime::ports::kDaemon, std::move(query));
  }
  const sim::Time deadline = system_.scheduler().now() + timeout;
  while (system_.scheduler().now() < deadline) {
    auto reply =
        endpoint.recv_for(reply_port, deadline - system_.scheduler().now());
    if (!reply.has_value()) break;
    util::WireReader reader(reply->payload);
    if (reader.u8() != kSyncLocation) continue;
    sync_site_ = reader.u32();
    return sync_site_;
  }
  return std::nullopt;
}

void SiteReplicaRuntime::daemon_data_loop() {
  net::BulkTransport bulk(system_.endpoint(site_), system_.transfer_mode());
  while (true) {
    auto msg = bulk.recv_bulk(kDaemonDataPort, net::BulkTransport::kWaitForever);
    if (!msg.is_ok()) continue;  // failed pull; keep listening
    // Apply the pushed update directly to the shared objects (§4): the
    // daemon has direct access to the replicas.
    const DaemonCore::Applied applied = daemon_.apply(msg.value().payload);
    if (applied.outcome != DaemonCore::Apply::kApplied) continue;
    const LockId lock_id = applied.lock_id;
    const Version version = applied.version;
    ++updates_applied_;
    if (auto* tracer = system_.mocha().network().tracer()) {
      tracer->record(trace::EventKind::kUpdatePushed,
                     system_.scheduler().now(), msg.value().src, site_,
                     lock_id, version);
    }
  }
}

}  // namespace mocha::replica
