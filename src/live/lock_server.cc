#include "live/lock_server.h"

#include <stdexcept>

#include "util/log.h"

namespace mocha::live {

using replica::LockHold;

LockServer::LockServer(Endpoint& endpoint, LockServerOptions opts)
    : endpoint_(endpoint), opts_(opts), dir_(*this, {opts.lease_grace_us}) {
  const std::string prefix = "shard." + std::to_string(opts_.shard_id) + ".";
  MetricsRegistry& registry = MetricsRegistry::global();
  tm_acquires_ = registry.counter(prefix + "acquires");
  tm_grants_ = registry.counter(prefix + "grants");
  tm_releases_ = registry.counter(prefix + "releases");
  tm_lease_breaks_ = registry.counter(prefix + "lease_breaks");
  tm_stats_requests_ = registry.counter(prefix + "stats_requests");
  tm_queue_depth_ = registry.gauge(prefix + "queue_depth");
  tm_active_leases_ = registry.gauge(prefix + "active_leases");
  tm_wait_us_ = registry.histogram(prefix + "wait_us");
  tm_hold_us_ = registry.histogram(prefix + "hold_us");
  util::MutexLock guard(mu_);
  stats_.shard_id = opts_.shard_id;
}

LockServer::~LockServer() { stop(); }

void LockServer::set_shard_map(ShardMap map) { shard_map_ = std::move(map); }

void LockServer::start() {
  if (running_.exchange(true)) return;
  alive_ = std::make_shared<bool>(true);
  if (shard_map_.empty()) {
    // Single-shard default: advertise this endpoint as the whole directory.
    // ipv4 = 0 tells clients to keep their bootstrap route to this node.
    ShardMap::Entry self;
    self.shard = opts_.shard_id;
    self.node = endpoint_.node();
    self.udp_port = endpoint_.udp_port();
    shard_map_ = ShardMap({self});
  }
  endpoint_.set_port_handler(replica::kSyncPort, [this](Endpoint::Message msg) {
    handle(std::move(msg));
  });
}

void LockServer::stop() {
  if (!running_.exchange(false)) return;
  // Off the loop before returning: no handler call and no lease timer may
  // reach this server once stop() is done.
  endpoint_.run_on_loop([this] {
    endpoint_.set_port_handler(replica::kSyncPort, nullptr);
    dir_.for_each_active([this](const LockHold& hold) {
      endpoint_.reactor().cancel(hold.lease);
    });
    for (const auto& [id, timer] : poll_timers_) {
      endpoint_.reactor().cancel(timer);
    }
    poll_timers_.clear();
    alive_.reset();  // outcomes of directives and polls still in flight
  });
}

LockServer::Stats LockServer::stats() const {
  const Reactor::Stats reactor = endpoint_.reactor().stats();
  util::MutexLock lock(mu_);
  Stats stats = stats_;
  stats.reactor_iterations = reactor.iterations;
  stats.reactor_timers_fired = reactor.timers_fired;
  stats.max_epoll_batch = reactor.max_epoll_batch;
  return stats;
}

bool LockServer::is_blacklisted(std::uint32_t site) const {
  util::MutexLock lock(mu_);
  return blacklist_.contains(site);
}

void LockServer::publish_stats() {
  tm_queue_depth_->set(static_cast<std::int64_t>(dir_.queued_waiters()));
  tm_active_leases_->set(static_cast<std::int64_t>(dir_.active_holds()));
  util::MutexLock guard(mu_);
  stats_.grants = dir_.grants();
  stats_.releases = dir_.releases();
  stats_.locks_broken = dir_.locks_broken();
  stats_.registrations = dir_.registrations();
  stats_.queued_waiters = dir_.queued_waiters();
  stats_.active_leases = dir_.active_holds();
}

void LockServer::handle(Endpoint::Message msg) {
  if (dir_.handle(Clock::monotonic().now_us(), msg.payload)) {
    publish_stats();
    return;
  }
  try {
    util::WireReader reader(msg.payload);
    switch (reader.u8()) {
      case replica::kShardMapRequest:
        handle_shard_map_request(msg.src, reader);
        break;
      case replica::kStatsRequest:
        handle_stats_request(msg.src, reader);
        break;
      default:
        // Sim-only traffic (replica registry, cached directory, …) is not
        // served by the live lock server yet.
        break;
    }
  } catch (const util::CodecError& err) {
    MOCHA_DEBUG("live") << "lock server: dropping malformed message from node "
                        << msg.src << ": " << err.what();
  }
}

void LockServer::handle_shard_map_request(net::NodeId src,
                                          util::WireReader& reader) {
  const auto request = replica::ShardMapRequestMsg::decode(reader);
  replica::ShardMapReplyMsg answer;
  answer.shards = shard_map_.entries();
  util::Buffer reply;
  answer.encode(reply);
  endpoint_.send(src, request.reply_port, std::move(reply));
  util::MutexLock guard(mu_);
  ++stats_.shard_map_requests;
}

void LockServer::handle_stats_request(net::NodeId src,
                                      util::WireReader& reader) {
  const auto request = replica::StatsRequestMsg::decode(reader);
  tm_stats_requests_->add();
  replica::StatsReplyMsg answer;
  answer.probe_nonce = request.probe_nonce;
  answer.shard_id = opts_.shard_id;
  fill_stats_reply(MetricsRegistry::global().snapshot(), answer);
  util::Buffer reply;
  answer.encode(reply);
  endpoint_.send(src, request.reply_port, std::move(reply));
}

// --- replica::LockDirectorySink ---

void LockServer::send_grant(const LockHold& hold,
                            const replica::GrantMsg& grant) {
  util::Buffer msg;
  grant.encode(msg);
  endpoint_.send(hold.site, hold.grant_port, std::move(msg));
}

std::uint64_t LockServer::arm_lease(const LockHold& hold) {
  // §4 failure detection as a continuation: one reactor timer per active
  // hold, cancelled at release, replaces a periodic lease scan. The core
  // re-checks (site, nonce) when it fires.
  return endpoint_.reactor().call_at(
      hold.lease_deadline_us,
      [this, lock_id = hold.lock_id, site = hold.site, nonce = hold.nonce] {
        dir_.lease_expired(Clock::monotonic().now_us(), lock_id, site, nonce);
        publish_stats();
      });
}

void LockServer::cancel_lease(const LockHold& hold) {
  endpoint_.reactor().cancel(hold.lease);
}

void LockServer::confirm_owner(const LockHold& hold) {
  dir_.owner_confirmed(Clock::monotonic().now_us(), hold.lock_id, hold.site,
                       hold.nonce, /*alive=*/false);
}

void LockServer::transfer_needed(const replica::TransferDirective& directive) {
  replica::TransferReplicaMsg msg = directive.msg;
  if (const auto addr = endpoint_.peer_addr(msg.dst_site)) {
    msg.dst_ipv4 = addr->ipv4;
    msg.dst_udp_port = addr->port;
  }
  util::Buffer wire;
  msg.encode(wire);
  const bool sent = send_to_daemon(
      directive.daemon, std::move(wire), [this, id = directive.id](bool acked) {
        const std::int64_t now = Clock::monotonic().now_us();
        acked ? dir_.transfer_delivered(now, id) : dir_.transfer_failed(now, id);
      });
  // A daemon this endpoint never heard from cannot be reached: presumed dead.
  if (!sent) dir_.transfer_failed(Clock::monotonic().now_us(), directive.id);
}

void LockServer::send_poll(std::uint64_t transfer_id, net::NodeId daemon,
                           const replica::PollVersionMsg& poll) {
  util::Buffer wire;
  poll.encode(wire);
  // An unknown daemon is left to the window's deadline.
  (void)send_to_daemon(daemon, std::move(wire), [=, this](bool acked) {
    if (!acked) {
      dir_.poll_failed(Clock::monotonic().now_us(), transfer_id, daemon);
    }
  });
}

void LockServer::poll_window(std::uint64_t transfer_id) {
  // By the endpoint's retry schedule every poll has been acked or has
  // failed; a daemon that acks but never reports is waited for no longer.
  poll_timers_[transfer_id] = endpoint_.reactor().call_after(
      endpoint_.retry_schedule_us(), [this, transfer_id] {
        poll_timers_.erase(transfer_id);
        dir_.poll_window_closed(Clock::monotonic().now_us(), transfer_id);
      });
}

void LockServer::transfer_step(replica::TransferStep step,
                               const replica::TransferDirective& directive,
                               replica::Version /*lock_version*/) {
  static constexpr const char* kWhat[] = {
      "did not ack; polling survivors", "did not ack",
      "serves an older version (weakened)",
      "was the last candidate; transfer lost"};
  MOCHA_WARN("live") << "lock " << directive.msg.lock_id << " transfer to "
                     << directive.msg.dst_site << ": daemon "
                     << directive.daemon << " "
                     << kWhat[static_cast<int>(step)];
  if (step == replica::TransferStep::kOwnerFailed ||
      step == replica::TransferStep::kRedirectFailed) {
    FlightRecorder::record(trace::EventKind::kFailureDetected,
                           endpoint_.node(), directive.daemon,
                           directive.msg.lock_id, 0);
  }
}

bool LockServer::send_to_daemon(net::NodeId daemon, util::Buffer msg,
                                std::function<void(bool acked)> done) {
  try {
    endpoint_.send_tracked(
        daemon, replica::kDaemonPort, std::move(msg),
        [this, alive = std::weak_ptr<bool>(alive_),
         done = std::move(done)](bool acked) {
          if (alive.expired()) return;  // stopped meanwhile
          done(acked);
          publish_stats();
        });
    return true;
  } catch (const std::logic_error&) {
    return false;
  }
}

void LockServer::trace(const replica::LockEvent& event) {
  switch (event.kind) {
    case trace::EventKind::kLockRequested:
      tm_acquires_->add();
      break;
    case trace::EventKind::kLockGranted:
      tm_grants_->add();
      tm_wait_us_->record(event.span_us);
      break;
    case trace::EventKind::kLockReleased:
      tm_releases_->add();
      if (event.span_us >= 0) tm_hold_us_->record(event.span_us);
      break;
    case trace::EventKind::kLockBroken: {
      util::MutexLock guard(mu_);
      blacklist_.insert(event.site);
      tm_lease_breaks_->add();
      MOCHA_INFO("live") << "lock " << event.lock_id << " broken: site "
                         << event.site
                         << " exceeded its lease; site blacklisted";
      break;
    }
    default:
      break;
  }
  FlightRecorder::record(event.kind, endpoint_.node(), event.site,
                         event.lock_id, event.version, event.nonce);
}

}  // namespace mocha::live
