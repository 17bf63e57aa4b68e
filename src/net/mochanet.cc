#include "net/mochanet.h"

#include <algorithm>

namespace mocha::net {

namespace {

MochaNetOptions core_options(const NetProfile& prof) {
  MochaNetOptions opts;
  opts.max_frame_bytes = prof.mtu;
  opts.rto_us = static_cast<std::int64_t>(prof.mn_rto_us);
  opts.max_retries = prof.mn_max_retries;
  opts.adaptive_rto = false;
  opts.nack_delay_us = static_cast<std::int64_t>(prof.mn_nack_delay_us);
  opts.ack_delay_us = 0;
  return opts;
}

}  // namespace

MochaNetEndpoint::MochaNetEndpoint(Network& net, NodeId node)
    : net_(net),
      sched_(net.scheduler()),
      node_(node),
      core_(core_options(net.profile()), *this) {
  wire_box_ = &net_.bind(node_, kWirePort);
  sched_.spawn("mochanet/" + net_.node_name(node_), [this] { receiver_loop(); });
}

sim::Mailbox<MochaNetEndpoint::Message>& MochaNetEndpoint::port_box(Port port) {
  auto it = delivered_.find(port);
  if (it == delivered_.end()) {
    it = delivered_
             .emplace(port, std::make_unique<sim::Mailbox<Message>>(sched_))
             .first;
  }
  return *it->second;
}

void MochaNetEndpoint::send(NodeId dst, Port port, util::Buffer payload) {
  send_internal(dst, port, payload);
}

util::Status MochaNetEndpoint::send_sync(NodeId dst, Port port,
                                         util::Buffer payload,
                                         sim::Duration timeout) {
  const std::uint64_t seq = send_internal(dst, port, payload);
  // No ack can have arrived yet: that takes the receiver loop, which has
  // not run since the last fragment left.
  auto it = waiters_.try_emplace({dst, seq}, sched_).first;
  SyncWaiter& waiter = it->second;
  const sim::Time deadline = sched_.now() + timeout;
  while (!waiter.acked && !waiter.failed) {
    const sim::Time now = sched_.now();
    if (now >= deadline) break;
    waiter.cond.wait_for(deadline - now);
  }
  const bool acked = waiter.acked;
  waiters_.erase(it);
  if (acked) return util::Status::ok();
  return util::Status(util::StatusCode::kTimeout,
                      "no transport ack from '" + net_.node_name(dst) + "'");
}

std::uint64_t MochaNetEndpoint::send_internal(NodeId dst, Port port,
                                              const util::Buffer& payload) {
  const std::uint64_t seq =
      core_.send(static_cast<std::int64_t>(sched_.now()), dst, port, payload);
  core_.sent(static_cast<std::int64_t>(sched_.now()), dst, seq);
  arm_timer();
  return seq;
}

void MochaNetEndpoint::receiver_loop() {
  while (true) {
    const Datagram dgram = wire_box_->recv();
    core_.on_frame(static_cast<std::int64_t>(sched_.now()), dgram.src,
                   dgram.payload);
    arm_timer();
  }
}

void MochaNetEndpoint::arm_timer() {
  const std::int64_t deadline = core_.next_deadline_us();
  if (deadline == MochaNetCore::kNoDeadline) return;
  const sim::Time when =
      std::max(static_cast<sim::Time>(deadline), sched_.now());
  if (!timers_.insert(when).second) return;
  sched_.post_at(when, [this, when] {
    timers_.erase(when);
    core_.on_timer(static_cast<std::int64_t>(sched_.now()));
    arm_timer();
  });
}

void MochaNetEndpoint::send_frame(NodeId dst, util::Buffer frame) {
  Datagram dgram;
  dgram.src = node_;
  dgram.dst = dst;
  dgram.src_port = kWirePort;
  dgram.dst_port = kWirePort;
  dgram.payload = std::move(frame);
  net_.send(std::move(dgram));
}

void MochaNetEndpoint::deliver(NodeId src, Port port, util::Buffer payload) {
  port_box(port).send(Message{src, port, std::move(payload)});
}

void MochaNetEndpoint::acked(NodeId dst, std::uint64_t seq,
                             std::int64_t /*latency_us*/) {
  auto it = waiters_.find({dst, seq});
  if (it == waiters_.end()) return;
  it->second.acked = true;
  it->second.cond.notify_all();
}

void MochaNetEndpoint::failed(NodeId dst, std::uint64_t seq) {
  auto it = waiters_.find({dst, seq});
  if (it == waiters_.end()) return;
  it->second.failed = true;
  it->second.cond.notify_all();
}

void MochaNetEndpoint::work(Work kind, std::size_t bytes) {
  // User-level (interpreted) protocol work, paid inline by the caller.
  const NetProfile& prof = net_.profile();
  switch (kind) {
    case Work::kMessage:
      sched_.compute(prof.mn_msg_cpu_us);
      break;
    case Work::kFragment:
      sched_.compute(prof.mn_frag_cpu_us +
                     static_cast<sim::Duration>(prof.mn_per_byte_us *
                                                static_cast<double>(bytes)));
      break;
    case Work::kAck:
      sched_.compute(prof.mn_ack_cpu_us);
      break;
  }
}

MochaNetEndpoint::Message MochaNetEndpoint::recv(Port port) {
  return port_box(port).recv();
}

std::optional<MochaNetEndpoint::Message> MochaNetEndpoint::recv_for(
    Port port, sim::Duration timeout) {
  return port_box(port).recv_for(timeout);
}

}  // namespace mocha::net
