// MochaNet: the paper's custom network object library.
//
// "This library implements reliable, sequenced, delivery of messages as well
//  as performing fragmentation and reassembly. It is scalable in the number
//  of hosts that communicate with the library because it performs its own
//  upward multiplexing of packets. It is particularly well suited for sending
//  small messages as it avoids the heavy connection and tear-down overheads
//  associated with other transport protocols such as TCP."        — §5
//
// One endpoint per node owns a single wire port and demultiplexes upward to
// logical ports. Fragmentation/reassembly runs at *user level* and is
// charged the interpreted-bytecode CPU cost from the NetProfile — exactly
// why the hybrid protocol beats it for large replicas (Figs 11-14).
//
// The protocol is net::MochaNetCore (net/mochanet_core.h), the state machine
// live::Endpoint also runs; this class is its simulator adapter. It maps the
// NetProfile to a fixed RTO (mn_rto_us, mn_max_retries), NACKs after
// mn_nack_delay_us (0 = off) and no ack delay; charges the core's work
// reports as mn_msg_cpu_us, mn_frag_cpu_us + mn_per_byte_us per byte and
// mn_ack_cpu_us of virtual CPU time (timer-driven resends are free); posts a
// scheduler event at each new core deadline; and delivers into per-port
// mailboxes.
//
// send() returns once the local protocol work is done; retransmission runs
// in the background. send_sync() also waits for the transport ACK (with a
// timeout), which is how the fault-tolerance layer detects dead peers.
//
// Lifetime: endpoints must outlive the simulation run (use Network::kill_node
// for failure injection; do not destroy live endpoints mid-run).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "net/mochanet_core.h"
#include "net/network.h"
#include "util/status.h"

namespace mocha::net {

class MochaNetEndpoint : private MochaNetSink {
 public:
  // Well-known wire port every endpoint binds on its node.
  static constexpr Port kWirePort = 1;

  struct Message {
    NodeId src = kInvalidNode;
    Port port = 0;
    util::Buffer payload;
  };

  MochaNetEndpoint(Network& net, NodeId node);

  MochaNetEndpoint(const MochaNetEndpoint&) = delete;
  MochaNetEndpoint& operator=(const MochaNetEndpoint&) = delete;

  NodeId node() const { return node_; }
  Network& network() { return net_; }

  // Reliable, sequenced send. Returns after the local fragmentation and
  // transmission work; delivery is guaranteed by background retransmission
  // (up to mn_max_retries) as long as the peer stays alive.
  void send(NodeId dst, Port port, util::Buffer payload);

  // Like send(), but waits until the peer's transport-level ACK arrives.
  // Returns kTimeout when the message is still unacknowledged after `timeout`
  // — the building block for the paper's timeout-based failure detection.
  util::Status send_sync(NodeId dst, Port port, util::Buffer payload,
                         sim::Duration timeout);

  // Blocking receive of the next message addressed to `port`.
  Message recv(Port port);
  std::optional<Message> recv_for(Port port, sim::Duration timeout);

  // --- Statistics ---
  std::uint64_t messages_sent() const { return core_.counters().messages_sent; }
  std::uint64_t messages_delivered() const {
    return core_.counters().messages_delivered;
  }
  std::uint64_t fragments_sent() const {
    return core_.counters().fragments_sent;
  }
  std::uint64_t retransmissions() const {
    return core_.counters().retransmissions;
  }

 private:
  struct SyncWaiter {
    explicit SyncWaiter(sim::Scheduler& sched) : cond(sched) {}
    sim::Condition cond;
    bool acked = false;
    bool failed = false;
  };

  // MochaNetSink: the core's outputs.
  void send_frame(NodeId dst, util::Buffer frame) override;
  void deliver(NodeId src, Port port, util::Buffer payload) override;
  void acked(NodeId dst, std::uint64_t seq, std::int64_t latency_us) override;
  void failed(NodeId dst, std::uint64_t seq) override;
  void work(Work kind, std::size_t bytes) override;

  std::uint64_t send_internal(NodeId dst, Port port,
                              const util::Buffer& payload);
  void receiver_loop();
  // Posts one scheduler event at the core's next deadline unless one is
  // already posted for that time.
  void arm_timer();
  sim::Mailbox<Message>& port_box(Port port);

  Network& net_;
  sim::Scheduler& sched_;
  NodeId node_;
  sim::Mailbox<Datagram>* wire_box_ = nullptr;
  MochaNetCore core_;
  std::set<sim::Time> timers_;  // times with an on_timer event posted
  std::map<std::pair<NodeId, std::uint64_t>, SyncWaiter> waiters_;
  std::map<Port, std::unique_ptr<sim::Mailbox<Message>>> delivered_;
};

}  // namespace mocha::net
