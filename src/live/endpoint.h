// live::Endpoint — the MochaNet endpoint on real sockets: the UDP adapter
// around net::MochaNetCore (net/mochanet_core.h), the same protocol state
// machine the simulated net::MochaNetEndpoint runs (docs/PROTOCOL.md §2).
//
// One UDP datagram is `u32 src_node | MochaNet frame (net/frame.h)`. The
// source-node envelope replaces the sim fabric's out-of-band src: receivers
// learn (and refresh) the NodeId -> UDP address mapping from it, which is
// how a server accepts clients it never configured. Outbound peers must be
// known, via add_peer() or from earlier inbound traffic.
//
// The adapter runs the core under mu_ on the wall clock with one reactor
// timer at its next deadline, batches the core's frames into sendmmsg(2)
// calls (the envelope as its own iovec) and drains the socket with
// recvmmsg(2), and keeps the inbound netem, port handlers and recv()
// queues, send_sync() waiters, flush() and the "ep.<node>.*" telemetry.
//
// Threading: the endpoint's only thread is its live::Reactor loop, which
// owns the socket, the netem emulation and the transport timer, and runs
// the services' port handlers. send()/send_sync()/recv()/recv_for()/flush()
// are safe from any thread. recv(port) must not be called for one port from
// two threads at once (messages would be split arbitrarily between them) —
// same single-consumer rule the sim mailboxes have.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>

#include "live/clock.h"
#include "live/reactor.h"
#include "live/telemetry.h"
#include "net/mochanet_core.h"
#include "net/types.h"
#include "util/analysis_annotations.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mocha::live {

struct EndpointOptions {
  // Max UDP payload bytes per datagram (envelope + frame header + chunk).
  std::size_t mtu = 1400;

  // --- Transport (net::MochaNetOptions; docs/PROTOCOL.md §2) ---
  std::int64_t rto_us = 20'000;  // initial RTO; fixed when not adaptive
  int max_retries = 10;          // resends before a message fails
  bool adaptive_rto = true;      // per-peer Jacobson/Karels RTO
  std::int64_t nack_delay_us = 2'000;  // quiet time before a NACK; 0 = off
  std::int64_t ack_delay_us = 500;     // ack hold for a reply; 0 = off

  // Kernel socket buffer request (SO_RCVBUF + SO_SNDBUF). Replica bundles
  // arrive as one fragment burst — 256 KiB is ~190 back-to-back datagrams,
  // which overflows Linux's default ~208 KiB rmem and shows up as loopback
  // "loss" the NACK path then has to repair. Best effort: the kernel clamps
  // the request to net.core.{r,w}mem_max. 0 keeps the system default.
  int socket_buffer_bytes = 4 << 20;

  // --- Test/bench-only inbound network emulation (netem) ---
  // Applied to every received datagram before protocol processing, in the
  // endpoint's own recv path (no root / tc needed): random loss, fixed
  // one-way delay, and link serialization at recv_bw_kbps (datagrams
  // release in order, each occupying the emulated link for its
  // transmission time — so retransmit storms congest like a real WAN pipe).
  double recv_loss_pct = 0.0;     // 0..100
  std::int64_t recv_delay_us = 0;  // one-way propagation delay
  double recv_bw_kbps = 0.0;       // 0 = unlimited
  std::uint64_t netem_seed = 0x6d6f636861u;  // loss-roll PRNG seed
  // Test hook: return true to drop this datagram (raw bytes, envelope
  // included). Runs before the probabilistic netem, on the loop thread.
  std::function<bool(std::span<const std::uint8_t>)> recv_drop_hook;
};

// MOCHA_REACTOR_SAFE (class-level): loop callbacks capture `this` because
// ~Endpoint stops and joins the loop before any member is destroyed.
class MOCHA_REACTOR_SAFE Endpoint : private net::MochaNetSink {
 public:
  struct Message {
    net::NodeId src = net::kInvalidNode;
    net::Port port = 0;
    util::Buffer payload;
  };
  using PortHandler = std::function<void(Message)>;
  // The outcome of a tracked send: the peer's transport ack (true) or
  // retries exhausted (false).
  using SendDone = std::function<void(bool acked)>;

  // Binds a UDP socket on `udp_port` (0 picks a free port; see udp_port())
  // and starts the loop thread. Throws std::system_error on socket failure.
  Endpoint(net::NodeId node, std::uint16_t udp_port,
           EndpointOptions opts = {}, Clock* clock = nullptr);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  net::NodeId node() const { return node_; }
  std::uint16_t udp_port() const { return udp_port_; }
  const EndpointOptions& options() const { return opts_; }

  // Registers (or updates) the UDP address of `peer`. `host` is an IPv4
  // dotted quad ("127.0.0.1") or a hostname.
  void add_peer(net::NodeId peer, const std::string& host,
                std::uint16_t port) EXCLUDES(mu_);
  bool knows_peer(net::NodeId peer) const EXCLUDES(mu_);

  // UDP address of `peer` as currently known — configured via add_peer() or
  // learned from the datagram envelope. ipv4 is in network byte order, port
  // in host order. nullopt when the peer was never registered or heard from.
  // The lock server puts a requester's address into each transfer directive
  // from this table.
  struct PeerAddr {
    std::uint32_t ipv4 = 0;
    std::uint16_t port = 0;
  };
  std::optional<PeerAddr> peer_addr(net::NodeId peer) const EXCLUDES(mu_);
  void add_peer(net::NodeId peer, PeerAddr addr) EXCLUDES(mu_);

  // Reliable, sequenced send. Returns after fragmentation + first
  // transmission; delivery is guaranteed by background retransmission while
  // the peer lives. Throws std::logic_error when `dst` was never registered
  // or learned. Never waits (send_sync with timeout 0 returns before the
  // ack wait), so reactor handlers may call it.
  void send(net::NodeId dst, net::Port port, util::Buffer payload)
      MOCHA_REACTOR_SAFE EXCLUDES(mu_);

  // Like send(), but waits for the peer's transport ACK; kTimeout when the
  // message is still unacknowledged after `timeout_us` (the live failure-
  // detection primitive, mirroring the sim endpoint).
  util::Status send_sync(net::NodeId dst, net::Port port,
                         util::Buffer payload, std::int64_t timeout_us)
      MOCHA_BLOCKING EXCLUDES(mu_);

  // Like send(); `done` then runs on the loop thread, with the endpoint's
  // lock released, once the peer acked the message or its retries ran out —
  // the nonblocking form of send_sync's failure detection. It never runs if
  // the endpoint is destroyed first.
  void send_tracked(net::NodeId dst, net::Port port, util::Buffer payload,
                    SendDone done) MOCHA_REACTOR_SAFE EXCLUDES(mu_);

  // Delivers a message that reached this node by another channel (the TCP
  // bulk leg) to `port`, as if it had arrived here.
  void deliver_local(net::NodeId src, net::Port port, util::Buffer payload)
      MOCHA_REACTOR_SAFE EXCLUDES(mu_);

  // Blocks until every reliably-sent message has been acked or has exhausted
  // its retries — the pre-exit linger: a process that fire-and-forgets its
  // last message (e.g. a lock RELEASE) must not destroy the endpoint while
  // the retransmit timer still owns delivery. True when the send window
  // drained within `timeout_us`.
  bool flush(std::int64_t timeout_us) MOCHA_BLOCKING EXCLUDES(mu_);

  // Routes `port`'s deliveries (and its queued backlog) to `handler`, run
  // on the loop thread with the endpoint's lock released: it may send(),
  // never wait. nullptr unregisters; once this returns the old handler is
  // never called again. A handled port is not read with recv().
  void set_port_handler(net::Port port, PortHandler handler)
      MOCHA_REACTOR_SAFE EXCLUDES(mu_);

  // Runs `fn` on the loop thread and returns after it ran (inline when
  // called there, so it never waits on the loop).
  void run_on_loop(std::function<void()> fn) MOCHA_REACTOR_SAFE;
  // The event loop; services arm their timers on it from the loop thread.
  Reactor& reactor() { return reactor_; }

  // Blocking receive of the next message addressed to `port`.
  Message recv(net::Port port) MOCHA_BLOCKING EXCLUDES(mu_);
  // Timed receive; 0 polls without blocking (the analyzer special-cases the
  // literal 0).
  std::optional<Message> recv_for(net::Port port, std::int64_t timeout_us)
      MOCHA_BLOCKING EXCLUDES(mu_);

  // Worst-case duration of this endpoint's own full backed-off retransmit
  // schedule (initial send + max_retries resends) — the horizon after which
  // send_sync is guaranteed to have either an ack or a failure.
  std::int64_t retry_schedule_us() const { return retry_schedule_us_; }

  // --- Introspection (tests / benches) ---
  // Current RTO / smoothed RTT for `peer`; 0 when the peer is unknown
  // (srtt additionally 0 before the first sample).
  std::int64_t peer_rto_us(net::NodeId peer) const EXCLUDES(mu_);
  std::int64_t peer_srtt_us(net::NodeId peer) const EXCLUDES(mu_);

  // --- Statistics ---
  std::uint64_t messages_sent() const { return counters().messages_sent; }
  std::uint64_t messages_delivered() const {
    return counters().messages_delivered;
  }
  std::uint64_t fragments_sent() const { return counters().fragments_sent; }
  std::uint64_t retransmissions() const { return counters().retransmissions; }
  std::uint64_t nacks_sent() const { return counters().nacks_sent; }
  std::uint64_t nacks_received() const { return counters().nacks_received; }
  std::uint64_t acks_piggybacked() const { return counters().acks_piggybacked; }
  std::uint64_t netem_dropped() const { return netem_dropped_; }
  // recvmmsg(2) rx batching (the receive-side twin of the sendmmsg tx
  // batch): recvmmsg calls that returned datagrams, and datagrams they moved.
  std::uint64_t rx_batches() const { return rx_batches_; }
  std::uint64_t rx_batched_datagrams() const { return rx_batched_datagrams_; }

 private:
  // UDP address of one peer plus its telemetry handles
  // ("ep.<node>.peer.<peer>.*"), resolved once at slot creation so hot-path
  // increments are single relaxed atomics.
  struct PeerState {
    sockaddr_in addr{};
    Counter* tm_retransmits = nullptr;
    Counter* tm_nacks_tx = nullptr;
    Counter* tm_nacks_rx = nullptr;
    Gauge* tm_rto_us = nullptr;
  };

  // Members of the nested helper structs below are all touched with mu_
  // held; the capability expression cannot name the owning Endpoint's mutex
  // from a nested scope, so the GUARDED_BY annotations live on the
  // containers that hold them instead.
  struct PortQueue {
    std::deque<Message> messages;
    util::CondVar cv;
    bool handled = false;  // deliveries go to the port handler instead
  };

  // Inbound datagram held by the netem emulation until `release_us`.
  struct DelayedDatagram {
    std::int64_t release_us = 0;
    util::Buffer data;
    sockaddr_in from{};
  };

  // Receivers a core event made runnable, recorded under mu_ by the sinks
  // and notified once it is released, so a woken receiver does not block
  // on mu_ again at once: one notify_one per queued message (a port's
  // single consumer), one notify_all for any ack or failure. Port queues
  // are never erased, so the pointers outlive the endpoint's events.
  struct Wakeups {
    std::vector<util::CondVar*> ports;
    util::CondVar* acks = nullptr;
    void notify() const;
  };

  // --- net::MochaNetSink: the core's outputs, called with mu_ held ---
  void send_frame(net::NodeId dst, util::Buffer frame) override
      REQUIRES(mu_);
  void deliver(net::NodeId src, net::Port port, util::Buffer payload) override
      REQUIRES(mu_);
  void acked(net::NodeId dst, std::uint64_t seq,
             std::int64_t latency_us) override REQUIRES(mu_);
  void failed(net::NodeId dst, std::uint64_t seq) override REQUIRES(mu_);
  void on_event(const Event& event) override REQUIRES(mu_);
  // Moves a tracked send's callback to tracked_done_ with its outcome.
  void finish_tracked(net::NodeId dst, std::uint64_t seq, bool acked)
      REQUIRES(mu_);
  // Hands the recorded wakeups over for notify() after mu_ is released.
  Wakeups take_wakeups() REQUIRES(mu_);

  // --- Loop thread (analyzer-enforced) ---
  void on_readable() MOCHA_REACTOR_ONLY EXCLUDES(mu_);  // socket handler
  void on_timer() MOCHA_REACTOR_ONLY EXCLUDES(mu_);     // transport timer
  // Ends every loop event: the tx batch, port handler dispatch, the timer.
  void finish_event() MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  // Arms the timer at the core's next deadline or the next netem release.
  void arm_timer() MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  // Netem front door: loss/delay/bandwidth emulation, then process.
  void handle_datagram(const std::uint8_t* data, std::size_t len,
                       const sockaddr_in& from) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  // Envelope + address learning, then the frame into the core.
  void process_datagram(const std::uint8_t* data, std::size_t len,
                        const sockaddr_in& from) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  void release_netem(std::int64_t now_us) MOCHA_REACTOR_ONLY EXCLUDES(mu_);

  // The shared send path: registers a send_sync waiter (`wait`) and/or a
  // tracked-send callback before the first transmission; returns the seq.
  std::uint64_t transmit(net::NodeId dst, net::Port port, util::Buffer payload,
                         bool wait, SendDone done) EXCLUDES(mu_);
  net::MochaNetCore::Counters counters() const EXCLUDES(mu_);
  // Looks up or creates the peer slot.
  PeerState& peer_state(net::NodeId peer) REQUIRES(mu_);
  // Sends everything queued, in sendmmsg batches of up to 64 datagrams.
  void flush_tx() EXCLUDES(mu_);
  PortQueue& port_queue(net::Port port) REQUIRES(mu_);

  static constexpr std::int64_t kNoDeadline = net::MochaNetCore::kNoDeadline;

  net::NodeId node_;
  EndpointOptions opts_;
  Clock* clock_;
  std::int64_t retry_schedule_us_;
  // The u32 source-node envelope, encoded once; sent as its own iovec.
  util::Buffer envelope_;
  int sock_ = -1;
  std::uint16_t udp_port_ = 0;
  std::atomic<bool> running_{false};

  // Loop-thread state: port handlers, transport timer, receive buffers.
  Reactor reactor_;
  std::map<net::Port, std::shared_ptr<PortHandler>> port_handlers_;
  Reactor::TimerId timer_ = Reactor::kInvalidTimer;
  std::vector<std::uint8_t> rx_buf_;
  std::thread loop_thread_;

  mutable util::Mutex mu_;
  util::CondVar ack_cv_;  // send_sync and flush waiters
  net::MochaNetCore core_ GUARDED_BY(mu_);
  // timer_'s deadline, written by arm_timer; under mu_ so that a send on
  // another thread can tell whether the armed timer covers it.
  std::int64_t timer_deadline_us_ GUARDED_BY(mu_) = kNoDeadline;
  std::vector<Message> dispatch_ GUARDED_BY(mu_);  // for port handlers
  std::map<net::NodeId, PeerState> peers_ GUARDED_BY(mu_);
  // send_sync() callers by (dst, seq): nullopt while the message is
  // outstanding, then whether it was acked.
  std::map<std::pair<net::NodeId, std::uint64_t>, std::optional<bool>>
      waiters_ GUARDED_BY(mu_);
  // send_tracked() callbacks by (dst, seq), and those whose outcome is in,
  // run at the end of the loop event.
  std::map<std::pair<net::NodeId, std::uint64_t>, SendDone> tracked_
      GUARDED_BY(mu_);
  std::vector<std::pair<SendDone, bool>> tracked_done_ GUARDED_BY(mu_);
  Wakeups wakeups_ GUARDED_BY(mu_);
  std::map<net::Port, std::unique_ptr<PortQueue>> delivered_
      GUARDED_BY(mu_);

  // Outbound frames accumulated under mu_, flushed in batches.
  struct TxItem {
    sockaddr_in addr{};
    util::Buffer frame;
  };
  std::vector<TxItem> tx_queue_ GUARDED_BY(mu_);

  // Netem state — loop thread only, no lock.
  std::deque<DelayedDatagram> netem_queue_;
  std::int64_t netem_link_free_us_ = 0;  // emulated link busy until here
  util::SplitMix64 netem_rng_;

  std::atomic<std::uint64_t> netem_dropped_{0};
  std::atomic<std::uint64_t> rx_batches_{0};
  std::atomic<std::uint64_t> rx_batched_datagrams_{0};

  // Send→ack completion latency ("ep.<node>.send_ack_us"): first
  // transmission to transport ack, retransmit tail included.
  Histogram* tm_send_ack_us_ = nullptr;
};

// Bytes of the per-datagram source-node envelope preceding the frame.
constexpr std::size_t kLiveEnvelopeBytes = 4;

}  // namespace mocha::live
