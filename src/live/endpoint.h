// live::Endpoint — the MochaNet endpoint on real sockets.
//
// The wall-clock twin of net::MochaNetEndpoint: reliable, sequenced,
// fragmenting message delivery with upward multiplexing onto logical ports,
// implemented on one nonblocking UDP socket and a live::Reactor event loop
// instead of the simulated fabric. Both endpoints speak the frame codec in
// net/frame.h, so a fragment emitted by one decodes with the other.
//
// Wire format of one UDP datagram:
//
//   u32 src_node | MochaNet frame (net/frame.h)
//
// The 4-byte source-node envelope replaces the simulated Datagram's src
// field: the sim fabric hands the receiver the sender's NodeId out of band,
// a real socket only hands it the sender's address. Receivers learn (and
// refresh) the NodeId -> UDP address mapping from this envelope, which is
// how a server accepts clients it never configured. Outbound peers must be
// known — either via add_peer() or learned from earlier inbound traffic.
//
// Fast path (see docs/PROTOCOL.md §8):
//   - Adaptive per-peer RTO: Jacobson/Karels SRTT/RTTVAR estimation from
//     ack round-trips (RttEstimator in live/clock.h), Karn's rule on
//     samples, exponential backoff on retransmit. LAN peers converge to
//     ~min_rto_us; WAN peers stop retransmitting hot.
//   - Receiver-side selective NACKs: a partially reassembled message whose
//     fragment stream has gone quiet for nack_delay_us triggers a NACK
//     listing the missing fragment indices, so one lost fragment costs one
//     fragment resend instead of a full-message RTO resend. Inbound NACKs
//     are honored as before.
//   - Ack piggybacking: transport acks are delayed up to ack_delay_us and
//     coalesced onto the next outgoing DATA frame for that peer (DATA+ACK
//     frames) when they fit in the MTU; leftover acks flush standalone.
//   - Send batching: every datagram produced while holding the endpoint
//     lock (fragments, acks, NACKs, retransmits) is queued and flushed in
//     one sendmmsg(2) batch per loop event / send call.
//
// Threading: the endpoint's only thread is its live::Reactor loop, which
// owns the socket, the netem emulation and every transport deadline (one
// reactor timer armed at the earliest) and runs the services' port handlers.
// send()/send_sync()/recv()/recv_for()/flush() are safe from any thread.
// recv(port) must not be called for one port from two threads at once
// (messages would be split arbitrarily between them) — same single-
// consumer rule the sim mailboxes have.
//
// Gap skip: a sender that exhausts its retries leaves a permanent hole in
// its sequence stream; once newer messages are complete the receiver skips
// the hole after the sender's full backed-off retry schedule of stagnation.
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
#include "net/frame.h"
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

  // --- Retransmission ---
  // Initial RTO; also the fixed RTO when adaptive_rto is off.
  std::int64_t rto_us = 20'000;
  int max_retries = 10;  // resends before a message fails
  // Adaptive per-peer RTO (Jacobson/Karels; see RttEstimator in clock.h).
  bool adaptive_rto = true;
  std::int64_t min_rto_us = 1'000;
  std::int64_t max_rto_us = 1'000'000;
  int rto_backoff_cap = 6;  // max exponential-backoff doublings

  // --- Selective NACKs (receiver side) ---
  // After a partial message's fragment stream has been quiet this long, ask
  // the sender for just the missing fragments. 0 or selective_nack=false
  // falls back to pure sender-RTO recovery.
  bool selective_nack = true;
  std::int64_t nack_delay_us = 2'000;

  // --- Ack piggybacking ---
  // Transport acks are held up to this long waiting for an outgoing DATA
  // frame to ride on; 0 sends every ack standalone immediately. The hold
  // only applies while the measured peer RTT exceeds 2x this delay (or is
  // still unknown): on fast paths delaying acks eats the sender's RTO
  // margin for no batching worth having, so they go out immediately.
  std::int64_t ack_delay_us = 500;
  std::size_t max_piggyback_acks = 8;  // per DATA+ACK frame (wire max 255)

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
class MOCHA_REACTOR_SAFE Endpoint {
 public:
  struct Message {
    net::NodeId src = net::kInvalidNode;
    net::Port port = 0;
    util::Buffer payload;
  };
  using PortHandler = std::function<void(Message)>;

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
  // The lock server answers kResolveNode queries from this table.
  struct PeerAddr {
    std::uint32_t ipv4 = 0;
    std::uint16_t port = 0;
  };
  std::optional<PeerAddr> peer_addr(net::NodeId peer) const EXCLUDES(mu_);

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
  std::int64_t retry_schedule_us() const;

  // --- Introspection (tests / benches) ---
  // Current RTO / smoothed RTT for `peer`; 0 when the peer is unknown
  // (srtt additionally 0 before the first sample).
  std::int64_t peer_rto_us(net::NodeId peer) const EXCLUDES(mu_);
  std::int64_t peer_srtt_us(net::NodeId peer) const EXCLUDES(mu_);

  // --- Statistics ---
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }
  std::uint64_t fragments_sent() const { return fragments_sent_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t nacks_sent() const { return nacks_sent_; }
  std::uint64_t nacks_received() const { return nacks_received_; }
  std::uint64_t acks_piggybacked() const { return acks_piggybacked_; }
  std::uint64_t netem_dropped() const { return netem_dropped_; }
  // recvmmsg(2) rx batching (the receive-side twin of the sendmmsg tx
  // batch): recvmmsg calls that returned datagrams, and datagrams they moved.
  std::uint64_t rx_batches() const { return rx_batches_; }
  std::uint64_t rx_batched_datagrams() const { return rx_batched_datagrams_; }

 private:
  using MsgKey = std::pair<net::NodeId, std::uint64_t>;  // (peer, seq)

  struct Outstanding {
    std::vector<util::Buffer> datagrams;  // envelope + frame, resend-ready
    sockaddr_in addr{};
    std::int64_t next_resend_us = 0;
    std::int64_t sent_at_us = 0;   // RTT sample anchor
    bool retransmitted = false;    // Karn: never sample a retransmitted msg
    int retries_left = 0;
    bool acked = false;
    bool failed = false;
  };

  // Per-peer transport state: address, RTT estimator, pending delayed acks,
  // and cached telemetry handles ("ep.<node>.peer.<peer>.*") resolved once
  // at slot creation so hot-path increments are single relaxed atomics.
  struct PeerState {
    sockaddr_in addr{};
    RttEstimator rtt;
    std::vector<std::uint64_t> pending_acks;
    std::int64_t ack_deadline_us = 0;  // 0 = no ack pending
    Counter* tm_retransmits = nullptr;
    Counter* tm_nacks_tx = nullptr;
    Counter* tm_nacks_rx = nullptr;
    Gauge* tm_rto_us = nullptr;
  };

  // Members of the nested helper structs below (Outstanding, PortQueue,
  // Reassembly, …) are all touched with mu_ held; the capability expression
  // cannot name the owning Endpoint's mutex from a nested scope, so the
  // GUARDED_BY annotations live on the containers that hold them instead.
  struct PortQueue {
    std::deque<Message> messages;
    util::CondVar cv;
    bool handled = false;  // deliveries go to the port handler instead
  };

  // One partially reassembled inbound message + its NACK bookkeeping.
  struct Reassembly {
    net::FragmentAssembler assembler;
    std::int64_t last_arrival_us = 0;  // quiescence detector
    std::int64_t nack_deadline_us = 0;  // 0 = not armed
    int nacks_sent = 0;
  };

  // Armed while complete messages are stashed beyond a sequence hole.
  struct GapSkip {
    std::int64_t deadline_us = 0;
    std::uint64_t expected = 0;  // next_seq_in_ when the timer was armed
  };

  // Inbound datagram held by the netem emulation until `release_us`.
  struct DelayedDatagram {
    std::int64_t release_us = 0;
    util::Buffer data;
    sockaddr_in from{};
  };

  // --- Loop thread (analyzer-enforced) ---
  void on_readable() MOCHA_REACTOR_ONLY EXCLUDES(mu_);  // socket handler
  void on_timer() MOCHA_REACTOR_ONLY EXCLUDES(mu_);     // transport timer
  // Ends every loop event: the tx batch, port handler dispatch, the timer.
  void finish_event() MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  void arm_timer() MOCHA_REACTOR_ONLY EXCLUDES(mu_);  // at next_deadline_us()
  // Netem front door: loss/delay/bandwidth emulation, then process.
  void handle_datagram(const std::uint8_t* data, std::size_t len,
                       const sockaddr_in& from) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  // Actual protocol processing of one datagram (takes mu_ internally).
  void process_datagram(const std::uint8_t* data, std::size_t len,
                        const sockaddr_in& from) MOCHA_REACTOR_ONLY
      EXCLUDES(mu_);
  void release_netem(std::int64_t now_us) MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  void fire_timers(std::int64_t now_us) MOCHA_REACTOR_ONLY EXCLUDES(mu_);
  void handle_data(net::NodeId src, const net::DataFrame& frame)
      EXCLUDES(mu_);
  void handle_ack_seq(net::NodeId src, std::uint64_t seq,
                      std::int64_t now_us) REQUIRES(mu_);
  std::int64_t next_deadline_us() REQUIRES(mu_);  // kNoDeadline: none
  void deliver_in_order(net::NodeId src) REQUIRES(mu_);
  // (Re)arms or clears the gap-skip timer for `src`.
  void update_gap_skip(net::NodeId src, std::int64_t now_us) REQUIRES(mu_);
  bool has_stashed(net::NodeId src) const REQUIRES(mu_);
  // Queues a delayed transport ack (piggybacked or flushed later).
  void enqueue_ack(net::NodeId dst, std::uint64_t seq,
                   std::int64_t now_us) REQUIRES(mu_);
  // Emits standalone ACK frames for every peer whose ack delay expired.
  void flush_due_acks(std::int64_t now_us) REQUIRES(mu_);
  // Takes up to max_piggyback_acks pending acks for `peer` that fit next to
  // a chunk of `chunk_len` bytes inside the MTU.
  std::vector<std::uint64_t> take_piggyback_acks(PeerState& peer,
                                                 std::size_t chunk_len)
      REQUIRES(mu_);
  // Looks up or creates the peer slot (estimator params set).
  PeerState& peer_state(net::NodeId peer) REQUIRES(mu_);
  // Queues one datagram for the next flush_tx.
  void queue_tx(const sockaddr_in& addr, util::Buffer datagram)
      REQUIRES(mu_);
  // Sends everything queued, in sendmmsg batches of up to 64 datagrams.
  void flush_tx() EXCLUDES(mu_);
  PortQueue& port_queue(net::Port port) REQUIRES(mu_);

  static constexpr std::int64_t kNoDeadline = INT64_MAX;

  net::NodeId node_;
  EndpointOptions opts_;
  Clock* clock_;
  std::size_t max_chunk_;  // payload bytes per fragment
  std::int64_t gap_skip_window_us_;  // full backed-off sender schedule
  int sock_ = -1;
  std::uint16_t udp_port_ = 0;
  std::atomic<bool> running_{false};

  // Loop-thread state: port handlers, transport timer, receive buffers.
  Reactor reactor_;
  std::map<net::Port, std::shared_ptr<PortHandler>> port_handlers_;
  Reactor::TimerId timer_ = Reactor::kInvalidTimer;
  std::int64_t timer_deadline_us_ = kNoDeadline;  // timer_'s deadline
  std::vector<std::uint8_t> rx_buf_;
  std::thread loop_thread_;

  mutable util::Mutex mu_;
  util::CondVar ack_cv_;  // send_sync waiters
  std::vector<Message> dispatch_ GUARDED_BY(mu_);  // for port handlers
  std::map<net::NodeId, PeerState> peers_ GUARDED_BY(mu_);
  std::map<net::NodeId, std::uint64_t> next_seq_out_ GUARDED_BY(mu_);
  std::map<MsgKey, std::shared_ptr<Outstanding>> outstanding_
      GUARDED_BY(mu_);
  std::map<MsgKey, Reassembly> reassembly_ GUARDED_BY(mu_);
  std::map<net::NodeId, std::uint64_t> next_seq_in_ GUARDED_BY(mu_);
  // Complete but out of order.
  std::map<MsgKey, Message> stashed_ GUARDED_BY(mu_);
  std::map<net::NodeId, GapSkip> gap_skips_ GUARDED_BY(mu_);
  std::map<net::Port, std::unique_ptr<PortQueue>> delivered_
      GUARDED_BY(mu_);

  // Outbound datagrams accumulated under mu_, flushed in batches.
  struct TxItem {
    sockaddr_in addr{};
    util::Buffer datagram;
  };
  std::vector<TxItem> tx_queue_ GUARDED_BY(mu_);

  // Netem state — loop thread only, no lock.
  std::deque<DelayedDatagram> netem_queue_;
  std::int64_t netem_link_free_us_ = 0;  // emulated link busy until here
  util::SplitMix64 netem_rng_;

  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_delivered_{0};
  std::atomic<std::uint64_t> fragments_sent_{0};
  std::atomic<std::uint64_t> retransmissions_{0};
  std::atomic<std::uint64_t> nacks_sent_{0};
  std::atomic<std::uint64_t> nacks_received_{0};
  std::atomic<std::uint64_t> acks_piggybacked_{0};
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
