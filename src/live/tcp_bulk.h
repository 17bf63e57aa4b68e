// live::TcpBulkChannel — the TCP leg of the paper's hybrid bulk path (§10).
//
// Bulk replica bundles at or above the hybrid crossover ride kernel
// SOCK_STREAM while every control message stays on the MochaNet UDP
// endpoint. The win the paper measures is kernel-speed fragmentation: beyond
// the crossover, TCP's in-kernel segmentation and cwnd pacing beat the
// endpoint's userspace frag/RTO/NACK machinery; below it, connection setup
// and stream framing cost more than they save. Connections amortize that
// setup cost: an LRU cache (keyed by peer node, default 8 entries) reuses
// established streams across transfers, evicting only idle connections.
//
// Stream framing (one frame per bundle, little-endian):
//
//     u32 magic "MTB1" | u32 src_node | u16 dst_port | u32 len | len bytes
//
// A magic mismatch or oversized frame closes the stream — there is no
// resync; the sender's next bundle redials.
//
// Copies: the header and the caller's payload leave in one sendmsg(2) of
// two iovecs, and an inbound payload is received straight into a buffer
// sized from its header, so no bundle byte is copied in userspace here.
//
// Threading: the channel has no thread. Its listener, connections,
// nonblocking connects and writes, deadline timers and inbound reassembly
// all live on the endpoint's live::Reactor, and send_bundle() is called
// from that loop (the daemon-port handler). Both callbacks run on the loop
// and must not call back into the channel. Only the constructor, the
// destructor, drain() and the stat readers may run on other threads; they
// hand work to the loop with Endpoint::run_on_loop().
//
// Outcomes: send_bundle()'s callback gets OK once the whole frame is in the
// kernel send buffer — delivery from there is TCP's job, as delivery of a
// UDP bundle is the endpoint's retransmit machinery's. kUnavailable means no
// usable contact (unknown address, no advertised port, connection refused,
// peer closed or reset the stream); kTimeout means the nonblocking connect
// or the frame write missed its deadline (a stalled peer that accepts but
// never reads lands here). On any failure the callback also gets the payload
// back, unsent, so the caller can re-route it.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>

#include "live/endpoint.h"
#include "live/reactor.h"
#include "live/telemetry.h"
#include "net/types.h"
#include "util/analysis_annotations.h"
#include "util/buffer.h"
#include "util/status.h"

namespace mocha::live {

struct TcpBulkOptions {
  std::size_t max_cached_connections = 8;  // LRU cap (idle entries evicted)
  std::int64_t connect_timeout_us = 2'000'000;
  int listen_backlog = 16;
  // Largest accepted inbound frame; a peer announcing more is corrupt.
  std::size_t max_frame_bytes = 64u << 20;
  // Test hook: when > 0, SO_SNDBUF on outbound connections — shrinks the
  // kernel buffer so a stalled reader turns into a typed send timeout.
  int send_buffer_bytes = 0;
};

// MOCHA_REACTOR_SAFE (class-level): loop callbacks may capture `this`
// because the destructor unregisters every fd and cancels every timer on
// the loop before members are destroyed.
class MOCHA_REACTOR_SAFE TcpBulkChannel {
 public:
  // One inbound frame: sender node, logical destination port, payload.
  using Deliver = std::function<void(net::NodeId src, net::Port port,
                                     util::Buffer payload)>;
  // The outcome of one send_bundle(); `payload` is the unsent bundle on
  // failure (empty on success).
  using Done = std::function<void(util::Status status, util::Buffer payload)>;

  struct Stats {
    std::uint64_t bundles_sent = 0;
    std::uint64_t bundles_received = 0;
    std::uint64_t send_failures = 0;
    std::uint64_t repairs = 0;  // established connections lost
  };

  // Binds the listener (ephemeral port, see contact_port()) and watches it
  // on `endpoint`'s loop, which must outlive the channel. Throws
  // std::system_error when the listener cannot be created.
  TcpBulkChannel(Endpoint& endpoint, Deliver deliver,
                 TcpBulkOptions opts = {});
  // Fails queued frames with kShutdown (their callbacks run) and closes
  // every socket, on the loop.
  ~TcpBulkChannel();

  TcpBulkChannel(const TcpBulkChannel&) = delete;
  TcpBulkChannel& operator=(const TcpBulkChannel&) = delete;

  std::uint16_t contact_port() const { return tcp_port_; }

  // Queues one bundle for (dst, port) through dst's listener at `contact`
  // (its BULK-HELLO tcp_port) and runs `done` exactly once with the outcome
  // (see the file comment) — inline when the send fails at once.
  void send_bundle(net::NodeId dst, std::uint16_t contact, net::Port port,
                   util::Buffer payload, std::int64_t timeout_us,
                   Done done) MOCHA_REACTOR_ONLY;

  // Refuses new sends, waits up to `timeout_us` for queued frames to reach
  // the kernel, then closes the cached connections with a FIN (the kernel
  // still delivers what it holds) — the §10 pre-exit drain mocha_live runs
  // under its shared flush deadline.
  // True when nothing was left queued. Not from the loop thread.
  bool drain(std::int64_t timeout_us) MOCHA_BLOCKING;

  Stats stats() const;
  // Number of cached outbound connections (test aid).
  std::size_t cached_connections() const {
    return cached_conns_.load(std::memory_order_relaxed);
  }

 private:
  struct OutFrame {
    std::uint64_t id = 0;
    util::Buffer header;
    util::Buffer payload;
    std::size_t sent = 0;  // header + payload bytes already in the kernel
    Done done;
    Reactor::TimerId deadline_timer = Reactor::kInvalidTimer;
  };
  // Outbound connection (the LRU cache entry).
  struct Conn {
    int fd = -1;
    net::NodeId peer = net::kInvalidNode;
    bool connected = false;
    std::uint32_t watched = 0;  // EPOLL* mask currently registered
    Reactor::TimerId connect_timer = Reactor::kInvalidTimer;
    std::deque<OutFrame> queue;
    std::list<net::NodeId>::iterator lru_it;
  };
  // Inbound stream: the fixed header, then a payload buffer sized from it.
  struct Inbound {
    int fd = -1;
    std::uint8_t header[4 + 4 + 2 + 4] = {};
    std::size_t header_have = 0;
    bool in_payload = false;
    net::NodeId src = net::kInvalidNode;
    net::Port port = 0;
    util::Buffer payload;
    std::size_t payload_have = 0;
  };

  Conn* ensure_conn(net::NodeId dst, std::uint16_t contact,
                    util::Status* error) MOCHA_REACTOR_ONLY;
  void conn_event(net::NodeId dst, std::uint32_t events) MOCHA_REACTOR_ONLY;
  void flush_conn(Conn& conn) MOCHA_REACTOR_ONLY;
  // Re-registers dst's connection for EPOLLOUT exactly while it has
  // something to write (or is still connecting).
  void update_conn_watch(net::NodeId dst) MOCHA_REACTOR_ONLY;
  void frame_deadline(net::NodeId dst, std::uint64_t frame_id)
      MOCHA_REACTOR_ONLY;
  // Drops the connection and fails everything queued on it with `status`.
  void fail_conn(net::NodeId dst, const util::Status& status)
      MOCHA_REACTOR_ONLY;
  void finish_frame(OutFrame& frame, util::Status status) MOCHA_REACTOR_ONLY;
  void evict_idle_over_cap() MOCHA_REACTOR_ONLY;
  // FIN-closes dst's connection (not counted as a repair).
  void close_conn(net::NodeId dst, const util::Status& status)
      MOCHA_REACTOR_ONLY;
  // Closes every connection; queued frames fail with `status`.
  void close_all(const util::Status& status) MOCHA_REACTOR_ONLY;
  void accept_ready() MOCHA_REACTOR_ONLY;
  void inbound_event(int fd, std::uint32_t events) MOCHA_REACTOR_ONLY;
  // Acts on the bytes read into `in` so far: sizes the payload buffer once
  // the header is complete, delivers the frame once the payload is. False
  // when the header was corrupt and the stream is closed.
  bool advance_frame(Inbound& in) MOCHA_REACTOR_ONLY;
  void close_inbound(int fd) MOCHA_REACTOR_ONLY;

  Endpoint& endpoint_;
  Reactor& reactor_;
  const Deliver deliver_;
  const TcpBulkOptions opts_;
  int listen_fd_ = -1;
  std::uint16_t tcp_port_ = 0;

  // Registry handles ("bulk.tcp.<node>.*"), mirrored by the atomics below
  // so stats() stays per instance.
  Counter* tm_sent_ = nullptr;
  Counter* tm_received_ = nullptr;
  Counter* tm_failures_ = nullptr;
  Counter* tm_repairs_ = nullptr;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> repairs_{0};
  std::atomic<std::size_t> queued_frames_{0};
  std::atomic<std::size_t> cached_conns_{0};

  // Loop-thread-owned.
  std::map<net::NodeId, std::unique_ptr<Conn>> conns_;
  std::list<net::NodeId> lru_;  // front = most recently used
  std::map<int, std::unique_ptr<Inbound>> inbound_;
  std::uint64_t next_frame_id_ = 1;
  bool draining_ = false;
};

}  // namespace mocha::live
