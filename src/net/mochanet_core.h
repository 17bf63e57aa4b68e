// MochaNetCore — the one MochaNet reliability layer (paper §5): reliable,
// sequenced delivery, fragmentation and reassembly, and upward multiplexing
// onto logical ports, as a transport-free state machine with no threads,
// clocks, sockets or mutexes. docs/PROTOCOL.md §2 states its rules:
// per-sender sequencing with a stash, whole-message RTO resends (fixed, or
// adaptive with Karn's rule and backoff), quiescence-armed selective NACKs,
// delayed and piggybacked acks, and the per-sender gap skip.
//
// Inputs carry the current time in microseconds: send() and sent() (the
// last fragment has left, so the RTO starts), on_frame() for each inbound
// frame, on_timer() once next_deadline_us() has passed. Outputs go to a
// MochaNetSink. net::MochaNetEndpoint (simulator) and live::Endpoint (UDP)
// are the two adapters.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "net/frame.h"
#include "net/types.h"
#include "trace/event_kind.h"
#include "util/buffer.h"

namespace mocha::net {

// Adaptive-RTO bounds and the per-frame piggyback cap (not options: no
// deployment has needed other values).
constexpr std::int64_t kMinRtoUs = 1'000;
constexpr std::int64_t kMaxRtoUs = 1'000'000;
constexpr int kRtoBackoffCap = 6;  // max exponential-backoff doublings
constexpr std::size_t kPiggybackAcksPerFrame = 8;

// Jacobson/Karels round-trip-time estimator (RFC 6298 shape; formulas in
// docs/PROTOCOL.md §2), one per peer. A retransmit timeout doubles the RTO
// (capped at `backoff_cap` doublings); any accepted sample — an ack for a
// never-retransmitted message, per Karn's rule, which the caller enforces —
// resets the backoff. Before the first sample rto_us() is the initial RTO.
// Integer microseconds throughout; granularity is min_rto_us.
class RttEstimator {
 public:
  struct Params {
    std::int64_t initial_rto_us = 20'000;
    std::int64_t min_rto_us = kMinRtoUs;
    std::int64_t max_rto_us = kMaxRtoUs;
    int backoff_cap = kRtoBackoffCap;  // RTO never exceeds base << cap
  };

  RttEstimator() = default;
  explicit RttEstimator(Params params) : params_(params) {}

  // Folds in one round-trip measurement and resets the backoff. Callers must
  // only sample acks of never-retransmitted messages (Karn's algorithm).
  void sample(std::int64_t rtt_us) {
    rtt_us = std::max<std::int64_t>(rtt_us, 1);
    if (srtt_us_ == 0) {
      srtt_us_ = rtt_us;
      rttvar_us_ = rtt_us / 2;
    } else {
      const std::int64_t err = std::max<std::int64_t>(
          srtt_us_ > rtt_us ? srtt_us_ - rtt_us : rtt_us - srtt_us_, 0);
      rttvar_us_ += (err - rttvar_us_) / 4;
      srtt_us_ += (rtt_us - srtt_us_) / 8;
    }
    backoff_shift_ = 0;
  }

  // Exponential backoff after a retransmit timeout.
  void backoff() {
    if (backoff_shift_ < params_.backoff_cap) ++backoff_shift_;
  }

  bool has_sample() const { return srtt_us_ != 0; }
  std::int64_t srtt_us() const { return srtt_us_; }
  std::int64_t rttvar_us() const { return rttvar_us_; }
  int backoff_shift() const { return backoff_shift_; }

  // Base RTO before backoff.
  std::int64_t base_rto_us() const {
    if (srtt_us_ == 0) return clamp(params_.initial_rto_us);
    return clamp(srtt_us_ +
                 std::max(params_.min_rto_us, 4 * rttvar_us_));
  }

  // Current RTO including backoff.
  std::int64_t rto_us() const {
    return clamp(base_rto_us() << backoff_shift_);
  }

  // Total duration of a sender's full backed-off retransmit schedule: the
  // initial wait plus `max_retries` resends, each doubling up to
  // `backoff_cap` and clamping at `max_rto_us`.
  static std::int64_t retry_schedule_us(std::int64_t initial_rto_us,
                                        int max_retries, int backoff_cap,
                                        std::int64_t max_rto_us) {
    std::int64_t total = 0;
    for (int i = 0; i <= max_retries; ++i) {
      const int shift = std::min(i, backoff_cap);
      std::int64_t rto = initial_rto_us << shift;
      if (rto > max_rto_us || rto <= 0) rto = max_rto_us;  // <=0: overflow
      total += rto;
    }
    return total;
  }

 private:
  std::int64_t clamp(std::int64_t v) const {
    return std::clamp(v, params_.min_rto_us, params_.max_rto_us);
  }

  Params params_;
  std::int64_t srtt_us_ = 0;  // 0 = no sample yet
  std::int64_t rttvar_us_ = 0;
  int backoff_shift_ = 0;
};

struct MochaNetOptions {
  // Largest frame the transport carries (the MTU less any envelope).
  std::size_t max_frame_bytes = 1400;
  // Initial RTO; the fixed RTO when adaptive_rto is off.
  std::int64_t rto_us = 20'000;
  int max_retries = 10;  // resends before a message fails
  bool adaptive_rto = true;
  // Quiet period before a partial message NACKs its missing fragments;
  // 0 disables NACKs (whole-message RTO resends only).
  std::int64_t nack_delay_us = 2'000;
  // Longest an ack waits to ride outgoing data (a reply usually carries it)
  // before it leaves as a standalone ACK frame; 0 acks at once.
  std::int64_t ack_delay_us = 500;
};

// A sender's full retransmit schedule under `opts` (backed off when
// adaptive): by then a send has been acked or has failed.
std::int64_t retry_schedule_us(const MochaNetOptions& opts);

// The protocol work a CPU model charges for (the sim's mn_*_cpu_us costs).
enum class Work : std::uint8_t {
  kMessage,   // per-message work at either end
  kFragment,  // per-fragment work; `bytes` is the chunk length
  kAck,       // emitting or processing one transport ack or NACK
};

class MochaNetSink {
 public:
  // Trace event: kRetransmit (arg = retries left, frames = fragments resent),
  // kNackSent (arg = fragments asked for), kNackReceived (frames = fragments
  // resent), kGapSkip (seq = first skipped, arg = first delivered after).
  struct Event {
    trace::EventKind kind = trace::EventKind::kRetransmit;
    NodeId peer = kInvalidNode;
    std::uint64_t seq = 0;
    std::uint64_t arg = 0;
    std::size_t frames = 0;
  };

  virtual ~MochaNetSink() = default;
  virtual void send_frame(NodeId dst, util::Buffer frame) = 0;
  virtual void deliver(NodeId src, Port port, util::Buffer payload) = 0;
  virtual void acked(NodeId dst, std::uint64_t seq,
                     std::int64_t latency_us) = 0;
  virtual void failed(NodeId dst, std::uint64_t seq) = 0;
  virtual void on_event(const Event& /*event*/) {}
  // Reports protocol work before it is done. The simulator charges virtual
  // CPU time here, during which other simulated processes and timers may
  // call into the same core; the core therefore holds no reference to its
  // own state across this call. Never called from on_timer().
  virtual void work(Work /*kind*/, std::size_t /*bytes*/) {}
};

class MochaNetCore {
 public:
  static constexpr std::int64_t kNoDeadline = INT64_MAX;

  struct Counters {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t fragments_sent = 0;
    std::uint64_t retransmissions = 0;  // fragments resent (RTO or NACK)
    std::uint64_t nacks_sent = 0;
    std::uint64_t nacks_received = 0;
    std::uint64_t acks_piggybacked = 0;
  };

  // Throws std::invalid_argument when max_frame_bytes leaves no room for a
  // fragment header.
  MochaNetCore(MochaNetOptions opts, MochaNetSink& sink);

  MochaNetCore(const MochaNetCore&) = delete;
  MochaNetCore& operator=(const MochaNetCore&) = delete;

  // Fragments `payload`, emits every fragment (pending acks for `dst` ride
  // the first one when they fit) and returns the message's seq. The RTO
  // does not run until sent(). Throws std::length_error for a message of
  // more than kMaxFragments fragments; the core is unchanged then.
  std::uint64_t send(std::int64_t now_us, NodeId dst, Port port,
                     std::span<const std::uint8_t> payload);
  // The last fragment of (dst, seq) has left: its RTO starts now.
  void sent(std::int64_t now_us, NodeId dst, std::uint64_t seq);
  // One inbound frame from `src`; malformed frames are dropped.
  void on_frame(std::int64_t now_us, NodeId src,
                std::span<const std::uint8_t> bytes);
  // Runs every deadline at or before `now_us`.
  void on_timer(std::int64_t now_us);
  // Earliest pending deadline; kNoDeadline when there is none.
  std::int64_t next_deadline_us() const;

  const Counters& counters() const { return counters_; }
  // Messages sent and neither acked nor failed yet.
  std::size_t outstanding() const { return outstanding_.size(); }
  // Current RTO toward `peer` (the initial RTO before any traffic).
  std::int64_t rto_us(NodeId peer) const;
  // Smoothed RTT toward `peer`; 0 before the first sample.
  std::int64_t srtt_us(NodeId peer) const;

 private:
  using MsgKey = std::pair<NodeId, std::uint64_t>;  // (peer, seq)

  struct Peer {
    RttEstimator rtt;
    std::uint64_t next_seq_out = 1;
    std::uint64_t next_seq_in = 1;
    std::vector<std::uint64_t> pending_acks;  // held for piggybacking
    std::int64_t ack_deadline_us = kNoDeadline;
    std::int64_t gap_deadline_us = kNoDeadline;
    std::uint64_t gap_expected = 0;  // next_seq_in when the gap was armed
  };

  struct Outstanding {
    std::vector<util::Buffer> frames;  // resend-ready
    std::int64_t sent_at_us = 0;       // send->ack latency anchor
    std::int64_t resend_at_us = kNoDeadline;  // set by sent()
    int retries_left = 0;
    bool retransmitted = false;  // Karn: never sample a retransmitted msg
  };

  struct Reassembly {
    FragmentAssembler assembler;
    std::int64_t last_arrival_us = 0;  // quiescence detector
    std::int64_t nack_deadline_us = kNoDeadline;
    int nacks_sent = 0;
  };

  struct Stashed {  // complete but out of order
    Port port = 0;
    util::Buffer payload;
  };

  Peer& peer(NodeId id);
  std::int64_t current_rto_us(const Peer& peer) const;
  void on_data(std::int64_t now_us, NodeId src, const DataFrame& frame);
  void on_ack(std::int64_t now_us, NodeId src, std::uint64_t seq);
  void on_nack(std::int64_t now_us, NodeId src, const NackFrame& nack);
  // Acks (src, seq) now or holds it for piggybacking.
  void ack(std::int64_t now_us, NodeId src, std::uint64_t seq);
  // Takes the pending acks for `dst` that fit next to a `chunk_len` chunk.
  std::vector<std::uint64_t> take_piggyback_acks(Peer& dst,
                                                 std::size_t chunk_len);
  void deliver_in_order(NodeId src);
  // Arms, keeps or clears the gap-skip deadline for `src`.
  void update_gap_skip(std::int64_t now_us, NodeId src);
  void resend_due(std::int64_t now_us);
  void nack_due(std::int64_t now_us);
  void flush_due_acks(std::int64_t now_us);
  void skip_due_gaps(std::int64_t now_us);

  const MochaNetOptions opts_;
  MochaNetSink& sink_;
  const std::size_t max_chunk_;
  const std::int64_t gap_skip_window_us_;

  std::map<NodeId, Peer> peers_;
  std::map<MsgKey, Outstanding> outstanding_;
  std::map<MsgKey, Reassembly> reassembly_;
  std::map<MsgKey, Stashed> stashed_;
  Counters counters_;
};

}  // namespace mocha::net
