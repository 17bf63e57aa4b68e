#include "net/mochanet_core.h"

#include <stdexcept>

#include "util/log.h"

namespace mocha::net {

std::int64_t retry_schedule_us(const MochaNetOptions& opts) {
  const int cap = opts.adaptive_rto ? kRtoBackoffCap : 0;
  const std::int64_t max_rto = std::max(kMaxRtoUs, opts.rto_us);
  return RttEstimator::retry_schedule_us(opts.rto_us, opts.max_retries, cap,
                                         max_rto);
}

MochaNetCore::MochaNetCore(MochaNetOptions opts, MochaNetSink& sink)
    : opts_(opts),
      sink_(sink),
      max_chunk_(opts.max_frame_bytes - kFragHeaderBytes),
      gap_skip_window_us_(retry_schedule_us(opts) + 2 * opts.rto_us) {
  if (opts.max_frame_bytes <= kFragHeaderBytes) {
    throw std::invalid_argument("MochaNetCore: max_frame_bytes too small");
  }
}

MochaNetCore::Peer& MochaNetCore::peer(NodeId id) {
  auto [it, inserted] = peers_.try_emplace(id);
  if (inserted) {
    it->second.rtt = RttEstimator(RttEstimator::Params{opts_.rto_us});
  }
  return it->second;
}

std::int64_t MochaNetCore::current_rto_us(const Peer& p) const {
  return opts_.adaptive_rto ? p.rtt.rto_us() : opts_.rto_us;
}

std::int64_t MochaNetCore::rto_us(NodeId id) const {
  auto it = peers_.find(id);
  return it == peers_.end() ? opts_.rto_us : current_rto_us(it->second);
}

std::int64_t MochaNetCore::srtt_us(NodeId id) const {
  auto it = peers_.find(id);
  return it == peers_.end() ? 0 : it->second.rtt.srtt_us();
}

std::uint64_t MochaNetCore::send(std::int64_t now_us, NodeId dst, Port port,
                                 std::span<const std::uint8_t> payload) {
  Peer& p = peer(dst);
  const std::uint64_t seq = p.next_seq_out;
  std::vector<util::Buffer> frames =
      fragment_message(seq, port, payload, max_chunk_);
  ++p.next_seq_out;
  // Acks held for this peer ride the first fragment when they fit.
  const std::size_t first_chunk = std::min(max_chunk_, payload.size());
  const std::vector<std::uint64_t> acks = take_piggyback_acks(p, first_chunk);
  if (!acks.empty()) {
    util::Buffer first;
    first.reserve(kDataAckBaseHeaderBytes + acks.size() * kPiggybackAckBytes +
                  first_chunk);
    encode_data_ack_frame(first, seq, /*frag_idx=*/0,
                          static_cast<std::uint32_t>(frames.size()), port,
                          acks, payload.subspan(0, first_chunk));
    frames[0] = std::move(first);
  }

  sink_.work(Work::kMessage, 0);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    sink_.work(Work::kFragment,
               std::min(max_chunk_, payload.size() - i * max_chunk_));
    sink_.send_frame(dst, frames[i]);
    ++counters_.fragments_sent;
  }
  Outstanding out;
  out.frames = std::move(frames);
  out.sent_at_us = now_us;
  out.retries_left = opts_.max_retries;
  outstanding_.emplace(MsgKey{dst, seq}, std::move(out));
  ++counters_.messages_sent;
  return seq;
}

void MochaNetCore::sent(std::int64_t now_us, NodeId dst, std::uint64_t seq) {
  auto it = outstanding_.find({dst, seq});
  if (it == outstanding_.end()) return;  // already acked
  it->second.resend_at_us = now_us + current_rto_us(peer(dst));
}

void MochaNetCore::on_frame(std::int64_t now_us, NodeId src,
                            std::span<const std::uint8_t> bytes) {
  try {
    util::WireReader reader(bytes);
    switch (decode_frame_type(reader)) {
      case FrameType::kData:
        on_data(now_us, src, decode_data_frame(reader));
        break;
      case FrameType::kDataAck: {
        // The piggybacked acks first, then the payload exactly as DATA.
        const DataFrame frame = decode_data_ack_frame(reader);
        for (std::uint64_t seq : frame.acks) {
          sink_.work(Work::kAck, 0);
          on_ack(now_us, src, seq);
        }
        on_data(now_us, src, frame);
        break;
      }
      case FrameType::kAck: {
        const std::uint64_t seq = decode_ack_frame(reader).seq;
        sink_.work(Work::kAck, 0);
        on_ack(now_us, src, seq);
        break;
      }
      case FrameType::kNack: {
        const NackFrame nack = decode_nack_frame(reader);
        sink_.work(Work::kAck, 0);
        on_nack(now_us, src, nack);
        break;
      }
    }
  } catch (const util::CodecError& err) {
    MOCHA_DEBUG("mochanet") << "dropping malformed frame from node " << src
                            << ": " << err.what();
  }
}

void MochaNetCore::on_ack(std::int64_t now_us, NodeId src, std::uint64_t seq) {
  auto it = outstanding_.find({src, seq});
  if (it == outstanding_.end()) return;
  const std::int64_t latency_us = now_us - it->second.sent_at_us;
  if (opts_.adaptive_rto && !it->second.retransmitted) {
    // Karn's rule: a retransmitted message's ack is ambiguous. A sample also
    // resets the peer's backoff.
    peer(src).rtt.sample(latency_us);
  }
  outstanding_.erase(it);
  sink_.acked(src, seq, latency_us);
}

void MochaNetCore::on_nack(std::int64_t now_us, NodeId src,
                           const NackFrame& nack) {
  ++counters_.nacks_received;
  std::size_t resent = 0;
  auto it = outstanding_.find({src, nack.seq});
  if (it != outstanding_.end()) {
    Outstanding& out = it->second;
    // Each index at most once: one datagram can repeat an index hundreds of
    // times, and every copy would otherwise resend a whole fragment.
    std::vector<bool> resent_idx(out.frames.size());
    for (std::uint32_t idx : nack.missing) {
      if (idx >= out.frames.size() || resent_idx[idx]) continue;
      resent_idx[idx] = true;
      sink_.send_frame(src, out.frames[idx]);
      ++resent;
    }
    counters_.retransmissions += resent;
    // The peer is alive and repairing: give the repair one RTO before the
    // full resend, and never take an RTT sample from this message.
    out.retransmitted = true;
    out.resend_at_us = now_us + current_rto_us(peer(src));
  }
  sink_.on_event({trace::EventKind::kNackReceived, src, nack.seq, 0, resent});
}

void MochaNetCore::on_data(std::int64_t now_us, NodeId src,
                           const DataFrame& frame) {
  sink_.work(Work::kFragment, frame.chunk.size());
  const MsgKey key{src, frame.seq};
  if (frame.seq < peer(src).next_seq_in || stashed_.contains(key)) {
    ack(now_us, src, frame.seq);  // a duplicate: the sender missed our ack
    return;
  }
  auto it = reassembly_.find(key);
  if (it == reassembly_.end()) {
    // A first fragment is validated before anything is stored for it.
    Reassembly re;
    if (!re.assembler.add(frame)) return;
    it = reassembly_.emplace(key, std::move(re)).first;
  } else if (!it->second.assembler.add(frame)) {
    return;  // duplicate fragment
  }
  Reassembly& re = it->second;
  re.last_arrival_us = now_us;
  if (!re.assembler.complete()) {
    if (opts_.nack_delay_us > 0 && re.nack_deadline_us == kNoDeadline) {
      re.nack_deadline_us = now_us + opts_.nack_delay_us;
    }
    return;
  }

  Stashed msg{re.assembler.port(), re.assembler.assemble()};
  reassembly_.erase(it);
  sink_.work(Work::kMessage, 0);
  ack(now_us, src, frame.seq);
  // A gap skip may have passed this seq while work() ran.
  if (frame.seq < peer(src).next_seq_in) return;
  stashed_.emplace(key, std::move(msg));
  deliver_in_order(src);
  update_gap_skip(now_us, src);
}

void MochaNetCore::ack(std::int64_t now_us, NodeId src, std::uint64_t seq) {
  sink_.work(Work::kAck, 0);
  if (opts_.ack_delay_us <= 0) {
    util::Buffer frame;
    encode_ack_frame(frame, seq);
    sink_.send_frame(src, std::move(frame));
    return;
  }
  // Held on every path: the reply to this message usually carries it.
  Peer& p = peer(src);
  p.pending_acks.push_back(seq);
  if (p.ack_deadline_us == kNoDeadline) {
    p.ack_deadline_us = now_us + opts_.ack_delay_us;
  }
}

std::vector<std::uint64_t> MochaNetCore::take_piggyback_acks(
    Peer& dst, std::size_t chunk_len) {
  const std::size_t used = kDataAckBaseHeaderBytes + chunk_len;
  if (dst.pending_acks.empty() || used >= opts_.max_frame_bytes) return {};
  const std::size_t n =
      std::min({dst.pending_acks.size(),
                (opts_.max_frame_bytes - used) / kPiggybackAckBytes,
                kPiggybackAcksPerFrame});
  const auto end = dst.pending_acks.begin() + static_cast<std::ptrdiff_t>(n);
  std::vector<std::uint64_t> acks(dst.pending_acks.begin(), end);
  dst.pending_acks.erase(dst.pending_acks.begin(), end);
  if (dst.pending_acks.empty()) dst.ack_deadline_us = kNoDeadline;
  counters_.acks_piggybacked += n;
  return acks;
}

void MochaNetCore::deliver_in_order(NodeId src) {
  std::uint64_t& next = peer(src).next_seq_in;
  while (true) {
    auto it = stashed_.find({src, next});
    if (it == stashed_.end()) return;
    Stashed msg = std::move(it->second);
    stashed_.erase(it);
    ++next;
    ++counters_.messages_delivered;
    sink_.deliver(src, msg.port, std::move(msg.payload));
  }
}

void MochaNetCore::update_gap_skip(std::int64_t now_us, NodeId src) {
  Peer& p = peer(src);
  auto it = stashed_.lower_bound({src, 0});
  if (it == stashed_.end() || it->first.first != src) {
    p.gap_deadline_us = kNoDeadline;
    return;
  }
  if (p.gap_deadline_us != kNoDeadline && p.gap_expected == p.next_seq_in) {
    return;  // armed, and the stream has not moved since: keep ticking
  }
  p.gap_deadline_us = now_us + gap_skip_window_us_;
  p.gap_expected = p.next_seq_in;
}

void MochaNetCore::on_timer(std::int64_t now_us) {
  resend_due(now_us);
  nack_due(now_us);
  flush_due_acks(now_us);
  skip_due_gaps(now_us);
}

void MochaNetCore::resend_due(std::int64_t now_us) {
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    const MsgKey key = it->first;
    Outstanding& out = it->second;
    if (out.resend_at_us > now_us) {
      ++it;
      continue;
    }
    if (out.retries_left-- <= 0) {
      MOCHA_DEBUG("mochanet") << "seq " << key.second << " to node "
                              << key.first << " failed (retries exhausted)";
      it = outstanding_.erase(it);
      sink_.failed(key.first, key.second);
      continue;
    }
    // Whole-message resend; the backoff resets on the peer's next sample.
    Peer& p = peer(key.first);
    out.retransmitted = true;
    if (opts_.adaptive_rto) p.rtt.backoff();
    out.resend_at_us = now_us + current_rto_us(p);
    for (const util::Buffer& frame : out.frames) {
      sink_.send_frame(key.first, frame);
    }
    counters_.retransmissions += out.frames.size();
    sink_.on_event({trace::EventKind::kRetransmit, key.first, key.second,
                    static_cast<std::uint64_t>(out.retries_left),
                    out.frames.size()});
    ++it;
  }
}

void MochaNetCore::nack_due(std::int64_t now_us) {
  for (auto& [key, re] : reassembly_) {
    if (re.nack_deadline_us > now_us) continue;
    // Only a quiet stream means loss; fragments still flowing mean the
    // sender is mid-transmission.
    if (now_us - re.last_arrival_us < opts_.nack_delay_us) {
      re.nack_deadline_us = re.last_arrival_us + opts_.nack_delay_us;
      continue;
    }
    if (re.nacks_sent >= opts_.max_retries) {
      re.nack_deadline_us = kNoDeadline;  // the sender's RTO still covers it
      continue;
    }
    const NackFrame nack{key.second, re.assembler.missing()};
    util::Buffer frame;
    encode_nack_frame(frame, nack);
    ++re.nacks_sent;
    ++counters_.nacks_sent;
    re.nack_deadline_us = now_us + opts_.nack_delay_us;
    sink_.send_frame(key.first, std::move(frame));
    sink_.on_event({trace::EventKind::kNackSent, key.first, key.second,
                    nack.missing.size(), 0});
  }
}

void MochaNetCore::flush_due_acks(std::int64_t now_us) {
  for (auto& [dst, p] : peers_) {
    if (p.ack_deadline_us > now_us) continue;
    // No data frame came along in time: standalone ACK frames.
    for (std::uint64_t seq : p.pending_acks) {
      util::Buffer frame;
      encode_ack_frame(frame, seq);
      sink_.send_frame(dst, std::move(frame));
    }
    p.pending_acks.clear();
    p.ack_deadline_us = kNoDeadline;
  }
}

void MochaNetCore::skip_due_gaps(std::int64_t now_us) {
  for (auto& [src, p] : peers_) {
    if (p.gap_deadline_us > now_us) continue;
    // Every completion re-arms from scratch, so a due deadline means no
    // progress for a whole window and a stash beyond the hole.
    p.gap_deadline_us = kNoDeadline;
    auto stash = stashed_.lower_bound({src, 0});
    const std::uint64_t hole = p.next_seq_in;
    p.next_seq_in = stash->first.second;
    MOCHA_DEBUG("mochanet") << "skipping sequence hole " << hole << ".."
                            << p.next_seq_in - 1 << " from node " << src;
    // The hole's fragments will never complete: their sender gave up.
    reassembly_.erase(reassembly_.lower_bound({src, 0}),
                      reassembly_.lower_bound({src, p.next_seq_in}));
    sink_.on_event({trace::EventKind::kGapSkip, src, hole, p.next_seq_in, 0});
    deliver_in_order(src);
    update_gap_skip(now_us, src);
  }
}

std::int64_t MochaNetCore::next_deadline_us() const {
  std::int64_t deadline = kNoDeadline;
  for (const auto& [key, out] : outstanding_) {
    deadline = std::min(deadline, out.resend_at_us);
  }
  for (const auto& [key, re] : reassembly_) {
    deadline = std::min(deadline, re.nack_deadline_us);
  }
  for (const auto& [id, p] : peers_) {
    deadline = std::min({deadline, p.ack_deadline_us, p.gap_deadline_us});
  }
  return deadline;
}

}  // namespace mocha::net
