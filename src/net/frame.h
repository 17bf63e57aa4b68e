// MochaNet frame codec — the single source of truth for what a MochaNet
// frame looks like on the wire.
//
// net::MochaNetCore (net/mochanet_core.h) is the one protocol that speaks
// it, under both adapters:
//   - `net::MochaNetEndpoint` (simulated fabric, deterministic virtual time)
//   - `live::Endpoint`        (real UDP sockets, wall-clock time)
// so frames captured from one runtime decode with the other. The sim fabric
// carries the (src, dst) node addressing in its Datagram envelope; the live
// backend prepends a 4-byte source-node envelope to each UDP datagram (see
// live/endpoint.h) — the frame bytes themselves are identical.
//
// Frame layouts (all integers little-endian, util::WireWriter conventions):
//   DATA     (0): u8 type, u64 seq, u32 frag_idx, u32 frag_count,
//                 u16 logical_port, raw chunk
//   ACK      (1): u8 type, u64 seq
//   NACK     (2): u8 type, u64 seq, u32 n, u32 missing_idx ...
//   DATA+ACK (3): u8 type, u64 seq, u32 frag_idx, u32 frag_count,
//                 u16 logical_port, u8 n_acks, u64 ack_seq ..., raw chunk
//
// DATA+ACK is a DATA frame with transport acks piggybacked between the
// header and the chunk: a receiver with acks pending for a peer it is about
// to send data to coalesces them onto the data frame instead of paying for
// standalone ACK datagrams. Decoders treat the payload exactly like DATA
// and the ack list exactly like that many ACK frames.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/frame_type.h"
#include "net/types.h"
#include "util/buffer.h"

namespace mocha::net {

// DATA frame overhead: type(1) + seq(8) + frag_idx(4) + frag_count(4) +
// port(2). A transport with MTU M carries at most M - kFragHeaderBytes
// payload bytes per fragment.
constexpr std::size_t kFragHeaderBytes = 19;

// DATA+ACK adds an ack-count byte plus 8 bytes per piggybacked ack seq.
constexpr std::size_t kDataAckBaseHeaderBytes = kFragHeaderBytes + 1;
constexpr std::size_t kPiggybackAckBytes = 8;
constexpr std::size_t kMaxPiggybackAcks = 255;  // u8 count on the wire

// Most fragments one message may have (~90 MB at a 1400-byte MTU). The
// receiver sizes reassembly state from a frame's frag_count, so a larger
// count off the wire is rejected rather than allocated.
constexpr std::uint32_t kMaxFragments = 1u << 16;

struct DataFrame {
  std::uint64_t seq = 0;
  std::uint32_t frag_idx = 0;
  std::uint32_t frag_count = 1;
  Port port = 0;  // upward-multiplexed logical port
  // Transport acks piggybacked on this fragment (DATA+ACK only).
  std::vector<std::uint64_t> acks;
  // View into the frame buffer; valid only while that buffer lives.
  std::span<const std::uint8_t> chunk;
};

struct AckFrame {
  std::uint64_t seq = 0;
};

struct NackFrame {
  std::uint64_t seq = 0;
  std::vector<std::uint32_t> missing;  // fragment indices still wanted
};

// --- Encoding ---

// Appends one DATA frame (header + chunk) to `out`.
void encode_data_frame(util::Buffer& out, std::uint64_t seq,
                       std::uint32_t frag_idx, std::uint32_t frag_count,
                       Port port, std::span<const std::uint8_t> chunk);
// Appends one DATA+ACK frame: a DATA frame carrying `acks` piggybacked
// transport acks (at most kMaxPiggybackAcks) ahead of the chunk.
void encode_data_ack_frame(util::Buffer& out, std::uint64_t seq,
                           std::uint32_t frag_idx, std::uint32_t frag_count,
                           Port port, std::span<const std::uint64_t> acks,
                           std::span<const std::uint8_t> chunk);
void encode_ack_frame(util::Buffer& out, std::uint64_t seq);
void encode_nack_frame(util::Buffer& out, const NackFrame& nack);

// Splits `payload` into DATA frames of at most `max_chunk` payload bytes
// each (at least one frame — empty messages travel as a single empty
// fragment). Returns the ready-to-send frame buffers in fragment order.
// Throws std::length_error when that takes more than kMaxFragments frames.
std::vector<util::Buffer> fragment_message(std::uint64_t seq, Port port,
                                           std::span<const std::uint8_t> payload,
                                           std::size_t max_chunk);

// --- Decoding ---
// Callers read the type byte first (frame dispatch), then decode the rest.
// All decoders throw util::CodecError on truncated or inconsistent input.

FrameType decode_frame_type(util::WireReader& reader);
DataFrame decode_data_frame(util::WireReader& reader);
// Decodes a DATA+ACK frame; the returned DataFrame carries the piggybacked
// ack seqs in `acks` and is otherwise identical to a DATA frame.
DataFrame decode_data_ack_frame(util::WireReader& reader);
AckFrame decode_ack_frame(util::WireReader& reader);
NackFrame decode_nack_frame(util::WireReader& reader);

// --- Reassembly ---

// Collects the fragments of one message (MochaNetCore wraps it with the
// NACK bookkeeping). Parts are stored as they arrive; only a bitmap is sized
// from the frag_count a frame claims.
class FragmentAssembler {
 public:
  // Folds one DATA fragment in. Returns false for duplicates and for
  // fragments inconsistent with the first one seen (bad index); such frames
  // are ignored. Throws CodecError, before changing anything, on a
  // frag_count of 0 or above kMaxFragments.
  bool add(const DataFrame& frame);

  bool complete() const {
    return frag_count_ != 0 && parts_.size() == frag_count_;
  }
  std::uint32_t frag_count() const { return frag_count_; }
  Port port() const { return port_; }
  // Fragment indices not yet received (NACK payload).
  std::vector<std::uint32_t> missing() const;

  // Concatenates the fragments into the original message payload.
  // Precondition: complete().
  util::Buffer assemble();

 private:
  std::uint32_t frag_count_ = 0;  // 0 = no fragment seen yet
  Port port_ = 0;
  std::vector<bool> have_;
  std::vector<std::pair<std::uint32_t, util::Buffer>> parts_;  // by arrival
};

}  // namespace mocha::net
