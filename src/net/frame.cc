#include "net/frame.h"

#include <algorithm>
#include <stdexcept>

namespace mocha::net {

void encode_data_frame(util::Buffer& out, std::uint64_t seq,
                       std::uint32_t frag_idx, std::uint32_t frag_count,
                       Port port, std::span<const std::uint8_t> chunk) {
  util::WireWriter writer(out);
  writer.u8(static_cast<std::uint8_t>(FrameType::kData));
  writer.u64(seq);
  writer.u32(frag_idx);
  writer.u32(frag_count);
  writer.u16(port);
  writer.raw(chunk);
}

void encode_data_ack_frame(util::Buffer& out, std::uint64_t seq,
                           std::uint32_t frag_idx, std::uint32_t frag_count,
                           Port port, std::span<const std::uint64_t> acks,
                           std::span<const std::uint8_t> chunk) {
  if (acks.size() > kMaxPiggybackAcks) {
    throw util::CodecError("DATA+ACK frame with too many piggybacked acks (" +
                           std::to_string(acks.size()) + ")");
  }
  util::WireWriter writer(out);
  writer.u8(static_cast<std::uint8_t>(FrameType::kDataAck));
  writer.u64(seq);
  writer.u32(frag_idx);
  writer.u32(frag_count);
  writer.u16(port);
  writer.u8(static_cast<std::uint8_t>(acks.size()));
  for (std::uint64_t ack : acks) writer.u64(ack);
  writer.raw(chunk);
}

void encode_ack_frame(util::Buffer& out, std::uint64_t seq) {
  util::WireWriter writer(out);
  writer.u8(static_cast<std::uint8_t>(FrameType::kAck));
  writer.u64(seq);
}

void encode_nack_frame(util::Buffer& out, const NackFrame& nack) {
  util::WireWriter writer(out);
  writer.u8(static_cast<std::uint8_t>(FrameType::kNack));
  writer.u64(nack.seq);
  writer.u32(static_cast<std::uint32_t>(nack.missing.size()));
  for (std::uint32_t idx : nack.missing) writer.u32(idx);
}

std::vector<util::Buffer> fragment_message(
    std::uint64_t seq, Port port, std::span<const std::uint8_t> payload,
    std::size_t max_chunk) {
  const std::size_t total = payload.size();
  const std::size_t frags = std::max<std::size_t>(
      1, (total + max_chunk - 1) / max_chunk);
  if (frags > kMaxFragments) {
    throw std::length_error("MochaNet message needs over kMaxFragments");
  }
  const auto frag_count = static_cast<std::uint32_t>(frags);
  std::vector<util::Buffer> frames;
  frames.reserve(frag_count);
  for (std::uint32_t i = 0; i < frag_count; ++i) {
    const std::size_t offset = static_cast<std::size_t>(i) * max_chunk;
    const std::size_t len = std::min(max_chunk, total - offset);
    util::Buffer frame;
    frame.reserve(kFragHeaderBytes + len);
    encode_data_frame(frame, seq, i, frag_count, port,
                      payload.subspan(offset, len));
    frames.push_back(std::move(frame));
  }
  return frames;
}

FrameType decode_frame_type(util::WireReader& reader) {
  const std::uint8_t raw = reader.u8();
  if (raw > static_cast<std::uint8_t>(FrameType::kDataAck)) {
    throw util::CodecError("unknown MochaNet frame type " +
                           std::to_string(raw));
  }
  return static_cast<FrameType>(raw);
}

DataFrame decode_data_frame(util::WireReader& reader) {
  DataFrame frame;
  frame.seq = reader.u64();
  frame.frag_idx = reader.u32();
  frame.frag_count = reader.u32();
  frame.port = reader.u16();
  frame.chunk = reader.raw(reader.remaining());
  return frame;
}

DataFrame decode_data_ack_frame(util::WireReader& reader) {
  DataFrame frame;
  frame.seq = reader.u64();
  frame.frag_idx = reader.u32();
  frame.frag_count = reader.u32();
  frame.port = reader.u16();
  const std::uint8_t n_acks = reader.u8();
  frame.acks.reserve(n_acks);
  for (std::uint8_t i = 0; i < n_acks; ++i) frame.acks.push_back(reader.u64());
  frame.chunk = reader.raw(reader.remaining());
  return frame;
}

AckFrame decode_ack_frame(util::WireReader& reader) {
  return AckFrame{reader.u64()};
}

NackFrame decode_nack_frame(util::WireReader& reader) {
  NackFrame nack;
  nack.seq = reader.u64();
  const std::uint32_t n = reader.u32();
  if (n > reader.remaining() / 4) {
    throw util::CodecError("NACK frame claims " + std::to_string(n) +
                           " missing fragments past its end");
  }
  nack.missing.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) nack.missing.push_back(reader.u32());
  return nack;
}

bool FragmentAssembler::add(const DataFrame& frame) {
  if (frame.frag_count == 0 || frame.frag_count > kMaxFragments) {
    throw util::CodecError("DATA frame with frag_count " +
                           std::to_string(frame.frag_count));
  }
  if (frag_count_ == 0) {
    frag_count_ = frame.frag_count;
    port_ = frame.port;
    have_.assign(frag_count_, false);
  }
  if (frame.frag_idx >= frag_count_ || have_[frame.frag_idx]) return false;
  have_[frame.frag_idx] = true;
  parts_.emplace_back(frame.frag_idx,
                      util::Buffer(frame.chunk.begin(), frame.chunk.end()));
  return true;
}

std::vector<std::uint32_t> FragmentAssembler::missing() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < frag_count_; ++i) {
    if (!have_[i]) out.push_back(i);
  }
  return out;
}

util::Buffer FragmentAssembler::assemble() {
  std::sort(parts_.begin(), parts_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  util::Buffer payload;
  std::size_t total = 0;
  for (const auto& [idx, part] : parts_) total += part.size();
  payload.reserve(total);
  for (const auto& [idx, part] : parts_) {
    payload.insert(payload.end(), part.begin(), part.end());
  }
  return payload;
}

}  // namespace mocha::net
