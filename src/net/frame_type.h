// net::FrameType — the type byte that opens every MochaNet frame
// (net/frame.h), declared once as a table.
//
// Each row of MOCHA_FRAME_TYPES is FRAME(enumerator, value, Stem), where
// Stem is the CamelCase name of the frame's codec in net/frame.h (Data for
// encode_data_frame / decode_data_frame). From the table come the enum
// below, a static_assert that no two frame types share a value, and one
// round-trip case per row in tests/frame_conformance_test.cc
// (FrameCodec.<Stem>FrameRoundTrip). The one frame dispatcher
// (net/mochanet_core.cc) switches over the enum with no default, so under
// -Werror=switch it cannot leave a frame type out.
#pragma once

#include <cstdint>

#include "util/first_repeated_value.h"

#define MOCHA_FRAME_TYPES(FRAME)                                               \
  FRAME(kData, 0, Data)                                                        \
  FRAME(kAck, 1, Ack)                                                          \
  FRAME(kNack, 2, Nack)                                                        \
  /* DATA with piggybacked transport acks */                                   \
  FRAME(kDataAck, 3, DataAck)

namespace mocha::net {

#define MOCHA_FRAME_ENUMERATOR(name, value, stem) name = value,
enum class FrameType : std::uint8_t {
  MOCHA_FRAME_TYPES(MOCHA_FRAME_ENUMERATOR)
};
#undef MOCHA_FRAME_ENUMERATOR

#define MOCHA_FRAME_VALUE(name, value, stem) value,
static_assert(util::first_repeated_value(
                  {MOCHA_FRAME_TYPES(MOCHA_FRAME_VALUE)}) == -1,
              "two FrameType rows share a value");
#undef MOCHA_FRAME_VALUE

}  // namespace mocha::net
