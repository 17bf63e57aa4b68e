// trace::EventKind — the shared protocol-event vocabulary.
//
// Split out of trace/tracer.h so the live runtime's flight recorder
// (live/telemetry.h) can tag its events with the exact same kinds the sim
// tracer uses without pulling in the simulator (tracer.h includes
// sim/scheduler.h). A nonce recorded with a lock event is the same nonce on
// every node that saw the request, so dumps from different processes can be
// correlated by (kind, nonce).
#pragma once

#include <cstdint>

namespace mocha::trace {

enum class EventKind : std::uint8_t {
  kDatagramSent,
  kDatagramDelivered,
  kDatagramDropped,
  kLockRequested,
  kLockGranted,
  kLockReleased,
  kLockBroken,
  kTransferServed,
  kUpdatePushed,
  kFailureDetected,
  // Live-runtime additions (appended; earlier values are pinned by traces
  // already written): transport-level recovery and the §10 bulk fallback.
  kRetransmit,
  kNackSent,
  kBulkFallback,
  kNackReceived,
  kGapSkip,
};

inline const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kDatagramSent:
      return "DGRAM_SENT";
    case EventKind::kDatagramDelivered:
      return "DGRAM_DELIVERED";
    case EventKind::kDatagramDropped:
      return "DGRAM_DROPPED";
    case EventKind::kLockRequested:
      return "LOCK_REQUESTED";
    case EventKind::kLockGranted:
      return "LOCK_GRANTED";
    case EventKind::kLockReleased:
      return "LOCK_RELEASED";
    case EventKind::kLockBroken:
      return "LOCK_BROKEN";
    case EventKind::kTransferServed:
      return "TRANSFER_SERVED";
    case EventKind::kUpdatePushed:
      return "UPDATE_PUSHED";
    case EventKind::kFailureDetected:
      return "FAILURE_DETECTED";
    case EventKind::kRetransmit:
      return "RETRANSMIT";
    case EventKind::kNackSent:
      return "NACK_SENT";
    case EventKind::kBulkFallback:
      return "BULK_FALLBACK";
    case EventKind::kNackReceived:
      return "NACK_RECEIVED";
    case EventKind::kGapSkip:
      return "GAP_SKIP";
  }
  return "?";
}

}  // namespace mocha::trace
