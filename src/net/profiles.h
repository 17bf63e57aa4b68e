// Calibrated network/CPU profiles for the two environments the paper
// evaluates (§5): a Fast Ethernet LAN between two SUN ULTRA 1s, and a
// ~6-mile Internet WAN path between an ULTRA 1 and a (slower) SPARCstation
// 20. Constants are calibrated so the simulated environment reproduces the
// paper's anchor measurements:
//
//   Table 1  — lock acquire (2 small MochaNet messages):
//              LAN: 2*(1170+1170) + 2*150   us ≈ 5 ms
//              WAN: 2*(2250+2250) + 2*5000  us ≈ 19 ms
//   Fig 9/10 — 1K transfers: basic beats hybrid (TCP setup/teardown CPU
//              dominates a one-fragment message).
//   Fig 11/12 - 4K: hybrid wins; ≈30% at 6 WAN sites.
//   Fig 13/14 - 256K: hybrid wins decisively (user-level interpreted
//              fragmentation vs kernel-native TCP), ≈70% on WAN.
//
// All trends then *emerge* from the protocol mechanics; nothing below encodes
// a result directly.
#pragma once

#include <cstddef>
#include <string>

#include "sim/scheduler.h"

namespace mocha::net {

struct NetProfile {
  std::string name;

  // --- Fabric (wire) ---
  sim::Duration latency_us = 150;        // one-way propagation delay
  double bandwidth_bytes_per_us = 12.5;  // egress link rate (12.5 B/us = 100 Mb/s)
  std::size_t mtu = 1400;                // max datagram wire payload
  double loss_rate = 0.0;                // per-datagram drop probability

  // --- MochaNet (user-level, interpreted-bytecode protocol library) ---
  sim::Duration mn_msg_cpu_us = 340;    // fixed cost per message, per end
  sim::Duration mn_frag_cpu_us = 830;   // fixed cost per fragment, per end
  double mn_per_byte_us = 1.38;         // per payload byte, per end
  sim::Duration mn_ack_cpu_us = 100;    // cost to process/emit a transport ACK
  sim::Duration mn_rto_us = 50'000;     // retransmit timeout
  int mn_max_retries = 4;
  // Selective retransmission (ablation): when nonzero, receivers NACK the
  // missing fragments of a partial message once its fragment stream has been
  // quiet this long, instead of waiting for the sender's full-message RTO
  // resend. 0 (the default) is the paper's library: whole-message resends.
  sim::Duration mn_nack_delay_us = 0;

  // --- Simulated TCP (kernel-native) ---
  sim::Duration tcp_connect_cpu_us = 3000;  // socket/stream setup, per end
  sim::Duration tcp_close_cpu_us = 1500;    // teardown, per end
  sim::Duration tcp_segment_cpu_us = 100;   // per segment, per end
  std::size_t tcp_mss = 1400;
  std::size_t tcp_window_bytes = 16 * 1024;  // classic 1997 default

  // Fast Ethernet between two ULTRA 1s.
  static NetProfile lan() {
    NetProfile p;
    p.name = "lan";
    p.latency_us = 150;
    p.bandwidth_bytes_per_us = 12.5;  // 100 Mb/s
    p.mn_msg_cpu_us = 340;
    p.mn_frag_cpu_us = 830;
    p.mn_per_byte_us = 2.2;
    return p;
  }

  // 6-mile Internet path, ULTRA 1 <-> SPARCstation 20 (slower host, slower
  // link, higher latency).
  static NetProfile wan() {
    NetProfile p;
    p.name = "wan";
    p.latency_us = 5000;
    p.bandwidth_bytes_per_us = 1.0;   // 8 Mb/s
    p.mn_msg_cpu_us = 650;
    p.mn_frag_cpu_us = 1600;
    p.mn_per_byte_us = 5.05;        // SS20-era interpreted per-byte work
    p.tcp_segment_cpu_us = 600;     // slower kernel path on the WAN hosts
    p.mn_rto_us = 250'000;
    return p;
  }

  // The "more accurate home service environment" of the paper's conclusion:
  // a Windows 95 PC connected via a cable modem to a Unix workstation.
  // Early cable modems: ~2 Mb/s down (we model the symmetric-egress
  // equivalent of the constrained upstream), tens of ms of latency, and a
  // consumer PC noticeably slower than the workstations.
  static NetProfile cable_modem() {
    NetProfile p;
    p.name = "cable";
    p.latency_us = 20'000;            // 20 ms to the head-end and across
    p.bandwidth_bytes_per_us = 0.10;  // ~800 kb/s effective upstream
    p.mn_msg_cpu_us = 900;            // Win95 PC + interpreter
    p.mn_frag_cpu_us = 2200;
    p.mn_per_byte_us = 6.5;
    p.tcp_segment_cpu_us = 800;
    p.mn_rto_us = 400'000;
    return p;
  }

  // Zero-cost instant network for functional unit tests.
  static NetProfile instant() {
    NetProfile p;
    p.name = "instant";
    p.latency_us = 1;
    p.bandwidth_bytes_per_us = 1e9;
    p.mn_msg_cpu_us = 0;
    p.mn_frag_cpu_us = 0;
    p.mn_per_byte_us = 0.0;
    p.mn_ack_cpu_us = 0;
    p.mn_rto_us = 1000;
    p.tcp_connect_cpu_us = 0;
    p.tcp_close_cpu_us = 0;
    p.tcp_segment_cpu_us = 0;
    return p;
  }
};

}  // namespace mocha::net
