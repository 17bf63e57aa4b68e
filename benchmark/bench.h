// mocha_bench — the end-to-end benchmark of the live Mocha runtime.
//
// One binary, three roles:
//
//   serve   hosts N live::LockServer shards (plus each shard's home replica
//           daemon) on live::Endpoints, in its own process. It is driven
//           over a line protocol on stdin/stdout: it prints
//           "ready <port>..." once every shard listens, answers "stats" with
//           one "stats k=v ..." line, and exits on "quit" or end of input.
//   drive   spawns serve, runs one workload's closed-loop application
//           threads against it, checks the recorded history for entry
//           consistency and prints one JSON result line.
//   check   re-checks a history file written by drive (the same checker).
//
// This header holds what the roles share: the counter bag exchanged between
// serve and drive, a fixed-memory latency histogram, and the history format
// with its checker.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "live/daemon.h"
#include "live/endpoint.h"

namespace mocha_bench {

// Named cumulative counters. serve sends its bag over the control pipe;
// drive adds the bag of its own sites and takes deltas over the window.
using Counters = std::map<std::string, double>;

// Transport counters of one endpoint, summed into `out`: messages and
// fragments sent, deliveries, retransmits, NACKs, piggybacked acks, rx
// wakeups and datagrams, and the send->ack histogram's sum and count.
void add_endpoint_counters(const mocha::live::Endpoint& endpoint,
                           Counters& out);
// Replica daemon counters of the daemon on `endpoint`, summed into `out`.
void add_daemon_counters(const mocha::live::DaemonService& daemon,
                         const mocha::live::Endpoint& endpoint, Counters& out);
// Sum and count of the process registry histogram `name`, added under
// `<key>_sum` / `<key>_count`.
void add_registry_histogram(const std::string& name, const std::string& key,
                            Counters& out);
// getrusage(RUSAGE_SELF) of this process (all threads, exited ones too):
// cpu_us, nvcsw, nivcsw; plus the peak RSS, vmhwm_kb, from
// /proc/self/status (ru_maxrss would carry the parent's peak across exec).
void add_process_counters(Counters& out);

// "k=v k=v ..." with full precision, and back.
std::string encode_counters(const Counters& counters);
Counters decode_counters(const std::string& text);

// Log-linear histogram of nanosecond samples: exact below 2048 ns, then 1024
// buckets per power of two (relative error under 0.1%). Fixed memory, so
// the driver's RSS does not grow with the number of operations it times.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record(std::int64_t ns);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  // Midpoint of the bucket holding the ceil(p * count)-th sample; 0 when
  // empty.
  double percentile_ns(double p) const;

 private:
  static std::size_t index_of(std::uint64_t ns);
  static double midpoint_of(std::size_t index);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// History: one line per completed operation, then one counts line.
//
//   op <thread> <lock> <mode> <t_acquired_ns> <t_release_ns> <version>
//      <retried> <replica_version> <replica_writer> <bytes_ok>
//   counts <driver_ops> <server_grants> <server_releases>
//
// mode is 0 (exclusive) or 1 (shared). The hold interval runs from the
// return of acquire() to the call of release(), on the driver's monotonic
// clock, which every application thread shares. version is the version the
// grant carried; retried is 1 when the acquire fell back to the home daemon
// (a weakened grant, paper §4). The replica fields are -1 on workloads
// without replicas; otherwise they are the version and writer stamped in the
// replica header, and whether the whole replica equalled the pattern that
// writer produces for that version. Writer ids are thread + 1; 0 is the
// initial contents.
struct HistoryOp {
  std::int64_t thread = 0;
  std::int64_t lock = 0;
  std::int64_t mode = 0;
  std::int64_t t_acquired_ns = 0;
  std::int64_t t_release_ns = 0;
  std::int64_t version = 0;
  std::int64_t retried = 0;
  std::int64_t replica_version = -1;
  std::int64_t replica_writer = -1;
  std::int64_t bytes_ok = -1;
};

struct History {
  std::vector<HistoryOp> ops;
  bool has_counts = false;
  std::int64_t driver_ops = 0;
  std::int64_t grants = 0;
  std::int64_t releases = 0;
};

std::string format_history_op(const HistoryOp& op);
// False (with `error` set) on an unreadable file or a malformed line.
bool read_history(const std::string& path, History& out, std::string& error);

// Entry-consistency check of a history. Every returned string is one
// violation, prefixed by its kind: "overlap", "stale version",
// "replica bytes" or "count mismatch".
std::vector<std::string> check_history(const History& history);

// Parses "--name value" pairs. False (with `error` set) on a stray word or
// a flag outside `known`.
bool parse_flags(int argc, char** argv, const std::vector<std::string>& known,
                 std::map<std::string, std::string>& flags,
                 std::string& error);

int run_serve(int argc, char** argv);
int run_drive(int argc, char** argv);
int run_check(int argc, char** argv);

}  // namespace mocha_bench
