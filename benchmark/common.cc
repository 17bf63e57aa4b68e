#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "live/telemetry.h"

namespace mocha_bench {

using mocha::live::MetricsRegistry;

void add_registry_histogram(const std::string& name, const std::string& key,
                            Counters& out) {
  const auto snap = MetricsRegistry::global().histogram(name)->snapshot();
  out[key + "_sum"] += static_cast<double>(snap.sum);
  out[key + "_count"] += static_cast<double>(snap.count);
}

void add_endpoint_counters(const mocha::live::Endpoint& endpoint,
                           Counters& out) {
  out["ep_msgs_sent"] += static_cast<double>(endpoint.messages_sent());
  out["ep_msgs_delivered"] +=
      static_cast<double>(endpoint.messages_delivered());
  out["ep_frags_sent"] += static_cast<double>(endpoint.fragments_sent());
  out["ep_retransmits"] += static_cast<double>(endpoint.retransmissions());
  out["ep_nacks_sent"] += static_cast<double>(endpoint.nacks_sent());
  out["ep_piggybacked"] += static_cast<double>(endpoint.acks_piggybacked());
  out["ep_rx_wakeups"] += static_cast<double>(endpoint.rx_batches());
  out["ep_rx_datagrams"] +=
      static_cast<double>(endpoint.rx_batched_datagrams());
  add_registry_histogram("ep." + std::to_string(endpoint.node()) +
                             ".send_ack_us",
                         "ep_send_ack_us", out);
}

void add_daemon_counters(const mocha::live::DaemonService& daemon,
                         const mocha::live::Endpoint& endpoint, Counters& out) {
  const auto stats = daemon.stats();
  out["daemon_served"] += static_cast<double>(stats.transfers_served);
  out["daemon_applied"] += static_cast<double>(stats.transfers_applied);
  out["daemon_stale_drops"] += static_cast<double>(stats.stale_drops);
  out["daemon_fast_served"] += static_cast<double>(stats.bulk_fast_served);
  out["daemon_fallbacks"] += static_cast<double>(stats.bulk_fallbacks);
  const std::string prefix = "daemon." + std::to_string(endpoint.node()) + ".";
  out["daemon_bytes_in"] += static_cast<double>(
      MetricsRegistry::global().counter(prefix + "bytes_in")->value());
  add_registry_histogram(prefix + "bundle_send_us", "daemon_bundle_send_us",
                         out);
}

void add_process_counters(Counters& out) {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  out["cpu_us"] += us(usage.ru_utime) + us(usage.ru_stime);
  out["nvcsw"] += static_cast<double>(usage.ru_nvcsw);
  out["nivcsw"] += static_cast<double>(usage.ru_nivcsw);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out["vmhwm_kb"] += std::strtod(line.c_str() + 6, nullptr);
    }
  }
}

std::string encode_counters(const Counters& counters) {
  std::string text;
  char value[64];
  for (const auto& [name, v] : counters) {
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!text.empty()) text += ' ';
    text += name + "=" + value;
  }
  return text;
}

Counters decode_counters(const std::string& text) {
  Counters counters;
  std::istringstream in(text);
  std::string field;
  while (in >> field) {
    const auto eq = field.find('=');
    if (eq == std::string::npos) continue;
    counters[field.substr(0, eq)] = std::strtod(field.c_str() + eq + 1, nullptr);
  }
  return counters;
}

// ---------------------------------------------------------------------------

namespace {
constexpr int kSubBits = 10;  // 1024 buckets per power of two
constexpr std::uint64_t kSub = 1ull << kSubBits;
constexpr int kMaxExponent = 32;  // samples clamp at ~2^42 ns (~73 min)
constexpr std::size_t kBucketCount = (kMaxExponent + 2) * kSub;
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBucketCount, 0) {}

std::size_t LatencyHistogram::index_of(std::uint64_t ns) {
  // Values below 2^(kSubBits+1) index themselves; above, e = msb - kSubBits
  // and the bucket is e * kSub + (ns >> e), which is in [2 kSub, ...).
  if (ns < 2 * kSub) return static_cast<std::size_t>(ns);
  const int msb = 63 - std::countl_zero(ns);
  const int e = std::min(msb - kSubBits, kMaxExponent);
  const std::uint64_t mantissa = std::min(ns >> e, 2 * kSub - 1);
  return static_cast<std::size_t>(static_cast<std::uint64_t>(e) * kSub +
                                  mantissa);
}

double LatencyHistogram::midpoint_of(std::size_t index) {
  if (index < 2 * kSub) return static_cast<double>(index);
  const std::uint64_t e = index / kSub - 1;
  const std::uint64_t mantissa = index - e * kSub;
  const double lower = static_cast<double>(mantissa << e);
  const double width = static_cast<double>(1ull << e);
  return lower + (width - 1.0) / 2.0;
}

void LatencyHistogram::record(std::int64_t ns) {
  const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
  ++buckets_[index_of(v)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::percentile_ns(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) return midpoint_of(i);
  }
  return midpoint_of(buckets_.size() - 1);
}

// ---------------------------------------------------------------------------

std::string format_history_op(const HistoryOp& op) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "op %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
                " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
                "\n",
                op.thread, op.lock, op.mode, op.t_acquired_ns, op.t_release_ns,
                op.version, op.retried, op.replica_version, op.replica_writer,
                op.bytes_ok);
  return line;
}

bool read_history(const std::string& path, History& out, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    bool ok = false;
    if (kind == "op") {
      HistoryOp op;
      ok = static_cast<bool>(fields >> op.thread >> op.lock >> op.mode >>
                             op.t_acquired_ns >> op.t_release_ns >>
                             op.version >> op.retried >> op.replica_version >>
                             op.replica_writer >> op.bytes_ok) &&
           (op.mode == 0 || op.mode == 1) &&
           op.t_acquired_ns <= op.t_release_ns;
      if (ok) out.ops.push_back(op);
    } else if (kind == "counts") {
      ok = static_cast<bool>(fields >> out.driver_ops >> out.grants >>
                             out.releases);
      out.has_counts = ok;
    }
    if (!ok) {
      error = path + ":" + std::to_string(line_no) + ": malformed line";
      return false;
    }
  }
  return true;
}

std::vector<std::string> check_history(const History& history) {
  std::vector<std::string> violations;
  const auto describe = [](const HistoryOp& op) {
    return "thread " + std::to_string(op.thread) + " " +
           (op.mode == 0 ? "X" : "S") + " [" +
           std::to_string(op.t_acquired_ns) + ", " +
           std::to_string(op.t_release_ns) + "] v" +
           std::to_string(op.version);
  };

  std::map<std::int64_t, std::vector<const HistoryOp*>> by_lock;
  for (const HistoryOp& op : history.ops) by_lock[op.lock].push_back(&op);

  for (auto& [lock, ops] : by_lock) {
    std::stable_sort(ops.begin(), ops.end(),
                     [](const HistoryOp* a, const HistoryOp* b) {
                       return a->t_acquired_ns < b->t_acquired_ns;
                     });
    const std::string where = "lock " + std::to_string(lock) + ": ";

    // Overlap sweep in acquire order: an exclusive hold may not start before
    // every earlier hold has ended; a shared one may not start before every
    // earlier exclusive hold has ended.
    const HistoryOp* last_any = nullptr;        // latest-ending earlier hold
    const HistoryOp* last_exclusive = nullptr;  // latest-ending exclusive
    for (const HistoryOp* op : ops) {
      const HistoryOp* conflict = op->mode == 0 ? last_any : last_exclusive;
      if (conflict != nullptr &&
          op->t_acquired_ns < conflict->t_release_ns) {
        violations.push_back("overlap: " + where + describe(*conflict) +
                             " and " + describe(*op));
      }
      if (last_any == nullptr || op->t_release_ns > last_any->t_release_ns) {
        last_any = op;
      }
      if (op->mode == 0 && (last_exclusive == nullptr ||
                            op->t_release_ns > last_exclusive->t_release_ns)) {
        last_exclusive = op;
      }
    }

    // Version chain: every acquire observes the version the last exclusive
    // release published (each exclusive release publishes version + 1). A
    // weakened grant may observe an older one, and only then.
    std::int64_t current = 0;
    std::map<std::int64_t, std::int64_t> writer_of{{0, 0}};
    for (const HistoryOp* op : ops) {
      const bool weakened_ok = op->retried != 0 && op->version < current;
      if (op->version != current && !weakened_ok) {
        violations.push_back("stale version: " + where + describe(*op) +
                             " but the last release published v" +
                             std::to_string(current));
      }
      if (op->replica_version >= 0) {
        const auto writer = writer_of.find(op->version);
        const bool bytes_match =
            op->bytes_ok == 1 && op->replica_version == op->version &&
            writer != writer_of.end() && op->replica_writer == writer->second;
        if (!bytes_match) {
          violations.push_back(
              "replica bytes: " + where + describe(*op) + " read v" +
              std::to_string(op->replica_version) + " by writer " +
              std::to_string(op->replica_writer) +
              (op->bytes_ok == 1 ? "" : " with contents that differ from it") +
              ", expected the writer of v" + std::to_string(op->version));
        }
      }
      if (op->mode == 0) {
        current = op->version + 1;
        writer_of[current] = op->thread + 1;
      }
    }
  }

  const auto ops = static_cast<std::int64_t>(history.ops.size());
  if (!history.has_counts) {
    violations.push_back("count mismatch: history has no counts line");
  } else if (ops != history.driver_ops || history.grants != ops ||
             history.releases != ops) {
    violations.push_back(
        "count mismatch: " + std::to_string(ops) + " ops recorded, driver "
        "counted " + std::to_string(history.driver_ops) + ", server granted " +
        std::to_string(history.grants) + " and released " +
        std::to_string(history.releases));
  }
  return violations;
}

bool parse_flags(int argc, char** argv, const std::vector<std::string>& known,
                 std::map<std::string, std::string>& flags,
                 std::string& error) {
  for (int i = 0; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc ||
        std::find(known.begin(), known.end(), arg.substr(2)) == known.end()) {
      error = "unexpected argument '" + arg + "'";
      return false;
    }
    flags[arg.substr(2)] = argv[i + 1];
  }
  return true;
}

int run_check(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: mocha_bench check HISTORY_FILE\n");
    return 2;
  }
  History history;
  std::string error;
  if (!read_history(argv[0], history, error)) {
    std::fprintf(stderr, "mocha_bench check: %s\n", error.c_str());
    return 2;
  }
  const auto violations = check_history(history);
  for (const std::string& v : violations) std::printf("%s\n", v.c_str());
  std::printf("%zu ops checked, %zu violation(s)\n", history.ops.size(),
              violations.size());
  return violations.empty() ? 0 : 1;
}

}  // namespace mocha_bench
