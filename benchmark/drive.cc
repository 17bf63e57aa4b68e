// The drive role: the only process that generates load.
//
// One run is `cycles` measured cycles that split the run's window between
// them. Each cycle spawns a fresh serve process, builds this process's sites
// (endpoint, optional replica daemon) and one LockClient per application
// thread, and completes a first operation: the time from spawning serve to
// the end of that operation is the cycle's set-up sample. The closed-loop
// application threads then run through a warm-up and the cycle's measured
// window; the cycle drains, writes its history and is torn down. Once every
// cycle is done, each history is checked for entry consistency.
#include <fcntl.h>
#include <spawn.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "live/lock_client.h"
#include "live/shard_map.h"
#include "util/rng.h"

extern char** environ;

namespace mocha_bench {

namespace {

using mocha::live::DaemonService;
using mocha::live::Endpoint;
using mocha::live::LockClient;
using mocha::replica::LockId;
using mocha::replica::LockWireMode;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t deadline) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline)));
}

enum class LockPick {
  kOwn,   // each thread its own lock
  kZipf,  // each op draws from lock_space locks, Zipf(zipf_s)
  kPair,  // thread t of every site shares lock t with its peers
};

struct Workload {
  const char* name;
  std::uint32_t shards;
  std::uint32_t sites;
  int threads_per_site;
  LockPick pick;
  int lock_space;
  double zipf_s;
  double shared_share;         // probability that an op is shared
  std::int64_t spin_ns;        // busy-spin while holding
  std::size_t replica_bytes;   // 0: the driver's sites run no daemon
  double loss_pct;             // inbound netem on every endpoint
  std::int64_t delay_us;
};

// What each workload stresses, and why: benchmark/README.md.
constexpr Workload kWorkloads[] = {
    {"lock_uncontended", 1, 1, 4, LockPick::kOwn, 0, 0.0, 0.0, 0, 0, 0.0, 0},
    {"lock_mixed_hot", 2, 1, 4, LockPick::kZipf, 16, 1.1, 0.8, 20'000, 0, 0.0,
     0},
    {"replica_pingpong", 1, 2, 1, LockPick::kPair, 0, 0.0, 0.0, 0, 256 * 1024,
     0.0, 0},
    {"wan_replica", 1, 2, 2, LockPick::kPair, 0, 0.0, 0.0, 0, 4 * 1024, 1.0,
     5'000},
};

constexpr mocha::net::NodeId kFirstSiteNode = 101;
constexpr mocha::net::NodeId kBootstrapShard = 1;
constexpr const char* kReplicaName = "replica";
constexpr std::size_t kReplicaHeader = 16;  // u64 version | u32 writer | u32 lock
constexpr std::uint64_t kSpanEvery = 16;  // traced run: spans of every 16th op
constexpr std::size_t kMaxSpans = 16384;  // ... up to this many per thread

// The replica contents `writer` produces as `version` of `lock`: a header
// naming all three, then bytes that depend on them and on the seed.
void fill_pattern(mocha::util::Buffer& out, std::size_t size,
                  std::uint64_t seed, std::uint32_t lock, std::uint64_t version,
                  std::uint32_t writer) {
  out.resize(size);
  std::memcpy(out.data(), &version, 8);
  std::memcpy(out.data() + 8, &writer, 4);
  std::memcpy(out.data() + 12, &lock, 4);
  mocha::util::SplitMix64 rng(
      seed ^ mocha::live::shard_hash64((std::uint64_t{lock} << 40) ^
                                       (version << 8) ^ writer));
  for (std::size_t i = kReplicaHeader; i < size; i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, size - i));
  }
}

// Span names of one operation, in the order a traced run writes them.
enum SpanName : std::uint8_t {
  kSpanOp,
  kSpanAcquire,
  kSpanCritical,
  kSpanWrite,
  kSpanRelease,
};
constexpr const char* kSpanNames[] = {"op", "lock_client.acquire",
                                      "critical_section", "daemon.write",
                                      "lock_client.release"};

struct Span {
  std::uint64_t op = 0;
  SpanName name = kSpanOp;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Per-thread layer timings of a traced run.
struct Trace {
  LatencyHistogram grant_wait;     // LockClient::last_grant_latency_us
  LatencyHistogram transfer_wait;  // acquire span minus grant wait
  LatencyHistogram release;
  LatencyHistogram write;
  LatencyHistogram self;  // op span minus its child spans
  double op_ns = 0;
  double trace_ns = 0;  // spent in this bookkeeping
  std::vector<Span> spans;

  // Pools another thread's or cycle's timings (not its spans).
  void merge(const Trace& other) {
    grant_wait.merge(other.grant_wait);
    transfer_wait.merge(other.transfer_wait);
    release.merge(other.release);
    write.merge(other.write);
    self.merge(other.self);
    op_ns += other.op_ns;
    trace_ns += other.trace_ns;
  }
};

// Appends history lines from every thread; threads hand over whole chunks.
class HistoryWriter {
 public:
  explicit HistoryWriter(const std::string& path)
      : file_(std::fopen(path.c_str(), "w")) {}
  ~HistoryWriter() { close(); }
  HistoryWriter(const HistoryWriter&) = delete;
  HistoryWriter& operator=(const HistoryWriter&) = delete;

  bool ok() const { return file_ != nullptr; }
  void append(std::string& chunk) {
    std::lock_guard<std::mutex> guard(mu_);
    if (file_ != nullptr) std::fwrite(chunk.data(), 1, chunk.size(), file_);
    chunk.clear();
  }
  bool close() {
    std::lock_guard<std::mutex> guard(mu_);
    if (file_ == nullptr) return true;
    const bool ok = std::fclose(file_) == 0;
    file_ = nullptr;
    return ok;
  }

 private:
  std::mutex mu_;
  std::FILE* file_;
};

struct Site {
  std::unique_ptr<Endpoint> endpoint;
  std::unique_ptr<DaemonService> daemon;
};

struct Worker {
  int id = 0;
  Site* site = nullptr;
  std::unique_ptr<LockClient> client;
  mocha::util::SplitMix64 rng{0};
  LockId own_lock = 0;
  mocha::util::Buffer expected;  // replica pattern being verified
  mocha::util::Buffer next;      // replica pattern about to be written
  std::string history;           // lines not yet handed to the writer

  std::uint64_t ops = 0;  // completed, whole cycle
  // Measured window only:
  LatencyHistogram acquire;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t window_ops = 0;
  std::uint64_t transfers = 0;
  std::uint64_t retries = 0;
  std::unique_ptr<Trace> trace;
  std::thread thread;
};

struct Run {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::vector<double> zipf_cdf;
  std::int64_t w0 = INT64_MAX;  // measured window [w0, w1), by op start
  std::int64_t w1 = INT64_MAX;
  std::atomic<bool> stop{false};
  HistoryWriter* history = nullptr;
};

LockId pick_lock(Worker& w, const Run& run) {
  if (run.workload->pick != LockPick::kZipf) return w.own_lock;
  const double u = w.rng.next_double() * run.zipf_cdf.back();
  const auto it = std::lower_bound(run.zipf_cdf.begin(), run.zipf_cdf.end(), u);
  return 1 + static_cast<LockId>(std::distance(run.zipf_cdf.begin(), it));
}

// Reads the replica and compares it with the pattern its header claims.
void verify_replica(Worker& w, const Run& run, LockId lock, HistoryOp& rec) {
  const mocha::util::Buffer current = w.site->daemon->read(lock, kReplicaName);
  std::uint64_t version = 0;
  std::uint32_t writer = 0;
  std::uint32_t stamped_lock = 0;
  if (current.size() >= kReplicaHeader) {
    std::memcpy(&version, current.data(), 8);
    std::memcpy(&writer, current.data() + 8, 4);
    std::memcpy(&stamped_lock, current.data() + 12, 4);
  }
  const std::size_t size = run.workload->replica_bytes;
  fill_pattern(w.expected, size, run.seed, lock, version, writer);
  rec.replica_version = static_cast<std::int64_t>(version);
  rec.replica_writer = writer;
  rec.bytes_ok = current.size() == size && stamped_lock == lock &&
                 std::memcmp(current.data(), w.expected.data(), size) == 0;
}

// One acquire -> critical section -> release round. False when the runtime
// returned an error; the thread then stops.
bool do_op(Worker& w, Run& run) {
  const Workload& spec = *run.workload;
  const LockId lock = pick_lock(w, run);
  const bool shared = spec.shared_share > 0 && w.rng.chance(spec.shared_share);
  const bool replica = spec.replica_bytes > 0;
  LockClient& client = *w.client;
  const std::uint64_t pulled_before = client.transfers_pulled();
  const std::uint64_t retries_before = client.transfer_retries();

  const std::int64_t t0 = now_ns();
  const bool in_window = t0 >= run.w0 && t0 < run.w1;
  if (in_window) ++w.attempted;
  const mocha::util::Status acquired = client.acquire(
      lock, shared ? LockWireMode::kShared : LockWireMode::kExclusive);
  const std::int64_t t1 = now_ns();
  if (!acquired.is_ok()) {
    std::fprintf(stderr, "thread %d: acquire of lock %u failed: %s\n", w.id,
                 lock, acquired.to_string().c_str());
    if (in_window) ++w.failed;
    return false;
  }

  HistoryOp rec;
  rec.thread = w.id;
  rec.lock = lock;
  rec.mode = shared ? 1 : 0;
  rec.t_acquired_ns = t1;
  rec.version = static_cast<std::int64_t>(client.version(lock));
  rec.retried = client.transfer_retries() != retries_before;
  if (replica) {
    verify_replica(w, run, lock, rec);
    if (!shared) {
      fill_pattern(w.next, spec.replica_bytes, run.seed, lock,
                   static_cast<std::uint64_t>(rec.version) + 1,
                   static_cast<std::uint32_t>(w.id + 1));
    }
  }
  while (now_ns() - t1 < spec.spin_ns) {
  }
  const std::int64_t tw0 = now_ns();
  if (replica && !shared) {
    w.site->daemon->write(lock, kReplicaName, std::move(w.next));
  }
  const std::int64_t t2 = now_ns();
  rec.t_release_ns = t2;
  const mocha::util::Status released = client.release(lock);
  const std::int64_t t3 = now_ns();
  if (!released.is_ok()) {
    std::fprintf(stderr, "thread %d: release of lock %u failed: %s\n", w.id,
                 lock, released.to_string().c_str());
    if (in_window) ++w.failed;
    return false;
  }

  ++w.ops;
  w.history += format_history_op(rec);
  if (w.history.size() > (1u << 16)) run.history->append(w.history);
  if (in_window) {
    ++w.window_ops;
    w.acquire.record(t1 - t0);
    w.transfers += client.transfers_pulled() - pulled_before;
    w.retries += client.transfer_retries() - retries_before;
  }
  const std::int64_t t_end = now_ns();

  if (w.trace != nullptr && in_window) {
    Trace& tr = *w.trace;
    const std::int64_t grant_ns = client.last_grant_latency_us() * 1000;
    tr.grant_wait.record(grant_ns);
    tr.transfer_wait.record(std::max<std::int64_t>(0, (t1 - t0) - grant_ns));
    tr.release.record(t3 - t2);
    if (replica && !shared) tr.write.record(t2 - tw0);
    // The child spans tile [t0, t3], so the op's self time is what follows.
    tr.self.record(t_end - t3);
    tr.op_ns += static_cast<double>(t_end - t0);
    if (w.window_ops % kSpanEvery == 1 &&
        tr.spans.size() < kMaxSpans) {
      const std::uint64_t op_id =
          (static_cast<std::uint64_t>(w.id) << 40) | w.window_ops;
      tr.spans.push_back({op_id, kSpanOp, t0, t_end});
      tr.spans.push_back({op_id, kSpanAcquire, t0, t1});
      tr.spans.push_back({op_id, kSpanCritical, t1, tw0});
      if (replica && !shared) tr.spans.push_back({op_id, kSpanWrite, tw0, t2});
      tr.spans.push_back({op_id, kSpanRelease, t2, t3});
    }
    tr.trace_ns += static_cast<double>(now_ns() - t_end);
  }
  return true;
}

// One serve process, talked to over its stdin/stdout.
class ServeProcess {
 public:
  ServeProcess() = default;
  ~ServeProcess() { quit(); }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  // Spawns `mocha_bench serve <args>` and blocks until it prints its ports.
  bool spawn(const std::vector<std::string>& args, std::string& error) {
    char exe[4096] = {};
    if (::readlink("/proc/self/exe", exe, sizeof(exe) - 1) <= 0) {
      error = "cannot resolve /proc/self/exe";
      return false;
    }
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    if (::pipe2(to_child, O_CLOEXEC) != 0 ||
        ::pipe2(from_child, O_CLOEXEC) != 0) {
      error = "pipe2 failed";
      return false;
    }
    std::vector<std::string> words = {exe, "serve"};
    words.insert(words.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& word : words) argv.push_back(word.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
    const int rc =
        ::posix_spawn(&pid_, exe, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(to_child[0]);
    ::close(from_child[1]);
    to_child_ = ::fdopen(to_child[1], "w");
    from_child_ = ::fdopen(from_child[0], "r");
    if (rc != 0) {
      pid_ = -1;
      error = std::string("posix_spawn: ") + std::strerror(rc);
      return false;
    }
    const std::string ready = read_line();
    if (ready.rfind("ready ", 0) != 0) {
      error = "serve exited before it was ready";
      return false;
    }
    for (std::size_t pos = 6; pos < ready.size();) {
      char* end = nullptr;
      const unsigned long port = std::strtoul(ready.c_str() + pos, &end, 10);
      if (end == ready.c_str() + pos) break;
      ports.push_back(static_cast<std::uint16_t>(port));
      pos = static_cast<std::size_t>(end - ready.c_str());
    }
    if (ports.empty()) {
      error = "serve reported no ports";
      return false;
    }
    return true;
  }

  Counters stats() {
    if (to_child_ == nullptr) return {};
    std::fputs("stats\n", to_child_);
    std::fflush(to_child_);
    const std::string line = read_line();
    return line.rfind("stats ", 0) == 0 ? decode_counters(line.substr(6))
                                        : Counters{};
  }

  // Asks serve to exit and reaps it; SIGKILL after 5 s.
  void quit() {
    if (to_child_ != nullptr) {
      std::fputs("quit\n", to_child_);
      std::fclose(to_child_);
      to_child_ = nullptr;
    }
    if (pid_ > 0) {
      const std::int64_t deadline = now_ns() + 5'000'000'000;
      int status = 0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (now_ns() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      pid_ = -1;
    }
    if (from_child_ != nullptr) {
      std::fclose(from_child_);
      from_child_ = nullptr;
    }
  }

  std::vector<std::uint16_t> ports;

 private:
  std::string read_line() {
    if (from_child_ == nullptr) return {};
    char* buf = nullptr;
    std::size_t cap = 0;
    const ssize_t n = ::getline(&buf, &cap, from_child_);
    std::string line = n > 0 ? std::string(buf, static_cast<std::size_t>(n))
                             : std::string();
    std::free(buf);
    while (!line.empty() && line.back() == '\n') line.pop_back();
    return line;
  }

  pid_t pid_ = -1;
  std::FILE* to_child_ = nullptr;
  std::FILE* from_child_ = nullptr;
};

// Everything one cycle builds. Members are destroyed in reverse order:
// clients, then sites (daemons before endpoints), then the serve process.
struct Cycle {
  ServeProcess serve;
  std::vector<Site> sites;
  std::vector<std::unique_ptr<Worker>> workers;
};

mocha::live::EndpointOptions endpoint_options(const Workload& spec,
                                              std::uint64_t netem_seed) {
  mocha::live::EndpointOptions opts;
  opts.recv_loss_pct = spec.loss_pct;
  opts.recv_delay_us = spec.delay_us;
  opts.netem_seed = netem_seed;
  return opts;
}

bool set_up(Cycle& cycle, Run& run, int threads_per_site, bool trace,
            std::string& error) {
  const Workload& spec = *run.workload;
  if (!cycle.serve.spawn({"--shards", std::to_string(spec.shards),
                          "--loss-pct", std::to_string(spec.loss_pct),
                          "--delay-us", std::to_string(spec.delay_us),
                          "--netem-seed", std::to_string(run.seed)},
                         error)) {
    return false;
  }

  cycle.sites.resize(spec.sites);
  std::vector<mocha::live::ShardMap> maps(spec.sites);
  for (std::uint32_t s = 0; s < spec.sites; ++s) {
    const mocha::net::NodeId node = kFirstSiteNode + s;
    Site& site = cycle.sites[s];
    site.endpoint = std::make_unique<Endpoint>(
        node, 0,
        endpoint_options(spec, run.seed ^ (0x9e3779b97f4a7c15ull * node)));
    site.endpoint->add_peer(kBootstrapShard, "127.0.0.1",
                            cycle.serve.ports.front());
    mocha::live::LockClientOptions probe_opts;
    probe_opts.reply_port_base = 900;
    LockClient probe(*site.endpoint, kBootstrapShard, probe_opts);
    const mocha::util::Status fetched = probe.fetch_shard_map(5'000'000);
    if (!fetched.is_ok()) {
      error = "shard-map fetch failed: " + fetched.to_string();
      return false;
    }
    maps[s] = probe.shard_map();
    if (spec.replica_bytes > 0) {
      site.daemon = std::make_unique<DaemonService>(*site.endpoint);
      site.daemon->start();
      for (int t = 0; t < threads_per_site; ++t) {
        mocha::util::Buffer initial;
        const auto lock = static_cast<LockId>(1 + t);
        fill_pattern(initial, spec.replica_bytes, run.seed, lock, 0, 0);
        site.daemon->register_replica(lock, kReplicaName, std::move(initial));
      }
    }
  }

  for (std::uint32_t s = 0; s < spec.sites; ++s) {
    for (int t = 0; t < threads_per_site; ++t) {
      auto w = std::make_unique<Worker>();
      w->id = static_cast<int>(s) * threads_per_site + t;
      w->site = &cycle.sites[s];
      mocha::live::LockClientOptions copts;
      copts.reply_port_base = static_cast<mocha::net::Port>(1000 + t * 64);
      copts.nonce_seed = static_cast<std::uint64_t>(copts.reply_port_base)
                         << 32;
      w->client = std::make_unique<LockClient>(*w->site->endpoint,
                                               kBootstrapShard, copts,
                                               w->site->daemon.get());
      w->client->set_shard_map(maps[s]);
      w->rng = mocha::util::SplitMix64(
          run.seed ^ mocha::live::shard_hash64(static_cast<std::uint64_t>(w->id)));
      if (spec.pick == LockPick::kOwn) {
        w->own_lock = static_cast<LockId>(1 + w->id);
      } else if (spec.pick == LockPick::kPair) {
        w->own_lock = static_cast<LockId>(1 + t);
      }
      if (w->own_lock != 0) w->client->register_lock(w->own_lock);
      if (trace) w->trace = std::make_unique<Trace>();
      cycle.workers.push_back(std::move(w));
    }
  }

  if (!do_op(*cycle.workers.front(), run)) {
    error = "first operation failed";
    return false;
  }
  return true;
}

// Waits until every site endpoint has its reliable sends acked, under one
// shared deadline.
void flush_sites(Cycle& cycle) {
  const std::int64_t deadline =
      mocha::live::Clock::monotonic().now_us() + 2'000'000;
  for (Site& site : cycle.sites) {
    const std::int64_t left =
        deadline - mocha::live::Clock::monotonic().now_us();
    if (left <= 0) break;
    site.endpoint->flush(left);
  }
}

void tear_down(Cycle& cycle) {
  flush_sites(cycle);
  cycle.workers.clear();
  for (Site& site : cycle.sites) {
    if (site.daemon != nullptr) site.daemon->stop();
  }
  cycle.sites.clear();
  cycle.serve.quit();
}

void init_run(Run& run, const Workload& spec, std::uint64_t seed) {
  run.workload = &spec;
  run.seed = seed;
  double total = 0;
  for (int i = 0; i < spec.lock_space; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), spec.zipf_s);
    run.zipf_cdf.push_back(total);
  }
}

Counters driver_counters(const Cycle& cycle) {
  Counters out;
  add_process_counters(out);
  for (const Site& site : cycle.sites) {
    add_endpoint_counters(*site.endpoint, out);
    if (site.daemon != nullptr) {
      add_daemon_counters(*site.daemon, *site.endpoint, out);
    }
  }
  return out;
}

double get(const Counters& counters, const std::string& key) {
  const auto it = counters.find(key);
  return it == counters.end() ? 0.0 : it->second;
}

// total += after - before, key by key.
void add_delta(Counters& total, const Counters& after,
               const Counters& before) {
  for (const auto& [key, value] : after) total[key] += value - get(before, key);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_spans(std::FILE* out, int cycle_no, const Cycle& cycle,
                 std::int64_t origin_ns) {
  for (const auto& w : cycle.workers) {
    for (const Span& span : w->trace->spans) {
      std::fprintf(out,
                   "{\"cycle\": %d, \"op\": %llu, \"name\": \"%s\", "
                   "\"parent\": %s, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   cycle_no, static_cast<unsigned long long>(span.op),
                   kSpanNames[span.name],
                   span.name == kSpanOp ? "null" : "\"op\"",
                   static_cast<long long>(span.start_ns - origin_ns),
                   static_cast<long long>(span.end_ns - origin_ns));
    }
  }
}

struct Options {
  int threads_per_site = 1;
  double warmup_s = 1;
  double window_s = 4;
  bool trace = false;
  std::FILE* spans = nullptr;  // traced runs: where spans go
};

// What one measured cycle yields. Counter bags hold deltas over its window.
struct CycleResult {
  double setup_s = 0;
  double ops = 0;  // operations started in the window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t transfers = 0;
  std::uint64_t retries = 0;
  LatencyHistogram acquire;
  Counters driver;
  Counters serve;
  double serve_hwm_kb = 0;
  double max_epoll_batch = 0;
  double srtt_us = 0;  // mean smoothed RTT from the sites to the shards
  std::unique_ptr<Trace> trace;
};

// One cycle: set up (timed), warm up, measure, drain, write the history with
// its counts line, tear down.
bool run_cycle(const Workload& spec, std::uint64_t seed, const Options& opt,
               int cycle_no, const std::string& history_path,
               CycleResult& out, std::string& error) {
  Run run;
  init_run(run, spec, seed);
  HistoryWriter history(history_path);
  if (!history.ok()) {
    error = "cannot write " + history_path;
    return false;
  }
  run.history = &history;
  Cycle cycle;
  const std::int64_t t_spawn = now_ns();
  if (!set_up(cycle, run, opt.threads_per_site, opt.trace, error)) {
    return false;
  }
  out.setup_s = static_cast<double>(now_ns() - t_spawn) / 1e9;

  run.w0 = now_ns() + static_cast<std::int64_t>(opt.warmup_s * 1e9);
  run.w1 = run.w0 + static_cast<std::int64_t>(opt.window_s * 1e9);
  for (auto& w : cycle.workers) {
    Worker* worker = w.get();
    worker->thread = std::thread([worker, &run] {
      while (!run.stop.load(std::memory_order_relaxed) &&
             do_op(*worker, run)) {
      }
    });
  }
  sleep_until_ns(run.w0);
  const Counters driver_before = driver_counters(cycle);
  const Counters serve_before = cycle.serve.stats();
  sleep_until_ns(run.w1);
  const Counters driver_after = driver_counters(cycle);
  const Counters serve_after = cycle.serve.stats();
  int srtt_peers = 0;
  for (const Site& site : cycle.sites) {
    for (std::uint32_t s = 0; s < spec.shards; ++s) {
      out.srtt_us += static_cast<double>(
          site.endpoint->peer_srtt_us(mocha::live::shard_node(s)));
      ++srtt_peers;
    }
  }
  out.srtt_us = ratio(out.srtt_us, srtt_peers);
  run.stop.store(true);
  for (auto& w : cycle.workers) w->thread.join();

  // Releases are fire-and-forget: wait until the server has counted every
  // one before the counts go into the history.
  flush_sites(cycle);
  std::uint64_t driver_ops = 0;
  for (const auto& w : cycle.workers) driver_ops += w->ops;
  Counters served = cycle.serve.stats();
  for (const std::int64_t give_up = now_ns() + 5'000'000'000;
       get(served, "releases") < static_cast<double>(driver_ops) &&
       now_ns() < give_up;
       served = cycle.serve.stats()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& w : cycle.workers) history.append(w->history);
  std::string counts = "counts " + std::to_string(driver_ops) + " " +
                       json_number(get(served, "grants")) + " " +
                       json_number(get(served, "releases")) + "\n";
  history.append(counts);

  if (opt.trace) out.trace = std::make_unique<Trace>();
  for (const auto& w : cycle.workers) {
    out.acquire.merge(w->acquire);
    out.attempted += w->attempted;
    out.failed += w->failed;
    out.ops += static_cast<double>(w->window_ops);
    out.transfers += w->transfers;
    out.retries += w->retries;
    if (opt.trace) out.trace->merge(*w->trace);
  }
  add_delta(out.driver, driver_after, driver_before);
  add_delta(out.serve, serve_after, serve_before);
  out.serve_hwm_kb = get(serve_after, "vmhwm_kb");
  out.max_epoll_batch = get(serve_after, "reactor_max_epoll_batch");
  if (opt.spans != nullptr) write_spans(opt.spans, cycle_no, cycle, run.w0);
  tear_down(cycle);
  if (!history.close()) {
    error = "cannot write " + history_path;
    return false;
  }
  return true;
}

using Metrics = std::vector<std::pair<std::string, double>>;

// Each cycle re-rolls process and thread placement, which moves throughput
// and CPU cost by several percent from one cycle to the next; the medians
// over cycles are what a run reports. acquire_p99_us pools every cycle's
// samples so that it has enough of them beyond it.
Metrics end_to_end_metrics(const std::vector<CycleResult>& cycles,
                           const Options& opt, double driver_hwm_kb) {
  std::vector<double> ops_per_s, p50_us, cpu_us_per_op, setup_s;
  LatencyHistogram pooled;
  double serve_hwm_kb = 0;
  for (const CycleResult& c : cycles) {
    ops_per_s.push_back(c.ops / opt.window_s);
    p50_us.push_back(c.acquire.percentile_ns(0.50) / 1e3);
    cpu_us_per_op.push_back(
        ratio(get(c.driver, "cpu_us") + get(c.serve, "cpu_us"), c.ops));
    setup_s.push_back(c.setup_s);
    pooled.merge(c.acquire);
    serve_hwm_kb = std::max(serve_hwm_kb, c.serve_hwm_kb);
  }
  return {
      {"ops_per_s", median(ops_per_s)},
      {"acquire_p50_us", median(p50_us)},
      {"acquire_p99_us", pooled.percentile_ns(0.99) / 1e3},
      {"cpu_us_per_op", median(cpu_us_per_op)},
      {"setup_s", median(setup_s)},
      {"peak_rss_mb", (driver_hwm_kb + serve_hwm_kb) / 1024.0},
  };
}

// Layer metrics pool every cycle: histograms merge, counters sum.
Metrics layer_metrics(const std::vector<CycleResult>& cycles) {
  Trace total;
  Counters driver;
  Counters serve;
  double ops = 0;
  double transfers = 0;
  double retries = 0;
  double srtt_us = 0;
  double max_epoll_batch = 0;
  for (const CycleResult& c : cycles) {
    total.merge(*c.trace);
    for (const auto& [key, value] : c.driver) driver[key] += value;
    for (const auto& [key, value] : c.serve) serve[key] += value;
    ops += c.ops;
    transfers += static_cast<double>(c.transfers);
    retries += static_cast<double>(c.retries);
    srtt_us += c.srtt_us / static_cast<double>(cycles.size());
    max_epoll_batch = std::max(max_epoll_batch, c.max_epoll_batch);
  }
  const double kops = ops / 1000.0;
  const auto us = [](const LatencyHistogram& h, double p) {
    return h.percentile_ns(p) / 1e3;
  };
  const auto both = [&](const std::string& key) {
    return get(driver, key) + get(serve, key);
  };
  const auto mean = [&](const Counters& bag, const std::string& key) {
    return ratio(get(bag, key + "_sum"), get(bag, key + "_count"));
  };
  Counters all = driver;
  for (const auto& [key, value] : serve) all[key] += value;
  return {
      {"lock_client.grant_wait_us.p50", us(total.grant_wait, 0.50)},
      {"lock_client.grant_wait_us.p99", us(total.grant_wait, 0.99)},
      {"lock_client.transfer_wait_us.p50", us(total.transfer_wait, 0.50)},
      {"lock_client.transfer_wait_us.p99", us(total.transfer_wait, 0.99)},
      {"lock_client.release_us.p50", us(total.release, 0.50)},
      {"lock_client.transfers_per_op", ratio(transfers, ops)},
      {"lock_client.transfer_retries_per_kop", ratio(retries, kops)},
      {"daemon.write_us.p50", us(total.write, 0.50)},
      {"daemon.bundle_send_us.mean", mean(all, "daemon_bundle_send_us")},
      {"daemon.bytes_in_per_op", ratio(both("daemon_bytes_in"), ops)},
      {"daemon.stale_drops", both("daemon_stale_drops")},
      {"transport_backend.fast_share",
       ratio(both("daemon_fast_served"), both("daemon_served"))},
      {"transport_backend.fallbacks", both("daemon_fallbacks")},
      {"endpoint.msgs_per_op", ratio(both("ep_msgs_sent"), ops)},
      {"endpoint.datagrams_per_op", ratio(both("ep_rx_datagrams"), ops)},
      {"endpoint.piggyback_share",
       ratio(both("ep_piggybacked"), both("ep_msgs_delivered"))},
      {"endpoint.rx_datagrams_per_wakeup",
       ratio(both("ep_rx_datagrams"), both("ep_rx_wakeups"))},
      {"endpoint.retransmits_per_kop", ratio(both("ep_retransmits"), kops)},
      {"endpoint.nacks_per_kop", ratio(both("ep_nacks_sent"), kops)},
      {"endpoint.send_ack_us.mean", mean(all, "ep_send_ack_us")},
      {"endpoint.srtt_us", srtt_us},
      {"lock_server.wait_us.mean", mean(serve, "shard_wait_us")},
      {"lock_server.hold_us.mean", mean(serve, "shard_hold_us")},
      {"lock_server.grants_per_op", ratio(get(serve, "grants"), ops)},
      {"reactor.iterations_per_grant",
       ratio(get(serve, "reactor_iterations"), get(serve, "grants"))},
      {"reactor.max_epoll_batch", max_epoll_batch},
      {"reactor.timers_fired_per_kop",
       ratio(get(serve, "reactor_timers_fired"), kops)},
      {"os.server.cpu_us_per_op", ratio(get(serve, "cpu_us"), ops)},
      {"os.driver.cpu_us_per_op", ratio(get(driver, "cpu_us"), ops)},
      {"os.server.vcsw_per_op", ratio(get(serve, "nvcsw"), ops)},
      {"os.driver.vcsw_per_op", ratio(get(driver, "nvcsw"), ops)},
      {"os.server.ivcsw_per_op", ratio(get(serve, "nivcsw"), ops)},
      {"os.driver.ivcsw_per_op", ratio(get(driver, "nivcsw"), ops)},
      {"driver.self_us.p50", us(total.self, 0.50)},
      {"driver.trace_overhead_pct",
       100.0 * ratio(total.trace_ns, total.op_ns)},
  };
}

}  // namespace

int run_drive(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  std::string error;
  if (!parse_flags(argc, argv,
                   {"workload", "seed", "seconds", "warmup", "cycles", "trace",
                    "history", "spans"},
                   flags, error) ||
      !flags.contains("workload") || !flags.contains("history")) {
    std::fprintf(stderr,
                 "usage: mocha_bench drive --workload NAME --history PREFIX "
                 "[--seed N] [--seconds S] [--warmup S] [--cycles K] "
                 "[--trace 0|1] [--spans FILE]%s%s\n",
                 error.empty() ? "" : ": ", error.c_str());
    return 2;
  }
  const auto get_flag = [&](const char* name, const char* fallback) {
    auto it = flags.find(name);
    return it == flags.end() ? std::string(fallback) : it->second;
  };
  const Workload* spec = nullptr;
  for (const Workload& w : kWorkloads) {
    if (flags["workload"] == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "mocha_bench drive: unknown workload '%s'\n",
                 flags["workload"].c_str());
    return 2;
  }
  const std::uint64_t seed =
      std::strtoull(get_flag("seed", "1").c_str(), nullptr, 10);
  const double seconds = std::strtod(get_flag("seconds", "20").c_str(), nullptr);
  const int cycles = std::atoi(get_flag("cycles", "5").c_str());
  Options opt;
  opt.warmup_s = std::strtod(get_flag("warmup", "1").c_str(), nullptr);
  opt.trace = get_flag("trace", "0") == "1";
  if (!(seconds > 0) || opt.warmup_s < 0 || cycles < 1) {
    std::fprintf(stderr, "mocha_bench drive: bad --seconds/--warmup/--cycles\n");
    return 2;
  }
  opt.window_s = seconds / cycles;
  ::signal(SIGPIPE, SIG_IGN);

  // At most min(4, nproc) application threads, split evenly over the sites.
  const long nproc = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  const int cap = static_cast<int>(std::min(4L, nproc));
  opt.threads_per_site =
      std::max(1, std::min(spec->threads_per_site,
                           cap / static_cast<int>(spec->sites)));

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> spans(nullptr, &std::fclose);
  if (opt.trace && flags.contains("spans")) {
    spans.reset(std::fopen(flags["spans"].c_str(), "w"));
    if (spans == nullptr) {
      std::fprintf(stderr, "mocha_bench drive: cannot write %s\n",
                   flags["spans"].c_str());
      return 2;
    }
    opt.spans = spans.get();
  }

  std::vector<CycleResult> results(static_cast<std::size_t>(cycles));
  std::vector<std::string> histories;
  for (int k = 0; k < cycles; ++k) {
    histories.push_back(flags["history"] + "." + std::to_string(k) + ".txt");
    // Each cycle draws its own inputs (lock stream, replica bytes, loss
    // pattern), all derived from --seed.
    const std::uint64_t cycle_seed = mocha::live::shard_hash64(
        seed ^ mocha::live::shard_hash64(static_cast<std::uint64_t>(k)));
    if (!run_cycle(*spec, cycle_seed, opt, k, histories.back(),
                   results[static_cast<std::size_t>(k)], error)) {
      std::fprintf(stderr, "mocha_bench drive: cycle %d: %s\n", k,
                   error.c_str());
      return 1;
    }
  }
  // Peak memory is read before the checks below load the histories.
  Counters self;
  add_process_counters(self);
  const Metrics metrics =
      opt.trace ? layer_metrics(results)
                : end_to_end_metrics(results, opt, get(self, "vmhwm_kb"));

  std::vector<std::string> violations;
  std::size_t history_ops = 0;
  for (int k = 0; k < cycles; ++k) {
    History recorded;
    if (!read_history(histories[static_cast<std::size_t>(k)], recorded,
                      error)) {
      violations.push_back("history unreadable: " + error);
      continue;
    }
    history_ops += recorded.ops.size();
    for (const std::string& v : check_history(recorded)) {
      violations.push_back("cycle " + std::to_string(k) + ": " + v);
    }
  }

  LatencyHistogram pooled;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const CycleResult& c : results) {
    pooled.merge(c.acquire);
    attempted += c.attempted;
    failed += c.failed;
  }
  utsname host{};
  ::uname(&host);
  std::string out =
      "{\"workload\": " + json_string(spec->name) +
      ", \"seed\": " + std::to_string(seed) +
      ", \"trace\": " + (opt.trace ? "1" : "0") +
      ", \"cycles\": " + std::to_string(cycles) +
      ", \"threads\": " +
      std::to_string(opt.threads_per_site * static_cast<int>(spec->sites)) +
      ", \"nproc\": " + std::to_string(nproc) +
      ", \"kernel\": " + json_string(host.release) +
      ", \"compiler\": " + json_string(__VERSION__) +
      ", \"build_type\": " + json_string(MOCHA_BENCH_BUILD_TYPE) +
      ", \"samples\": " + std::to_string(pooled.count()) +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"history_ops\": " + std::to_string(history_ops) +
      ", \"violation_count\": " + std::to_string(violations.size()) +
      ", \"violations\": [";
  for (std::size_t i = 0; i < violations.size() && i < 20; ++i) {
    out += (i == 0 ? "" : ", ") + json_string(violations[i]);
  }
  out += "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].first) + ": " +
           json_number(metrics[i].second);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace mocha_bench
