// stack_bench: end-to-end benchmark of the sharded durable serving stack.
//
// One client thread drives shard::ShardedDictionary<storage::DurableDictionary>
// in a closed loop (the next call is issued only after the previous one
// returns). Two shards split the key space at 2^63, so a reopen routes every
// key exactly as before; each shard is a DurableDictionary over PosixEnv in
// its own directory, with cola::ingest_tuned(8, 1024), one compaction thread
// and every other DurableConfig field at its default. Threads: the client,
// two shard workers and the one process-wide compaction worker.
//
// Workloads (README.md beside this file says why each exists):
//   ingest  2^21 new keys in 1024-op apply_batch calls into an empty stack,
//           once per 1.25 s of --seconds, each time on a fresh stack.
//   mixed   a loaded and settled 2^21-key store under 200k ops per second of
//           --seconds: 45% hit finds, 45% miss finds, 5% single-op updates
//           and 5% 64-entry scans.
//   churn   a 2^20-key sliding window, 2048 batches per second of --seconds:
//           each batch puts 512 new keys and erases the 512 oldest.
// Every run reads back a seeded sample through finds, scans and updates,
// after reopening the stack (recovery_s) or, between churn slices, on the
// live stack; the op classes a workload's main phase does not issue are
// measured there, so every metric exists on every workload. Mixed takes its
// batch latencies from set-up's loads.
//
// --trace 1 runs the workload twice: untraced, then with the bench-side
// wrappers (TimedShard around each shard, CountingEnv under each
// DurableDictionary) recording spans. Per-layer metrics come from the traced
// pass, and the traced minus untraced end-to-end values are the tracing
// overhead.
//
// Usage:
//   stack_bench --workload ingest|mixed|churn --seed N --seconds S
//               --trace 0|1 --work-dir DIR --out-dir DIR
// The last stdout line is the JSON result.
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cola/cola.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "shard/sharded_dictionary.hpp"
#include "storage/durable_dict.hpp"
#include "storage/posix_env.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace costream;
namespace fs = std::filesystem;
using storage::DurableDictionary;

constexpr std::size_t kShards = 2;
constexpr Key kSplitter = Key{1} << 63;  // equal width: the top bit routes
constexpr std::size_t kBatchOps = 1024;
// 2^21 keys (32 MiB of entries) is 16x a core's 2 MiB L2 and small enough
// that a run repeats ingest 16 times; at 2^23 the DRAM-bound phases moved
// with other tenants' memory traffic by more than the bounds allow.
constexpr std::uint64_t kIngestKeys = std::uint64_t{1} << 21;
constexpr std::uint64_t kMixedKeys = std::uint64_t{1} << 21;
constexpr std::uint64_t kChurnWindow = std::uint64_t{1} << 20;
constexpr std::size_t kChurnHalf = kBatchOps / 2;
constexpr std::size_t kScanLen = 64;
// Set-up repeats at least kSetupReps times and until kSetupMinNs is spent
// (at most kSetupMaxReps), so a cheap set-up is timed often enough for a
// steady median. Ingest, which sets up a fresh stack per cycle, spreads
// these repeats over its cycles.
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 200;
constexpr std::uint64_t kSetupMinNs = 2'000'000'000;
constexpr int kReopenReps = 5;
// Readback: kProbeRounds rounds of one hit find and one miss find, with a
// scan every kProbeEvery rounds and an update every kProbeEvery rounds
// between them. Interleaving spreads every op class over the same seconds,
// so a slow spell on the host shifts them alike; the sizes give every p99
// more than 10 samples past it in each window.
constexpr std::size_t kProbeRounds = 400'000;
constexpr std::size_t kProbeEvery = 8;
constexpr std::size_t kVerifyUpdated = 20'000;
// --seconds sets the amount of work through these nominal rates (about what
// this stack sustains on a 4-core host), never through a clock: the op stream
// is a function of the seed and --seconds alone, and every run of a workload
// ends in the same structural state. Ingest and churn cut their main phase
// into one slice per kSecondsPerSlice and read back a share of the sample
// after each, so a run's read latencies come from its whole length: host
// memory latency drifts over seconds, and a sample taken in one burst at the
// end of a run moved with it by up to a third between runs.
constexpr double kSecondsPerSlice = 1.25;
constexpr double kMixedOpsPerSecond = 200'000;
constexpr double kChurnBatchesPerSecond = 2048;
// A latency percentile is the median of that percentile over up to
// kMaxWindows consecutive windows of at least kMinWindow samples, so a
// burst of interference from other tenants moves one window, not the result.
constexpr std::size_t kMinWindow = 1000;
constexpr std::size_t kMaxWindows = 8;
// Traced runs keep every span except these samples of the read path.
constexpr std::uint64_t kFindSpanEvery = 64;
constexpr std::uint64_t kScanSpanEvery = 4;
constexpr std::uint16_t kAllShards = 0xffff;

// Thread placement on hosts with at least kCpus CPUs: the client on CPU 0,
// shard s's worker (and its recovery) on CPU 1 + s, the compaction worker on
// CPU 3. A thread inherits its creator's CPU mask, so the bench pins itself
// before the library spawns each worker.
constexpr unsigned kCpus = 4;
constexpr int kClientCpu = 0;
constexpr int kCompactionCpu = 3;

bool placement_on() { return std::thread::hardware_concurrency() >= kCpus; }

void pin_self(int cpu) {
  if (!placement_on()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Spawns the process-wide compaction worker on its CPU: the pool grows on
/// the first structure that asks for background compaction.
void place_compaction_worker() {
  pin_self(kCompactionCpu);
  cola::ColaConfig c = cola::ingest_tuned(8, kBatchOps);
  c.compaction_threads = 1;
  { cola::Gcola<> spawn(c); }
  pin_self(kClientCpu);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// -- inputs ---------------------------------------------------------------

/// Keys are mix64 of a seed-salted index. mix64 is a bijection, so disjoint
/// index ranges give disjoint key sets: key(i) for i < N is present, key(i)
/// for i >= N was never written, and the model is a range check.
struct KeySpace {
  std::uint64_t salt;
  explicit KeySpace(std::uint64_t seed)
      : salt(mix64(seed) & ~((std::uint64_t{1} << 40) - 1)) {}
  Key key(std::uint64_t i) const { return mix64(salt | i); }
};

Value base_value(Key k) { return mix64(k ^ 0x6a09e667f3bcc909ULL); }

/// The expected contents: each key's base value plus its update count.
class Model {
 public:
  Value value(Key k) const {
    const auto it = ver_.find(k);
    return base_value(k) + (it == ver_.end() ? 0 : it->second);
  }
  Value bump(Key k) { return base_value(k) + ++ver_[k]; }
  const std::unordered_map<Key, std::uint32_t>& updated() const { return ver_; }
  /// Back to base values only: the store was wiped and loaded afresh.
  void reset_updates() { ver_.clear(); }
  /// Drops the update counts of keys no longer in `sorted`.
  void forget_absent() {
    std::erase_if(ver_, [&](const auto& kv) {
      return !std::binary_search(sorted.begin(), sorted.end(), kv.first);
    });
  }

  /// Present keys in ascending order: the scan oracle.
  std::vector<Key> sorted;

 private:
  std::unordered_map<Key, std::uint32_t> ver_;
};

/// FNV-1a over every op handed to the stack.
class Digest {
 public:
  void add(std::uint64_t kind, Key k, Value v) {
    for (std::uint64_t w : {kind, k, v}) {
      for (int b = 0; b < 8; ++b) {
        h_ = (h_ ^ ((w >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
      }
    }
    ++n_;
  }
  std::string str() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%016llx/%llu ops",
                  static_cast<unsigned long long>(h_),
                  static_cast<unsigned long long>(n_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL, n_ = 0;
};

/// Counts every answer checked and every wrong one.
struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void find(const std::optional<Value>& got, const std::optional<Value>& want) {
    expect(got == want);
  }
  void scan(const std::vector<Entry<>>& got, Key from, const Model& m) {
    auto it = std::lower_bound(m.sorted.begin(), m.sorted.end(), from);
    bool ok = true;
    for (const Entry<>& e : got) {
      if (it == m.sorted.end() || e.key != *it || e.value != m.value(*it)) {
        ok = false;
        break;
      }
      ++it;
    }
    const std::size_t left = static_cast<std::size_t>(m.sorted.end() - it);
    if (got.size() < kScanLen && left > 0) ok = false;  // stopped early
    expect(ok);
  }
};

// -- tracing ----------------------------------------------------------------

/// One timed call. `ref` is the facade op id for client spans and the
/// shard's 1-based job index for worker spans (0 = the publish made while
/// the stack opens); worker spans are linked to the facade call that
/// submitted the job when the trace is written.
struct SpanRec {
  const char* name;
  std::uint64_t t0, t1, ref, n;
  std::uint16_t shard, gen;
  bool top;  // a facade call; everything else has a parent
};

/// Spans kept in memory. The client lane is written by the client thread;
/// worker[s] and env[s] by whichever thread mutates shard s (its worker, or
/// the client behind a drain barrier), so no lane needs a lock.
struct Trace {
  std::vector<SpanRec> client;
  std::array<std::vector<SpanRec>, kShards> worker, env;
  // Per stack generation: the facade op that opened it, and the facade op
  // of every job submitted to each shard, in submission order. The k-th
  // job a shard applies is the k-th one submitted to it, because the
  // splitters are explicit and each shard applies its ring in order.
  std::vector<std::uint64_t> open_op;
  std::vector<std::array<std::vector<std::uint64_t>, kShards>> subs;

  void write_csv(const std::string& path) const;
};

void Trace::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "id,parent,op,name,shard,gen,start_ns,end_ns,n\n";
  std::unordered_map<std::uint64_t, std::size_t> facade_id;  // op -> span id
  for (std::size_t i = 0; i < client.size(); ++i) {
    if (client[i].top) facade_id[client[i].ref] = i;
  }
  auto id_of_op = [&](std::uint64_t op) -> long long {
    const auto it = facade_id.find(op);
    return it == facade_id.end() ? -1 : static_cast<long long>(it->second);
  };
  auto row = [&](std::size_t id, long long parent, std::uint64_t op,
                 const SpanRec& s) {
    out << id << ',' << parent << ',' << op << ',' << s.name << ','
        << (s.shard == kAllShards ? -1 : static_cast<int>(s.shard)) << ','
        << s.gen << ',' << s.t0 << ',' << s.t1 << ',' << s.n << '\n';
  };
  for (std::size_t i = 0; i < client.size(); ++i) {
    row(i, client[i].top ? -1 : id_of_op(client[i].ref), client[i].ref,
        client[i]);
  }
  // Client facade calls never overlap, so a storage call outside every
  // worker span belongs to the one that contains it.
  std::vector<std::size_t> tops;
  for (std::size_t i = 0; i < client.size(); ++i) {
    if (client[i].top) tops.push_back(i);
  }
  std::sort(tops.begin(), tops.end(), [&](std::size_t a, std::size_t b) {
    return client[a].t0 < client[b].t0;
  });
  std::size_t next = client.size();
  std::array<std::size_t, kShards> worker_base{};
  for (std::size_t s = 0; s < kShards; ++s) {
    worker_base[s] = next;
    for (const SpanRec& w : worker[s]) {
      const std::uint64_t op =
          w.ref == 0 ? open_op[w.gen] : subs[w.gen][s][w.ref - 1];
      row(next++, id_of_op(op), op, w);
    }
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::vector<SpanRec>& ws = worker[s];
    for (const SpanRec& e : env[s]) {
      long long parent = -1;
      std::uint64_t op = 0;
      auto w = std::upper_bound(
          ws.begin(), ws.end(), e.t0,
          [](std::uint64_t t, const SpanRec& x) { return t < x.t0; });
      if (w != ws.begin() && (w - 1)->t1 >= e.t1) {
        --w;
        parent = static_cast<long long>(worker_base[s] + (w - ws.begin()));
        op = w->ref == 0 ? open_op[w->gen] : subs[w->gen][s][w->ref - 1];
      } else {
        auto c = std::upper_bound(
            tops.begin(), tops.end(), e.t0,
            [&](std::uint64_t t, std::size_t i) { return t < client[i].t0; });
        if (c != tops.begin() && client[*(c - 1)].t1 >= e.t1) {
          parent = static_cast<long long>(*(c - 1));
          op = client[*(c - 1)].ref;
        }
      }
      row(next++, parent, op, e);
    }
  }
}

/// Bytes appended to store files, by kind.
enum FileKind { kWal = 0, kSegment = 1, kManifest = 2, kOther = 3 };

FileKind kind_of(const std::string& name) {
  if (name.rfind("wal-", 0) == 0) return kWal;
  if (name.rfind("seg-", 0) == 0) return kSegment;
  if (name.rfind("MANIFEST", 0) == 0) return kManifest;
  return kOther;
}

struct EnvCounters {
  std::array<std::uint64_t, 4> appended{};
  std::uint64_t manifest_installs = 0;
  std::uint64_t read_bytes = 0;
};

/// StorageEnv decorator: counts appended bytes by file kind, manifest
/// installs and bytes read, and records every file and directory sync as
/// a span. Forwards everything else unchanged.
class CountingEnv final : public storage::StorageEnv {
 public:
  CountingEnv(std::unique_ptr<storage::StorageEnv> base, Trace* tr,
              std::uint16_t shard, std::uint16_t gen)
      : base_(std::move(base)), tr_(tr), shard_(shard), gen_(gen) {}

  std::unique_ptr<storage::WritableFile> create(const std::string& name) override {
    if (name == storage::kManifestTmpName) ++c_.manifest_installs;
    return std::make_unique<File>(base_->create(name), this, kind_of(name));
  }
  std::unique_ptr<storage::RandomReadFile> open_read(const std::string& name) override {
    return std::make_unique<ReadFile>(base_->open_read(name), this);
  }
  bool exists(const std::string& name) override { return base_->exists(name); }
  std::vector<std::string> list() override { return base_->list(); }
  void rename_file(const std::string& from, const std::string& to) override {
    base_->rename_file(from, to);
  }
  void remove_file(const std::string& name) override { base_->remove_file(name); }
  void truncate_file(const std::string& name, std::uint64_t size) override {
    base_->truncate_file(name, size);
  }
  void sync_dir() override {
    const std::uint64_t t0 = now_ns();
    base_->sync_dir();
    record("env.sync_dir", t0);
  }
  void sleep_us(std::uint64_t us) override { base_->sleep_us(us); }

  const EnvCounters& counters() const { return c_; }

 private:
  class File final : public storage::WritableFile {
   public:
    File(std::unique_ptr<storage::WritableFile> f, CountingEnv* env, FileKind k)
        : f_(std::move(f)), env_(env), kind_(k) {}
    void append(const void* data, std::size_t n) override {
      f_->append(data, n);
      env_->c_.appended[kind_] += n;
    }
    void sync() override {
      const std::uint64_t t0 = now_ns();
      f_->sync();
      env_->record("env.sync", t0);
    }
    std::uint64_t size() const noexcept override { return f_->size(); }
    void truncate_to(std::uint64_t size) override { f_->truncate_to(size); }

   private:
    std::unique_ptr<storage::WritableFile> f_;
    CountingEnv* env_;
    FileKind kind_;
  };

  class ReadFile final : public storage::RandomReadFile {
   public:
    ReadFile(std::unique_ptr<storage::RandomReadFile> f, CountingEnv* env)
        : f_(std::move(f)), env_(env) {}
    std::size_t read(std::uint64_t offset, void* buf, std::size_t n) override {
      const std::size_t got = f_->read(offset, buf, n);
      env_->c_.read_bytes += got;
      return got;
    }
    std::uint64_t size() override { return f_->size(); }

   private:
    std::unique_ptr<storage::RandomReadFile> f_;
    CountingEnv* env_;
  };

  void record(const char* name, std::uint64_t t0) {
    tr_->env[shard_].push_back({name, t0, now_ns(), 0, 0, shard_, gen_, false});
  }

  std::unique_ptr<storage::StorageEnv> base_;
  Trace* tr_;
  std::uint16_t shard_, gen_;
  EnvCounters c_;
};

/// Shard inner for the traced run: forwards the three calls a shard worker
/// makes and times each. It has no publish_view(), so the worker republishes
/// through snapshot() exactly as it does over a bare DurableDictionary.
class TimedShard {
 public:
  TimedShard(DurableDictionary d, Trace* tr, std::uint16_t shard,
             std::uint16_t gen)
      : d_(std::move(d)), tr_(tr), shard_(shard), gen_(gen) {}

  void apply_batch(Span<Op<>> ops) {
    const std::uint64_t t0 = now_ns();
    d_.apply_batch(ops);
    record("durable.apply_batch", t0, ++jobs_, ops.size());
  }
  void flush_stage() {
    const std::uint64_t t0 = now_ns();
    d_.flush_stage();
    record("durable.flush_stage", t0, ++jobs_, 0);
  }
  snap::Snapshot<Key, Value> snapshot() const {
    const std::uint64_t t0 = now_ns();
    snap::Snapshot<Key, Value> s = d_.snapshot();
    record("durable.snapshot", t0, jobs_, 0);
    return s;
  }

  DurableDictionary& durable() { return d_; }
  const DurableDictionary& durable() const { return d_; }

 private:
  void record(const char* name, std::uint64_t t0, std::uint64_t job,
              std::uint64_t n) const {
    tr_->worker[shard_].push_back({name, t0, now_ns(), job, n, shard_, gen_, false});
  }

  DurableDictionary d_;
  Trace* tr_;
  std::uint16_t shard_, gen_;
  std::uint64_t jobs_ = 0;
};

DurableDictionary& durable(DurableDictionary& d) { return d; }
const DurableDictionary& durable(const DurableDictionary& d) { return d; }
DurableDictionary& durable(TimedShard& d) { return d.durable(); }
const DurableDictionary& durable(const TimedShard& d) { return d.durable(); }

// -- statistics -------------------------------------------------------------

/// Nearest-rank percentile.
double pct(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(q * v.size()))) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median over consecutive windows of the q-th percentile (kMinWindow).
double windowed_pct(const std::vector<std::uint64_t>& v, double q) {
  const std::size_t w =
      std::clamp<std::size_t>(v.size() / kMinWindow, 1, kMaxWindows);
  std::vector<double> per;
  for (std::size_t i = 0; i < w; ++i) {
    per.push_back(pct({v.begin() + static_cast<std::ptrdiff_t>(i * v.size() / w),
                       v.begin() + static_cast<std::ptrdiff_t>((i + 1) * v.size() / w)},
                      q));
  }
  return median(per);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

struct Window {
  std::uint64_t t0 = 0, t1 = 0;
  bool has(std::uint64_t t) const { return t >= t0 && t < t1; }
};

/// Cumulative counters of one open stack, summed over shards.
struct Counters {
  std::uint64_t entries_merged = 0, stage_flushes = 0, tombstones_dropped = 0,
                forced_folds = 0;
  std::uint64_t folds_deferred = 0, writer_assists = 0, queue_peak = 0,
                bg_fold_ns = 0;
  std::uint64_t checkpoints = 0, segments_spilled = 0;
  std::uint64_t wal_bytes = 0, seg_bytes = 0, manifest_installs = 0;
  std::uint64_t jobs = 0, calls = 0, finds = 0, find_retries = 0;

  /// Fieldwise `*this - o`, except the queue high-water mark.
  Counters since(const Counters& o) const {
    Counters d = *this;
    d.entries_merged -= o.entries_merged;
    d.stage_flushes -= o.stage_flushes;
    d.tombstones_dropped -= o.tombstones_dropped;
    d.forced_folds -= o.forced_folds;
    d.folds_deferred -= o.folds_deferred;
    d.writer_assists -= o.writer_assists;
    d.bg_fold_ns -= o.bg_fold_ns;
    d.checkpoints -= o.checkpoints;
    d.segments_spilled -= o.segments_spilled;
    d.wal_bytes -= o.wal_bytes;
    d.seg_bytes -= o.seg_bytes;
    d.manifest_installs -= o.manifest_installs;
    d.jobs -= o.jobs;
    d.calls -= o.calls;
    d.finds -= o.finds;
    d.find_retries -= o.find_retries;
    return d;
  }
  void add(const Counters& d) {
    entries_merged += d.entries_merged;
    stage_flushes += d.stage_flushes;
    tombstones_dropped += d.tombstones_dropped;
    forced_folds += d.forced_folds;
    folds_deferred += d.folds_deferred;
    writer_assists += d.writer_assists;
    queue_peak = std::max(queue_peak, d.queue_peak);
    bg_fold_ns += d.bg_fold_ns;
    checkpoints += d.checkpoints;
    segments_spilled += d.segments_spilled;
    wal_bytes += d.wal_bytes;
    seg_bytes += d.seg_bytes;
    manifest_installs += d.manifest_installs;
    jobs += d.jobs;
    calls += d.calls;
    finds += d.finds;
    find_retries += d.find_retries;
  }
};

/// Shape of the structure at the end of the main phase.
struct Shape {
  std::uint64_t items = 0, segments = 0, levels = 0;
};

struct Metric {
  std::string name, unit;
  double value;
};

// Printed and written to the report, but left out of the result line and of
// BENCHMARK.json: over ten seeds their quartile spread on a shared 4-core VM
// reached 0.29-0.49 of the median, wider than any regression bound allowed
// there.
bool unbounded(const Metric& m) {
  return m.name == "batch_p99_us" || m.name == "scan_p99_us" ||
         m.name == "update_p99_us";
}

/// Everything one pass over a workload measured.
struct PassResult {
  std::vector<double> setup_s, recovery_s, rates;  // rates: ops/s per main phase
  std::vector<std::uint64_t> batch_ns, hit_ns, miss_ns, scan_ns, update_ns;
  std::uint64_t main_ns = 0, main_ops = 0;  // summed over main phases
  double disk_bpe = 0, mem_bpe = 0;
  Checker chk;
  Digest setup_digest, main_digest, probe_digest;
  // Traced pass only.
  std::vector<Window> main_wins, read_wins;
  Counters main_ctr, read_ctr;
  std::uint64_t recovery_read_bytes = 0;
  std::uint64_t user_ops = 0, erases = 0, live = 0;
  Shape shape;

  std::vector<Metric> end_to_end() const {
    auto us = [](const std::vector<std::uint64_t>& v, double q) {
      return windowed_pct(v, q) / 1e3;
    };
    return {
        {"setup_s", "s", median(setup_s)},
        {"ops_per_s", "1/s", ratio(static_cast<double>(main_ops), main_ns / 1e9)},
        {"batch_p50_us", "us", us(batch_ns, 0.50)},
        {"batch_p99_us", "us", us(batch_ns, 0.99)},
        {"find_hit_p50_us", "us", us(hit_ns, 0.50)},
        {"find_hit_p99_us", "us", us(hit_ns, 0.99)},
        {"find_miss_p50_us", "us", us(miss_ns, 0.50)},
        {"find_miss_p99_us", "us", us(miss_ns, 0.99)},
        {"scan_p50_us", "us", us(scan_ns, 0.50)},
        {"scan_p99_us", "us", us(scan_ns, 0.99)},
        {"update_p50_us", "us", us(update_ns, 0.50)},
        {"update_p99_us", "us", us(update_ns, 0.99)},
        {"recovery_s", "s", median(recovery_s)},
        {"disk_bytes_per_entry", "B", disk_bpe},
        {"mem_bytes_per_entry", "B", mem_bpe},
    };
  }

  std::vector<Metric> per_layer(const Trace& tr) const;
};

std::vector<Metric> PassResult::per_layer(const Trace& tr) const {
  auto in_any = [](const std::vector<Window>& ws, std::uint64_t t) {
    for (const Window& w : ws) {
      if (w.has(t)) return true;
    }
    return false;
  };
  auto in_main = [&](std::uint64_t t) { return in_any(main_wins, t); };
  const double wall = static_cast<double>(main_ns);
  // Worker lanes over the main phase.
  std::array<double, kShards> busy{};
  std::vector<std::uint64_t> publish_ns, fsync_ns;
  double apply_ns = 0, apply_ops = 0, fsync_total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    for (const SpanRec& w : tr.worker[s]) {
      if (!in_main(w.t0)) continue;
      busy[s] += static_cast<double>(w.t1 - w.t0);
      if (std::strcmp(w.name, "durable.snapshot") == 0) {
        publish_ns.push_back(w.t1 - w.t0);
      } else if (std::strcmp(w.name, "durable.apply_batch") == 0) {
        apply_ns += static_cast<double>(w.t1 - w.t0);
        apply_ops += static_cast<double>(w.n);
      }
    }
    for (const SpanRec& e : tr.env[s]) {
      if (!in_main(e.t0)) continue;
      fsync_ns.push_back(e.t1 - e.t0);
      fsync_total += static_cast<double>(e.t1 - e.t0);
    }
  }
  const double busy_max = *std::max_element(busy.begin(), busy.end());
  double busy_mean = 0;
  for (double b : busy) busy_mean += b / kShards;
  // Client sub-calls of the sampled scans over the read window.
  std::vector<std::uint64_t> drain_ns, acquire_ns, seek_ns;
  double next_ns = 0, nexts = 0;
  for (const SpanRec& c : tr.client) {
    if (!in_any(read_wins, c.t0) || c.top) continue;
    const std::uint64_t d = c.t1 - c.t0;
    if (std::strcmp(c.name, "facade.drain") == 0) drain_ns.push_back(d);
    else if (std::strcmp(c.name, "facade.snapshot") == 0) acquire_ns.push_back(d);
    else if (std::strcmp(c.name, "cursor.seek") == 0) seek_ns.push_back(d);
    else if (std::strcmp(c.name, "cursor.next") == 0) {
      next_ns += static_cast<double>(d);
      nexts += static_cast<double>(c.n);
    }
  }
  const Counters& m = main_ctr;
  const double user_bytes = 16.0 * static_cast<double>(user_ops);
  auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  return {
      {"compactor.assist_ratio", "ratio",
       ratio(d(m.writer_assists), d(m.folds_deferred + m.writer_assists))},
      {"compactor.busy_frac", "ratio", ratio(d(m.bg_fold_ns), wall)},
      {"compactor.folds_deferred", "count", d(m.folds_deferred)},
      {"compactor.writer_assists", "count", d(m.writer_assists)},
      {"compactor.queue_peak", "count", d(m.queue_peak)},
      {"shard.worker_busy_frac", "ratio", ratio(busy_max, wall)},
      {"shard.worker_imbalance", "ratio", ratio(busy_max, busy_mean)},
      {"shard.jobs_per_call", "ratio", ratio(d(m.jobs), d(m.calls))},
      {"shard.publish_us_p50", "us", pct(publish_ns, 0.50) / 1e3},
      {"shard.publish_us_p99", "us", pct(publish_ns, 0.99) / 1e3},
      {"shard.find_retry_ratio", "ratio",
       ratio(d(read_ctr.find_retries), d(read_ctr.finds))},
      {"shard.drain_us_p50", "us", pct(drain_ns, 0.50) / 1e3},
      {"shard.drain_us_p99", "us", pct(drain_ns, 0.99) / 1e3},
      {"storage.apply_us_per_op", "us", ratio(apply_ns / 1e3, apply_ops)},
      {"storage.wal_bytes_per_user_byte", "ratio", ratio(d(m.wal_bytes), user_bytes)},
      {"storage.segment_bytes_per_user_byte", "ratio", ratio(d(m.seg_bytes), user_bytes)},
      {"storage.manifest_installs", "count", d(m.manifest_installs)},
      {"storage.checkpoints", "count", d(m.checkpoints)},
      {"storage.segments_spilled", "count", d(m.segments_spilled)},
      {"storage.fsyncs", "count", d(fsync_ns.size())},
      {"storage.fsync_us_p50", "us", pct(fsync_ns, 0.50) / 1e3},
      {"storage.fsync_us_p99", "us", pct(fsync_ns, 0.99) / 1e3},
      {"storage.sync_busy_frac", "ratio", ratio(fsync_total, wall)},
      {"storage.recovery_read_bytes", "B", d(recovery_read_bytes)},
      {"cola.entries_merged_per_op", "ratio", ratio(d(m.entries_merged), d(user_ops))},
      {"cola.stage_flushes", "count", d(m.stage_flushes)},
      {"cola.tombstones_dropped_per_erase", "ratio",
       ratio(d(m.tombstones_dropped), d(erases))},
      {"cola.forced_folds", "count", d(m.forced_folds)},
      {"cola.items_per_live_entry", "ratio", ratio(d(shape.items), d(live))},
      {"cola.levels", "count", d(shape.levels)},
      {"cola.segments", "count", d(shape.segments)},
      {"snapshot.acquire_us_p50", "us", pct(acquire_ns, 0.50) / 1e3},
      {"snapshot.acquire_us_p99", "us", pct(acquire_ns, 0.99) / 1e3},
      {"snapshot.seek_us_p50", "us", pct(seek_ns, 0.50) / 1e3},
      {"snapshot.next_ns_mean", "ns", ratio(next_ns, nexts)},
  };
}

// -- the stack and the workloads --------------------------------------------

/// Write back every dirty page of the filesystem holding `dir`, so one
/// phase's fsyncs do not wait behind an earlier phase's (or run's) writes.
void quiesce_fs(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

template <class Inner>
class Runner {
  static constexpr bool kTraced = std::is_same_v<Inner, TimedShard>;
  using Stack = shard::ShardedDictionary<Inner>;

 public:
  Runner(std::string workload, std::uint64_t seed, double seconds,
         std::string dir, Trace* tr)
      : workload_(std::move(workload)),
        seed_(seed),
        seconds_(seconds),
        dir_(std::move(dir)),
        tr_(tr),
        ks_(seed),
        probe_rng_(mix64(seed ^ 0x70726f6265ULL)) {}

  ~Runner() {
    stack_.reset();
    fs::remove_all(dir_);
  }

  PassResult run() {
    fs::remove_all(dir_);
    if (workload_ == "ingest") {
      ingest();
    } else if (workload_ == "mixed") {
      mixed();
    } else {
      churn();
    }
    return std::move(r_);
  }

 private:
  // ---- stack lifecycle ----

  std::string shard_dir(std::size_t s) const {
    return dir_ + "/shard-" + std::to_string(s);
  }

  void open() {
    fs::create_directories(dir_);
    const std::uint64_t op = ++ops_;
    const std::uint64_t t0 = now_ns();
    std::uint16_t gen = 0;
    if constexpr (kTraced) {
      gen = static_cast<std::uint16_t>(tr_->open_op.size());
      tr_->open_op.push_back(op);
      tr_->subs.emplace_back();
    }
    shard::ShardedConfig<> cfg;
    cfg.shards = kShards;
    cfg.splitters = {kSplitter};
    stack_ = std::make_unique<Stack>(cfg, [&](std::size_t s) {
      pin_self(1 + static_cast<int>(s));
      storage::DurableConfig dc;
      dc.inner = cola::ingest_tuned(8, kBatchOps);
      dc.inner.compaction_threads = 1;
      std::unique_ptr<storage::StorageEnv> env =
          std::make_unique<storage::PosixEnv>(shard_dir(s));
      if constexpr (kTraced) {
        auto counting = std::make_unique<CountingEnv>(
            std::move(env), tr_, static_cast<std::uint16_t>(s), gen);
        envs_[s] = counting.get();
        return TimedShard(DurableDictionary(std::move(counting), dc), tr_,
                          static_cast<std::uint16_t>(s), gen);
      } else {
        return DurableDictionary(std::move(env), dc);
      }
    });
    pin_self(kClientCpu);
    client_span("stack.open", op, t0, kAllShards, true);
  }

  void close() { stack_.reset(); }

  void wipe() {
    close();
    fs::remove_all(dir_);
  }

  /// Reopen `reps` times; each time is construction until the facade
  /// answers a find.
  void reopen(int reps) {
    for (int i = 0; i < reps; ++i) {
      close();
      const std::uint64_t t0 = now_ns();
      open();
      (void)stack_->find(ks_.key(0));
      r_.recovery_s.push_back((now_ns() - t0) / 1e9);
    }
    if constexpr (kTraced) {
      r_.recovery_read_bytes = 0;  // the last reopen's
      for (std::size_t s = 0; s < kShards; ++s) {
        r_.recovery_read_bytes += envs_[s]->counters().read_bytes;
      }
    }
  }

  // ---- facade calls ----

  void client_span(const char* name, std::uint64_t op, std::uint64_t t0,
                   std::uint16_t shard, bool top, std::uint64_t n = 0) {
    if constexpr (kTraced) {
      tr_->client.push_back({name, t0, now_ns(), op, n, shard,
                             static_cast<std::uint16_t>(tr_->open_op.size() - 1),
                             top});
    }
  }

  void submitted(std::size_t s, std::uint64_t op) {
    if constexpr (kTraced) tr_->subs.back()[s].push_back(op);
  }

  /// Applies one batch; its latency goes to `lat` when given.
  void batch(const std::vector<Op<>>& ops, Digest& dg,
             std::vector<std::uint64_t>* lat) {
    for (const Op<>& o : ops) dg.add(o.erase ? 2 : 1, o.key, o.value);
    const std::uint64_t op = ++ops_;
    const std::uint64_t t0 = now_ns();
    stack_->apply_batch(ops);
    const std::uint64_t t1 = now_ns();
    if (lat != nullptr) lat->push_back(t1 - t0);
    r_.chk.attempted += ops.size();
    if constexpr (kTraced) {
      client_span("facade.apply_batch", op, t0, kAllShards, true, ops.size());
      bool lo = false, hi = false;
      for (const Op<>& o : ops) (o.key < kSplitter ? lo : hi) = true;
      if (lo) submitted(0, op);
      if (hi) submitted(1, op);
    }
  }

  std::uint64_t update(Key k, Value v, Digest& dg) {
    dg.add(1, k, v);
    const std::uint64_t op = ++ops_;
    const std::uint64_t t0 = now_ns();
    stack_->insert(k, v);
    const std::uint64_t t1 = now_ns();
    r_.chk.attempted += 1;
    if constexpr (kTraced) {
      const std::size_t s = k < kSplitter ? 0 : 1;
      client_span("facade.insert", op, t0, static_cast<std::uint16_t>(s), true);
      submitted(s, op);
    }
    return t1 - t0;
  }

  std::uint64_t find(Key k, const std::optional<Value>& want, Digest& dg) {
    dg.add(3, k, 0);
    const std::uint64_t op = ++ops_;
    const std::uint64_t t0 = now_ns();
    const std::optional<Value> got = stack_->find(k);
    const std::uint64_t t1 = now_ns();
    if constexpr (kTraced) {
      if (finds_++ % kFindSpanEvery == 0) {
        client_span("facade.find", op, t0, k < kSplitter ? 0 : 1, true);
      }
    }
    r_.chk.find(got, want);
    return t1 - t0;
  }

  /// One seek plus kScanLen next() calls through a facade cursor. Traced
  /// scans first call drain() and snapshot() themselves, so the cursor's own
  /// snapshot acquisition is a cache hit and each piece has its own span.
  std::uint64_t scan(Key from, Digest& dg) {
    dg.add(4, from, kScanLen);
    const std::uint64_t op = ++ops_;
    scan_buf_.clear();
    const std::uint64_t t0 = now_ns();
    const bool traced = kTraced && scans_++ % kScanSpanEvery == 0;
    if (traced) {
      std::uint64_t t = now_ns();
      stack_->drain();
      client_span("facade.drain", op, t, kAllShards, false);
      t = now_ns();
      (void)stack_->snapshot();
      client_span("facade.snapshot", op, t, kAllShards, false);
    }
    std::uint64_t t = now_ns();
    cursor_.seek(from);
    if (traced) client_span("cursor.seek", op, t, kAllShards, false);
    t = now_ns();
    for (std::size_t i = 0; i < kScanLen && cursor_.valid(); ++i) {
      scan_buf_.push_back(cursor_.entry());
      cursor_.next();
    }
    if (traced) client_span("cursor.next", op, t, kAllShards, false, kScanLen);
    const std::uint64_t t1 = now_ns();
    if (traced) client_span("facade.scan", op, t0, kAllShards, true);
    r_.chk.scan(scan_buf_, from, model_);
    return t1 - t0;
  }

  /// The end of every timed phase: queued jobs applied, WAL synced.
  void drain_sync() {
    const std::uint64_t op = ++ops_;
    const std::uint64_t t0 = now_ns();
    stack_->drain();
    for (std::size_t s = 0; s < kShards; ++s) durable(stack_->shard_mut(s)).sync();
    client_span("stack.drain_sync", op, t0, kAllShards, true);
  }

  void flush_stage() {
    const std::uint64_t op = ++ops_;
    const std::uint64_t t0 = now_ns();
    stack_->flush_stage();
    client_span("facade.flush_stage", op, t0, kAllShards, true);
    for (std::size_t s = 0; s < kShards; ++s) submitted(s, op);
  }

  /// Same segment shape at the start of every measurement.
  void settle() {
    flush_stage();
    const std::uint64_t op = ++ops_;
    const std::uint64_t t0 = now_ns();
    for (std::size_t s = 0; s < kShards; ++s) {
      durable(stack_->shard_mut(s)).inner_mut().drain_compaction();
    }
    client_span("cola.drain_compaction", op, t0, kAllShards, true);
    flush_stage();
  }

  // ---- counters ----

  Counters counters() {
    Counters c;
    for (std::size_t s = 0; s < kShards; ++s) {
      const DurableDictionary& d = durable(stack_->shard(s));
      const cola::ColaStats& cs = d.inner().stats();
      const cola::CompactionStats cc = d.inner().compaction_stats();
      c.entries_merged += cs.entries_merged;
      c.stage_flushes += cs.stage_flushes;
      c.tombstones_dropped += cs.tombstones_dropped;
      c.forced_folds += cs.forced_bottom_folds;
      c.folds_deferred += cc.folds_deferred;
      c.writer_assists += cc.writer_assists;
      c.queue_peak = std::max<std::uint64_t>(c.queue_peak, cc.compaction_queue_peak);
      c.bg_fold_ns += cc.bg_fold_ns;
      c.checkpoints += d.storage_stats().checkpoints;
      c.segments_spilled += d.storage_stats().segments_spilled;
      if constexpr (kTraced) {
        const EnvCounters& e = envs_[s]->counters();
        c.wal_bytes += e.appended[kWal];
        c.seg_bytes += e.appended[kSegment];
        c.manifest_installs += e.manifest_installs;
      }
    }
    const shard::ShardedStats ss = stack_->stats();
    c.jobs = ss.jobs;
    c.calls = ss.batches + ss.singles;
    c.finds = ss.finds;
    c.find_retries = ss.find_retries;
    return c;
  }

  // ---- phases ----

  /// A fresh stack, loaded and settled by `load`, repeated as kSetupReps
  /// and kSetupMinNs ask, or as their share when the run sets up `parts`
  /// times; the last one is kept.
  template <class Load>
  void setup(Load&& load, int parts = 1) {
    const int min_reps = (kSetupReps + parts - 1) / parts;
    const int max_reps = (kSetupMaxReps + parts - 1) / parts;
    const std::uint64_t min_ns = kSetupMinNs / static_cast<std::uint64_t>(parts);
    std::uint64_t spent = 0;
    for (int i = 0; i < max_reps && (i < min_reps || spent < min_ns); ++i) {
      wipe();
      // Each timed open then commits only its own metadata.
      fs::create_directories(dir_);
      quiesce_fs(dir_);
      r_.setup_digest = Digest();
      const std::uint64_t t0 = now_ns();
      open();
      load();
      drain_sync();
      const std::uint64_t t1 = now_ns();
      r_.setup_s.push_back((t1 - t0) / 1e9);
      spent += t1 - t0;
    }
  }

  /// Puts key(i) for i in [0, n) in kBatchOps-op batches.
  void load(std::uint64_t n, Digest& dg, std::vector<std::uint64_t>* lat) {
    std::vector<Op<>> ops(kBatchOps);
    for (std::uint64_t i = 0; i < n; i += kBatchOps) {
      for (std::size_t j = 0; j < kBatchOps; ++j) {
        const Key k = ks_.key(i + j);
        ops[j] = Op<>::put(k, base_value(k));
      }
      batch(ops, dg, lat);
    }
  }

  void begin_main(Counters& at) {
    quiesce_fs(dir_);
    if constexpr (kTraced) at = counters();
    main_t0_ = now_ns();
  }

  /// Closes a main phase that began at main_t0_ (after its drain_sync()).
  void end_main(const Counters& at, std::uint64_t ops) {
    const std::uint64_t t1 = now_ns();
    r_.main_ns += t1 - main_t0_;
    r_.main_ops += ops;
    r_.rates.push_back(ops / ((t1 - main_t0_) / 1e9));
    if constexpr (kTraced) {
      r_.main_wins.push_back({main_t0_, t1});
      r_.main_ctr.add(counters().since(at));
    }
  }

  /// Space and shape after the main phase, over `live` entries.
  void measure_space(std::uint64_t live) {
    r_.live = live;
    r_.shape = {};
    // A fold still in flight would make the figures depend on its timing.
    for (std::size_t s = 0; s < kShards; ++s) {
      durable(stack_->shard_mut(s)).inner_mut().drain_compaction();
    }
    std::uint64_t disk = 0, mem = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      disk += dir_bytes(shard_dir(s));
      const auto& c = durable(stack_->shard(s)).inner();
      mem += c.bytes();
      r_.shape.items += c.item_count();
      r_.shape.levels = std::max<std::uint64_t>(r_.shape.levels, c.level_count());
      for (std::size_t l = 0; l < c.level_count(); ++l) {
        r_.shape.segments += c.level_segment_count(l);
      }
    }
    r_.disk_bpe = ratio(static_cast<double>(disk), static_cast<double>(live));
    r_.mem_bpe = ratio(static_cast<double>(mem), static_cast<double>(live));
  }

  /// Slices of the run: one per kSecondsPerSlice of --seconds.
  int slices() const {
    return std::max(1, static_cast<int>(std::lround(seconds_ / kSecondsPerSlice)));
  }

  void sort_model(std::uint64_t lo, std::uint64_t hi) {
    model_.sorted.resize(hi - lo);
    for (std::uint64_t i = lo; i < hi; ++i) model_.sorted[i - lo] = ks_.key(i);
    std::sort(model_.sorted.begin(), model_.sorted.end());
  }

  /// After a clean close and reopen, or on the live stack between churn
  /// slices: read back `rounds` rounds of a seeded sample of present keys
  /// [lo, hi) and of absent keys drawn by `absent`, scan, then update. The
  /// run's metrics take these latencies only for the op classes its main
  /// phase did not issue (`reads`, `updates`).
  template <class Absent>
  void readback(std::uint64_t lo, std::uint64_t hi, Absent&& absent,
                std::size_t rounds, bool reads, bool updates) {
    Xoshiro256& rng = probe_rng_;
    Digest& dg = r_.probe_digest;
    cursor_ = stack_->make_cursor();
    std::vector<std::uint64_t> sink;
    auto& hit = reads ? r_.hit_ns : sink;
    auto& miss = reads ? r_.miss_ns : sink;
    auto& scn = reads ? r_.scan_ns : sink;
    Counters at;
    if constexpr (kTraced) at = counters();
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < rounds; ++i) {
      const Key k = ks_.key(lo + rng.below(hi - lo));
      hit.push_back(find(k, model_.value(k), dg));
      miss.push_back(find(absent(rng), std::nullopt, dg));
      if (i % kProbeEvery == 0) scn.push_back(scan(rng(), dg));
      if (updates && i % kProbeEvery == kProbeEvery / 2) {
        // Each update starts on an idle stack, as in the mixed workload, so
        // it times the insert call and not the backlog of the ones before.
        const Key u = ks_.key(lo + rng.below(hi - lo));
        r_.update_ns.push_back(update(u, model_.bump(u), dg));
        stack_->drain();
      }
    }
    if (reads) {
      r_.read_wins.push_back({t0, now_ns()});
      if constexpr (kTraced) r_.read_ctr.add(counters().since(at));
    }
    // Read-your-acknowledged-writes on the keys the run updated.
    std::size_t checked = 0;
    for (const auto& kv : model_.updated()) {
      if (checked++ == kVerifyUpdated) break;
      find(kv.first, model_.value(kv.first), dg);
    }
    drain_sync();
  }

  // ---- workloads ----

  /// Each cycle sets up a fresh stack, ingests into it, then reopens it and
  /// reads back its share of the sample, so set-up and read latencies are
  /// drawn from the whole run rather than from a few seconds of it.
  void ingest() {
    const int cycles = slices();
    const int reopens = (kReopenReps + cycles - 1) / cycles;
    sort_model(0, kIngestKeys);
    for (int cycle = 0; cycle < cycles; ++cycle) {
      setup([] {}, cycles);
      model_.reset_updates();
      Digest dg;
      Counters at;
      begin_main(at);
      load(kIngestKeys, dg, &r_.batch_ns);
      drain_sync();
      end_main(at, kIngestKeys);
      r_.main_digest = dg;
      r_.user_ops += kIngestKeys;
      measure_space(kIngestKeys);
      reopen(reopens);
      readback(
          0, kIngestKeys,
          [&](Xoshiro256& rng) { return ks_.key(kIngestKeys + rng.below(kIngestKeys)); },
          kProbeRounds / static_cast<std::size_t>(cycles), true, true);
    }
  }

  /// The main phase issues no batches; batch latencies come from set-up's
  /// loads into an empty stack. After a reopen the store is still read
  /// back, as a check only.
  void mixed() {
    setup([&] {
      load(kMixedKeys, r_.setup_digest, &r_.batch_ns);
      drain_sync();
      settle();
    });
    sort_model(0, kMixedKeys);
    cursor_ = stack_->make_cursor();
    Xoshiro256 rng(mix64(seed_ ^ 0x6d69786564ULL));
    Digest& dg = r_.main_digest;
    Counters at;
    begin_main(at);
    const auto ops = static_cast<std::uint64_t>(seconds_ * kMixedOpsPerSecond);
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t r = rng.below(100);
      if (r < 45) {
        const Key k = ks_.key(rng.below(kMixedKeys));
        r_.hit_ns.push_back(find(k, model_.value(k), dg));
      } else if (r < 90) {
        const Key k = ks_.key(kMixedKeys + rng.below(kMixedKeys));
        r_.miss_ns.push_back(find(k, std::nullopt, dg));
      } else if (r < 95) {
        const Key k = ks_.key(rng.below(kMixedKeys));
        r_.update_ns.push_back(update(k, model_.bump(k), dg));
        ++r_.user_ops;
      } else {
        r_.scan_ns.push_back(scan(rng(), dg));
      }
    }
    drain_sync();
    end_main(at, ops);
    r_.read_wins = r_.main_wins;
    r_.read_ctr = r_.main_ctr;
    measure_space(kMixedKeys);
    reopen(kReopenReps);
    readback(
        0, kMixedKeys,
        [&](Xoshiro256& rng) { return ks_.key(kMixedKeys + rng.below(kMixedKeys)); },
        kProbeRounds, false, false);
  }

  /// The window slides in slices of equal batch counts. After each slice
  /// but the last, the live stack (no reopen, so the slide goes on over the
  /// structure it grew) is read back for its share of the sample; after the
  /// last, the stack is reopened and read back.
  void churn() {
    setup([&] { load(kChurnWindow, r_.setup_digest, nullptr); });
    std::uint64_t lo = 0, hi = kChurnWindow;
    std::vector<Op<>> ops(kBatchOps);
    Digest& dg = r_.main_digest;
    const auto batches =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(seconds_ * kChurnBatchesPerSecond));
    const auto parts = std::min<std::uint64_t>(batches, static_cast<std::uint64_t>(slices()));
    const std::size_t rounds = kProbeRounds / parts;
    // Misses are expired keys: every one must read as absent.
    auto expired = [&](Xoshiro256& rng) { return ks_.key(rng.below(lo)); };
    std::uint64_t b = 0;
    for (std::uint64_t part = 1; part <= parts; ++part) {
      const std::uint64_t end = batches * part / parts;
      const std::uint64_t n = kBatchOps * (end - b);
      Counters at;
      begin_main(at);
      for (; b < end; ++b) {
        for (std::size_t j = 0; j < kChurnHalf; ++j) {
          const Key k = ks_.key(hi + j);
          ops[j] = Op<>::put(k, base_value(k));
          ops[kChurnHalf + j] = Op<>::del(ks_.key(lo + j));
        }
        batch(ops, dg, &r_.batch_ns);
        lo += kChurnHalf;
        hi += kChurnHalf;
      }
      drain_sync();
      end_main(at, n);
      r_.user_ops += n;
      r_.erases += n / 2;
      sort_model(lo, hi);
      model_.forget_absent();
      if (part == parts) {
        measure_space(kChurnWindow);
        reopen(kReopenReps);
      }
      readback(lo, hi, expired, rounds, true, true);
    }
  }

  std::string workload_;
  std::uint64_t seed_;
  double seconds_;
  std::string dir_;
  Trace* tr_;
  KeySpace ks_;
  Model model_;
  PassResult r_;
  std::unique_ptr<Stack> stack_;
  typename Stack::Cursor cursor_;
  std::vector<Entry<>> scan_buf_;
  std::array<CountingEnv*, kShards> envs_{};
  std::uint64_t ops_ = 0;  // facade op ids
  std::uint64_t finds_ = 0, scans_ = 0;  // span sampling counters
  Xoshiro256 probe_rng_;  // one readback stream across every slice
  std::uint64_t main_t0_ = 0;
};

// -- self-test of the checks --------------------------------------------------

/// The checks must count a wrong answer: read back a small stack once with
/// the true model, then with one planted wrong expected value. Returns true
/// when the first pass has no failure and the second has exactly one find
/// failure and at least one scan failure.
bool self_test(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  constexpr std::uint64_t n = 4096;
  const KeySpace ks(7);
  Model m;
  bool ok = false;
  {
    shard::ShardedConfig<> cfg;
    cfg.shards = kShards;
    cfg.splitters = {kSplitter};
    shard::ShardedDictionary<DurableDictionary> st(cfg, [&](std::size_t s) {
      storage::DurableConfig dc;
      dc.inner = cola::ingest_tuned(8, kBatchOps);
      return DurableDictionary(
          std::make_unique<storage::PosixEnv>(dir + "/shard-" + std::to_string(s)),
          dc);
    });
    std::vector<Op<>> ops;
    for (std::uint64_t i = 0; i < n; ++i) {
      ops.push_back(Op<>::put(ks.key(i), base_value(ks.key(i))));
      m.sorted.push_back(ks.key(i));
    }
    st.apply_batch(ops);
    std::sort(m.sorted.begin(), m.sorted.end());
    auto pass = [&](Checker& finds, Checker& scans) {
      for (std::uint64_t i = 0; i < n; ++i) {
        finds.find(st.find(ks.key(i)), m.value(ks.key(i)));
        finds.find(st.find(ks.key(n + i)), std::nullopt);
      }
      auto c = st.make_cursor();
      for (std::size_t i = 0; i < n; i += kScanLen / 2) {
        std::vector<Entry<>> got;
        c.seek(m.sorted[i]);
        for (std::size_t j = 0; j < kScanLen && c.valid(); ++j, c.next()) {
          got.push_back(c.entry());
        }
        scans.scan(got, m.sorted[i], m);
      }
    };
    Checker f0, s0, f1, s1;
    pass(f0, s0);
    m.bump(ks.key(n / 2));  // planted: the model now expects a value never written
    pass(f1, s1);
    ok = f0.failed == 0 && s0.failed == 0 && f1.failed == 1 && s1.failed >= 1;
    std::printf("self-test: true model %llu+%llu failures, planted %llu+%llu -> %s\n",
                static_cast<unsigned long long>(f0.failed),
                static_cast<unsigned long long>(s0.failed),
                static_cast<unsigned long long>(f1.failed),
                static_cast<unsigned long long>(s1.failed),
                ok ? "caught" : "MISSED");
  }
  fs::remove_all(dir);
  return ok;
}

// -- host record ----------------------------------------------------------------

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The filesystem type of the mount that holds `path`.
std::string fs_type(const std::string& path) {
  const std::string p = fs::weakly_canonical(path).string();
  std::ifstream in("/proc/mounts");
  std::string dev, mnt, type, best_type = "unknown", rest;
  std::size_t best = 0;
  while (in >> dev >> mnt >> type && std::getline(in, rest)) {
    const bool under = p.rfind(mnt, 0) == 0 &&
                       (mnt == "/" || p.size() == mnt.size() || p[mnt.size()] == '/');
    if (under && mnt.size() >= best) {
      best = mnt.size();
      best_type = type;
    }
  }
  return best_type;
}

std::string host_json(const std::string& dir) {
  std::string model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        model = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  const std::string cache = "/sys/devices/system/cpu/cpu0/cache/";
  std::string l2 = "unknown", l3 = "unknown";
  for (int i = 0; i < 8; ++i) {
    const std::string idx = cache + "index" + std::to_string(i) + "/";
    const std::string level = read_first_line(idx + "level");
    if (level == "2") l2 = read_first_line(idx + "size");
    if (level == "3") l3 = read_first_line(idx + "size");
  }
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return v == nullptr ? std::string("null") : json_str(v);
  };
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu\": " << json_str(model) << ", \"l2\": " << json_str(l2)
    << ", \"l3\": " << json_str(l3) << ", \"store_fs\": " << json_str(fs_type(dir))
    << ", \"compiler\": " << json_str(__VERSION__)
    << ", \"build_type\": " << json_str(E2E_BUILD_TYPE)
    << ", \"simd\": " << json_str(simd::isa_name(simd::active_isa()))
    << ", \"COSTREAM_SIMD\": " << env("COSTREAM_SIMD")
    << ", \"COSTREAM_COMPACTION\": " << env("COSTREAM_COMPACTION")
    << ", \"threads_pinned\": " << (placement_on() ? "true" : "false")
    << ", \"program_altered\": "
    << (std::getenv("COSTREAM_SIMD") || std::getenv("COSTREAM_COMPACTION") ? "true" : "false")
    << "}";
  return o.str();
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream o;
  o.precision(10);
  o << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    o << (i ? ", " : "") << json_str(ms[i].name) << ": {\"value\": " << ms[i].value
      << ", \"unit\": " << json_str(ms[i].unit) << "}";
  }
  return o.str() + "}";
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

struct Args {
  std::string workload, work_dir, out_dir;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--out-dir") a.out_dir = v;
    else throw std::invalid_argument("unknown argument " + std::string(k));
  }
  if (a.workload != "ingest" && a.workload != "mixed" && a.workload != "churn") {
    throw std::invalid_argument("--workload must be ingest, mixed or churn");
  }
  if (a.work_dir.empty() || a.out_dir.empty() || !(a.seconds > 0)) {
    throw std::invalid_argument("--work-dir, --out-dir and --seconds > 0 are required");
  }
  return a;
}

template <class Inner>
PassResult run_pass(const Args& a, Trace* tr) {
  Runner<Inner> r(a.workload, a.seed, a.seconds, a.work_dir + "/store", tr);
  return r.run();
}

int run(const Args& a) {
  fs::create_directories(a.work_dir);
  fs::create_directories(a.out_dir);
  const std::string host = host_json(a.work_dir);
  std::printf("host %s\n", host.c_str());
  if (!self_test(a.work_dir + "/self-test")) return 2;
  place_compaction_worker();

  std::uint64_t attempted = 0, failed = 0;
  bool threw = false;
  std::vector<Metric> e2e, traced_e2e, layers;
  PassResult res;
  Trace trace;
  try {
    res = run_pass<DurableDictionary>(a, nullptr);
    e2e = res.end_to_end();
    attempted += res.chk.attempted;
    failed += res.chk.failed;
    if (a.trace) {
      const PassResult tres = run_pass<TimedShard>(a, &trace);
      traced_e2e = tres.end_to_end();
      layers = tres.per_layer(trace);
      attempted += tres.chk.attempted;
      failed += tres.chk.failed;
    }
  } catch (const std::exception& ex) {
    std::printf("error: %s\n", ex.what());
    threw = true;
    ++attempted;
    ++failed;
  }
  fs::remove_all(a.work_dir + "/store");

  const std::string tag = a.workload + "-seed" + std::to_string(a.seed);
  std::printf("digest setup %s\n", res.setup_digest.str().c_str());
  std::printf("digest main %s\n", res.main_digest.str().c_str());
  std::printf("digest readback %s\n", res.probe_digest.str().c_str());
  std::printf("ops/s per main phase:");
  for (double r : res.rates) std::printf(" %.4g", r);
  std::printf("\nsamples batch=%zu hit=%zu miss=%zu scan=%zu update=%zu setup=%zu recovery=%zu\n",
              res.batch_ns.size(), res.hit_ns.size(), res.miss_ns.size(),
              res.scan_ns.size(), res.update_ns.size(), res.setup_s.size(),
              res.recovery_s.size());
  const double error_rate = ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("checked %llu answers, %llu wrong or thrown: error_rate %.6g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), error_rate);
  print_table("end-to-end (untraced)", e2e);
  std::vector<Metric> overhead;
  if (a.trace && !threw) {
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      overhead.push_back({e2e[i].name, e2e[i].unit, traced_e2e[i].value - e2e[i].value});
    }
    print_table("tracing overhead (traced - untraced)", overhead);
    print_table("per-layer (traced)", layers);
    trace.write_csv(a.out_dir + "/" + tag + ".spans.csv");
  }
  {
    std::ofstream out(a.out_dir + "/" + tag + "-trace" + (a.trace ? "1" : "0") + ".json");
    out << "{\"workload\": " << json_str(a.workload) << ", \"seed\": " << a.seed
        << ", \"seconds\": " << a.seconds << ", \"host\": " << host
        << ", \"digests\": {\"setup\": " << json_str(res.setup_digest.str())
        << ", \"main\": " << json_str(res.main_digest.str())
        << ", \"readback\": " << json_str(res.probe_digest.str()) << "}"
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"error_rate\": " << error_rate
        << ", \"end_to_end\": " << metrics_json(e2e)
        << ", \"tracing_overhead\": " << metrics_json(overhead)
        << ", \"per_layer\": " << metrics_json(layers) << "}\n";
  }
  if (threw) return 1;
  std::vector<Metric> bounded;
  for (const Metric& m : e2e) {
    if (!unbounded(m)) bounded.push_back(m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(a.trace ? layers : bounded).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "stack_bench: %s\n", ex.what());
    return 1;
  }
}
