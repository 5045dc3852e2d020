// The tiered COLA's one fold engine, and the process-shared executor that
// can run it off the mutating thread.
//
// One fold path. Every tiered fold — the cascade drain, the forced
// retention fold, the checkpoint — is a FoldJob. The writer plans it
// (cola.hpp's plan_fold: inputs gathered oldest -> newest with their DAM
// read charges, the strip decision, the consumed spill ids, the reserved
// segment id); the job runs collapse() (pairwise rounds below
// kKwayCutoff, a one-pass loser-tree k-way merge at or above it), strips
// tombstones when the fold lands past all older data, and mints the
// output's Bloom filter; the writer installs the output (cola.hpp's
// install). Inline and background folds differ only in where the job
// runs: on the writer right away, or on this pool with the install at the
// writer's next mutation. Either way every STRUCTURAL mutation stays on
// the writer thread — the job only computes over immutable inputs, never
// touching the owning Gcola — so single-writer discipline holds end to
// end and the durable tier's WAL-synced-before-install invariant holds
// for free: the spill observer still fires on the writer, inside a
// mutator.
//
// Intra-fold parallelism. With ways > 1, a k-way fold is cut at key pivots
// (taken from the largest input run) into independent sub-ranges: every
// input span is split at the pivots with a lower_bound per cut, so all
// copies of a key land in the same sub-range and the newest-wins
// tie-break (higher span index wins) is preserved per sub-range.
// Sub-merges run on the pool with the SUBMITTING thread participating (it
// claims unclaimed sub-tasks), so nested parallelism can never deadlock
// the pool.
//
// One pool per process. Every Gcola — including the S shards of a
// ShardedDictionary — shares Pool::instance(), sized to the LARGEST
// compaction_threads any structure asked for (capped at the hardware
// thread count), so S shards with 2 compaction threads each contend for
// one bounded pool instead of oversubscribing S*2 cores. The queue is
// bounded; a saturated queue rejects the submit and the writer folds
// inline (writer-assist backpressure — compaction debt can never grow
// unboundedly). Forced folds (tombstone/staleness pressure) jump the
// queue: they are the retention policy's correctness valve, not an
// optimization.
//
// COSTREAM_COMPACTION=sync is the escape hatch: it clamps every structure
// to inline folds, which must be (and is CI-verified to be) behaviorally
// identical to background mode on the differential suites.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "cola/kernels.hpp"
#include "common/filter.hpp"
#include "common/loser_tree.hpp"
#include "common/simd.hpp"
#include "common/snapshot.hpp"

namespace costream::cola::compact {

/// Process-wide escape hatch: COSTREAM_COMPACTION=sync forces every fold
/// inline regardless of configuration (differential CI, bisection).
inline bool sync_forced() noexcept {
  static const bool v = [] {
    const char* e = std::getenv("COSTREAM_COMPACTION");
    return e != nullptr && std::string_view(e) == "sync";
  }();
  return v;
}

/// The process-shared compaction pool: grow-only worker set, bounded
/// two-priority queue, and a cooperative batch runner for intra-fold
/// sub-merges. Thread-safe; one instance per process (leaked on purpose —
/// detached workers live until process exit, so no static-destruction
/// join ordering problems).
class Pool {
 public:
  static Pool& instance() {
    static Pool* p = new Pool();  // intentionally leaked (reachable)
    return *p;
  }

  /// Grow the worker set to at least n threads (capped at the hardware
  /// thread count). Called from every Gcola constructor that enables
  /// background compaction, so the pool is sized to the largest request.
  void ensure_threads(unsigned n) {
    if (n == 0) return;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    n = std::min(n, hw);
    std::lock_guard<std::mutex> lk(m_);
    while (workers_ < n) {
      spawn_worker();
      ++workers_;
    }
  }

  unsigned threads() const {
    std::lock_guard<std::mutex> lk(m_);
    return workers_;
  }

  /// Enqueue a job runner. Returns false when there are no workers or the
  /// queue is saturated — the caller must then run the work inline
  /// (writer-assist backpressure). `forced` jobs (retention-pressure
  /// folds) jump the queue and ignore the bound: there is at most one
  /// in-flight fold per structure, so forced depth is bounded by the
  /// number of live structures. `depth_out`, when non-null, receives the
  /// queue depth right after the push (per-structure peak tracking).
  bool submit(std::function<void()> fn, bool forced,
              std::uint64_t* depth_out) {
    {
      std::lock_guard<std::mutex> lk(m_);
      if (workers_ == 0) return false;
      if (!forced && q_.size() >= queue_cap()) return false;
      if (forced) {
        q_.push_front(std::move(fn));
      } else {
        q_.push_back(std::move(fn));
      }
      queue_peak_ = std::max<std::uint64_t>(queue_peak_, q_.size());
      if (depth_out != nullptr) *depth_out = q_.size();
    }
    cv_.notify_one();
    return true;
  }

  /// Run `tasks` to completion using idle workers AND the calling thread:
  /// the caller claims unclaimed tasks itself, so this completes even when
  /// every worker is busy (including when the caller IS a worker running a
  /// fold that fans out sub-merges — nested use cannot deadlock).
  void run_batch(std::vector<std::function<void()>>& tasks) {
    const std::size_t n = tasks.size();
    if (n == 0) return;
    if (n == 1) {
      tasks[0]();
      return;
    }
    auto batch = std::make_shared<Batch>();
    batch->tasks = &tasks;
    batch->n = n;
    std::size_t helpers = 0;
    {
      std::lock_guard<std::mutex> lk(m_);
      helpers = std::min<std::size_t>(workers_, n - 1);
      for (std::size_t i = 0; i < helpers; ++i) {
        // Front of the queue: sub-merges extend a fold already holding a
        // worker; starving them behind whole queued folds inverts priority.
        q_.push_front([batch] { batch->drain(); });
      }
      queue_peak_ = std::max<std::uint64_t>(queue_peak_, q_.size());
    }
    if (helpers > 0) cv_.notify_all();
    batch->drain();
    batch->wait();
  }

  /// High-water queue depth since process start (observability).
  std::uint64_t queue_peak() const {
    std::lock_guard<std::mutex> lk(m_);
    return queue_peak_;
  }

 private:
  Pool() = default;

  struct Batch {
    std::vector<std::function<void()>>* tasks = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex m;
    std::condition_variable cv;

    void drain() {
      for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
        (*tasks)[i]();
        if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
          std::lock_guard<std::mutex> lk(m);
          cv.notify_all();
        }
      }
    }
    void wait() {
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return done.load(std::memory_order_acquire) >= n; });
    }
  };

  std::size_t queue_cap() const { return 2 * workers_ + 2; }

  void spawn_worker() {
    std::thread([this] {
      for (;;) {
        std::function<void()> fn;
        {
          std::unique_lock<std::mutex> lk(m_);
          cv_.wait(lk, [&] { return !q_.empty(); });
          fn = std::move(q_.front());
          q_.pop_front();
        }
        fn();
      }
    }).detach();
  }

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> q_;
  unsigned workers_ = 0;
  std::uint64_t queue_peak_ = 0;
};

// Folds of at least this many input elements run the one-pass k-way merge
// (~1.5 MiB of 24-byte items: past L2, where pairwise rounds would stream
// the whole fold through DRAM log2(#spans) times); smaller folds run
// pairwise rounds in cache. The same size gates range partitioning: below
// it the partition bookkeeping costs more than it buys.
inline constexpr std::size_t kKwayCutoff = std::size_t{1} << 16;

/// Reusable collapse scratch. The writer's inline job keeps one across
/// folds, so its merges stop allocating once capacities reach their high
/// water; every background job and every range part owns its own, so
/// concurrent merges never share buffers.
template <class K, class V>
struct FoldScratch {
  kern::RunBuf<K, V> tmp;
  std::vector<std::uint32_t> runs, runs_scratch;
  LoserTree<K> tree;
  std::vector<std::size_t> pos;
};

namespace detail {

/// Balanced pairwise rounds: round zero merges adjacent span pairs straight
/// from their source locations (so the gather pass and the first merge
/// round are the same pass), then kern::collapse_runs halves the run count
/// per round. Returns the final round's drop count — keys present in both
/// of its inputs, at most the fold's distinct duplicated keys.
template <class K, class V>
std::uint64_t collapse_pairwise(const std::vector<kern::RunView<K, V>>& spans,
                                std::size_t total, simd::Isa isa,
                                kern::RunBuf<K, V>& out, FoldScratch<K, V>& s) {
  out.resize(total);
  s.runs.clear();
  std::size_t w = 0;
  for (std::size_t i = 0; i < spans.size(); i += 2) {
    s.runs.push_back(static_cast<std::uint32_t>(w));
    if (i + 1 >= spans.size()) {  // odd span out: carry over
      std::copy_n(spans[i].keys, spans[i].n, out.keys.data() + w);
      std::copy_n(spans[i].vals, spans[i].n, out.vals.data() + w);
      std::copy_n(spans[i].flags, spans[i].n, out.flags.data() + w);
      w += spans[i].n;
      break;
    }
    w += kern::merge_pair_newest_wins(
        spans[i].keys, spans[i].vals, spans[i].flags, spans[i].n,
        spans[i + 1].keys, spans[i + 1].vals, spans[i + 1].flags,
        spans[i + 1].n, out.keys.data() + w, out.vals.data() + w,
        out.flags.data() + w, isa);
  }
  out.resize(w);
  // Two spans: the gather round above WAS the final round.
  std::uint64_t dups = spans.size() <= 2 ? total - w : 0;
  kern::collapse_runs(out, s.runs, s.tmp, s.runs_scratch, isa, &dups);
  return dups;
}

/// One-pass k-way merge on the cached-key loser tree: each emitted element
/// costs one source read plus log2(#spans) compares on in-cache key copies,
/// so big DRAM-resident folds are bandwidth-bound, not latency-bound. Leaf
/// i holds span n-1-i: the tree breaks key ties toward the smaller leaf,
/// i.e. the NEWER span, so a key's copies pop newest-first and dedup is a
/// last-emitted-key compare. Returns the exact number of distinct
/// duplicated keys (a key's drops count once).
template <class K, class V>
std::uint64_t collapse_kway(const std::vector<kern::RunView<K, V>>& spans,
                            std::size_t total, kern::RunBuf<K, V>& out,
                            FoldScratch<K, V>& s) {
  const std::size_t ns = spans.size();
  out.resize(total);
  s.pos.assign(ns, 0);
  s.tree.reset(ns);
  for (std::size_t leaf = 0; leaf < ns; ++leaf) {
    const kern::RunView<K, V>& sp = spans[ns - 1 - leaf];
    if (sp.n != 0) s.tree.declare(leaf, sp.keys[0]);
  }
  s.tree.build();
  K* wk = out.keys.data();
  V* wv = out.vals.data();
  std::uint8_t* wf = out.flags.data();
  std::size_t w = 0;
  std::uint64_t distinct_dups = 0;
  bool cur_key_dropped = false;
  while (s.tree.top_alive()) {
    const std::size_t leaf = s.tree.top();
    const kern::RunView<K, V>& sp = spans[ns - 1 - leaf];
    std::size_t& p = s.pos[leaf];
    const K& k = sp.keys[p];
    if (w == 0 || wk[w - 1] < k) {
      wk[w] = k;
      wv[w] = sp.vals[p];
      wf[w] = sp.flags[p];
      ++w;
      cur_key_dropped = false;
    } else if (!cur_key_dropped) {  // older copy of the key just emitted
      ++distinct_dups;
      cur_key_dropped = true;
    }
    ++p;
    if (p != sp.n) {
      s.tree.replay(true, sp.keys[p]);
    } else {
      s.tree.replay(false, K{});
    }
  }
  out.resize(w);
  return distinct_dups;
}

/// Single-threaded collapse: a lone span copies straight through.
template <class K, class V>
std::uint64_t collapse_serial(const std::vector<kern::RunView<K, V>>& spans,
                              std::size_t total, bool kway, simd::Isa isa,
                              kern::RunBuf<K, V>& out, FoldScratch<K, V>& s) {
  if (spans.size() <= 1) {
    out.clear();
    if (!spans.empty()) out.assign(spans[0]);
    return 0;
  }
  return kway ? collapse_kway(spans, total, out, s)
              : collapse_pairwise(spans, total, isa, out, s);
}

}  // namespace detail

/// THE fold collapse: newest-wins merge of sorted `spans` (ordered oldest
/// -> newest, `total` elements in all) into `out`. Returns the fold's
/// duplicate sample for the staleness estimator: the exact count of
/// distinct duplicated keys on the k-way path, a lower bound of it on the
/// pairwise path. The shape follows from the fold's size and `ways` alone:
///   * total < kKwayCutoff: pairwise rounds;
///   * otherwise the k-way merge, and with ways > 1 the key range is first
///     cut at pivots drawn from the largest span into up to `ways` disjoint
///     sub-ranges — every span split at the same pivots by lower_bound, so
///     all copies of a key share a sub-range and the newest-wins tie-break
///     is untouched — merged independently on the pool and stitched back
///     in key order. Keys never straddle a cut, so the parts' samples sum
///     to the serial merge's.
template <class K, class V>
std::uint64_t collapse(const std::vector<kern::RunView<K, V>>& spans,
                       std::size_t total, unsigned ways, simd::Isa isa,
                       kern::RunBuf<K, V>& out, FoldScratch<K, V>& scratch) {
  const bool kway = total >= kKwayCutoff;
  if (!kway || ways <= 1 || spans.size() < 2) {
    return detail::collapse_serial(spans, total, kway, isa, out, scratch);
  }
  // Pivots: evenly spaced keys of the largest span (the best single proxy
  // for the fold's key distribution). Equal pivots collapse, so skewed
  // inputs degrade to fewer, larger sub-ranges — never to wrong ones.
  std::size_t largest = 0;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].n > spans[largest].n) largest = i;
  }
  std::vector<K> pivots;
  for (unsigned p = 1; p < ways; ++p) {
    const K& k = spans[largest].keys[spans[largest].n * p / ways];
    if (pivots.empty() || pivots.back() < k) pivots.push_back(k);
  }
  if (pivots.empty()) {
    return detail::collapse_serial(spans, total, kway, isa, out, scratch);
  }
  const std::size_t parts = pivots.size() + 1;
  struct Part {
    std::vector<kern::RunView<K, V>> spans;
    std::size_t total = 0;
    kern::RunBuf<K, V> out;
    FoldScratch<K, V> scratch;
    std::uint64_t dups = 0;
  };
  std::vector<Part> part(parts);
  // lower_bound at each pivot sends every copy of the pivot key right,
  // uniformly across spans; empty sub-spans are skipped, the rest keep
  // their recency order.
  for (const kern::RunView<K, V>& sp : spans) {
    std::size_t b = 0;
    for (std::size_t p = 0; p < parts; ++p) {
      const std::size_t e =
          p + 1 < parts
              ? static_cast<std::size_t>(
                    std::lower_bound(sp.keys, sp.keys + sp.n, pivots[p]) -
                    sp.keys)
              : sp.n;
      if (b != e) {
        part[p].spans.push_back(kern::RunView<K, V>{
            sp.keys + b, sp.vals + b, sp.flags + b, e - b});
        part[p].total += e - b;
      }
      b = e;
    }
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(parts);
  for (Part& pp : part) {
    tasks.push_back([&pp, isa] {
      pp.dups = detail::collapse_serial(pp.spans, pp.total, /*kway=*/true,
                                        isa, pp.out, pp.scratch);
    });
  }
  Pool::instance().run_batch(tasks);
  std::size_t w = 0;
  std::uint64_t dups = 0;
  for (const Part& pp : part) {
    w += pp.out.size();
    dups += pp.dups;
  }
  out.resize(w);
  std::size_t at = 0;
  for (const Part& pp : part) {
    std::copy_n(pp.out.keys.data(), pp.out.size(), out.keys.data() + at);
    std::copy_n(pp.out.vals.data(), pp.out.size(), out.vals.data() + at);
    std::copy_n(pp.out.flags.data(), pp.out.size(), out.flags.data() + at);
    at += pp.out.size();
  }
  return dups;
}

/// THE tombstone strip: drop tombstones from `run` in place (used when a
/// fold lands past all older data, so no older copy can resurface).
/// Returns how many were dropped.
template <class K, class V>
std::uint64_t strip_tombstones(kern::RunBuf<K, V>& run) {
  constexpr std::uint8_t kTomb =
      static_cast<std::uint8_t>(snap::Item<K, V>::kFlagTombstone);
  std::size_t w = 0;
  for (std::size_t r = 0; r < run.size(); ++r) {
    if ((run.flags[r] & kTomb) != 0) continue;
    run.keys[w] = run.keys[r];
    run.vals[w] = run.vals[r];
    run.flags[w] = run.flags[r];
    ++w;
  }
  const std::uint64_t dropped = run.size() - w;
  run.resize(w);
  return dropped;
}

/// Every tiered fold. The writer fills the plan half (pinned input
/// segments, the spans to read, the strip decision) and then either calls
/// fold() itself — an inline fold — or submits run() to the pool. The job
/// NEVER touches the owning structure: it reads its spans and writes only
/// its own buffers, so a pool-run job is safe regardless of what the
/// writer does — including destroying the structure (the pool's shared_ptr
/// keeps the job alive; its segment refs keep the inputs alive). A tiny
/// claimed/done state machine lets a saturated or impatient writer claim a
/// queued job and run it itself (writer assist) without racing the worker.
template <class K, class V>
class FoldJob {
 public:
  // -- writer-filled plan (immutable while the fold runs) --
  std::vector<snap::SegmentRef<K, V>> inputs;  // pinned sources, oldest first
  // What the fold reads, oldest -> newest: the inputs' planes, then — on a
  // writer-run fold only — borrowed views of the incoming run.
  std::vector<kern::RunView<K, V>> spans;
  std::size_t total_in = 0;  // sum of the spans' sizes (pre-dedup mass)
  bool drop_tombstones = false;
  bool mint_filter = false;
  simd::Isa isa = simd::Isa::kScalar;
  unsigned ways = 1;  // intra-fold sub-merge parallelism

  // -- fold outputs (valid after fold() / done()) --
  kern::RunBuf<K, V> out;
  std::vector<std::uint64_t> filter_words;
  std::uint64_t final_dups = 0;
  std::uint64_t tombstones_dropped = 0;
  std::uint64_t fold_ns = 0;

  /// Collapse, strip when planned, and mint the output's Bloom filter.
  void fold() {
    const auto t0 = std::chrono::steady_clock::now();
    final_dups = collapse(spans, total_in, ways, isa, out, scratch_);
    tombstones_dropped = drop_tombstones ? strip_tombstones(out) : 0;
    filter_words.clear();
    if constexpr (filt::filter_hashable_v<K>) {
      if (mint_filter && !out.empty()) {
        filter_words = filt::build_filter(out.keys.data(), out.keys.size());
      }
    }
    fold_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  /// Exactly one runner wins the claim (pool worker vs assisting writer).
  bool try_claim() {
    int expected = 0;
    return state_.compare_exchange_strong(expected, 1,
                                          std::memory_order_acq_rel);
  }

  bool done() const {
    return state_.load(std::memory_order_acquire) == 2;
  }

  /// Block until the (already claimed, by someone) job completes.
  void wait_done() {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return state_.load(std::memory_order_acquire) == 2; });
  }

  /// fold() under the claim protocol. Caller must hold the claim.
  void run() {
    fold();
    {
      std::lock_guard<std::mutex> lk(m_);
      state_.store(2, std::memory_order_release);
    }
    cv_.notify_all();
  }

 private:
  FoldScratch<K, V> scratch_;
  std::atomic<int> state_{0};  // 0 queued, 1 claimed/running, 2 done
  std::mutex m_;
  std::condition_variable cv_;
};

}  // namespace costream::cola::compact
