// Cached-key loser tree — the k-way fusion engine behind the cursor
// subsystem (every structure's Cursor merges its per-level / per-segment /
// per-buffer sources through one of these) and behind the tiered COLA's
// k-way fold merge (cola/compactor.hpp).
//
// The tree is externally driven: the caller owns the sources, declares each
// alive source's current key before build(), and after consuming the winning
// source's head replays the path from that leaf with the source's new state.
// Internal nodes cache their match's LOSER (key + source index + liveness),
// so a replay costs log2(n) compares on in-cache copies with no pointer
// chasing, packaged as a reusable object so repeated seeks and folds are
// allocation-free once the node arrays reach their high-water size.
//
// Tie order: among equal keys the source with the SMALLER index wins.
// Cursors order their sources newest-first (the staging arena, then levels
// shallow to deep, then segments newest to oldest), so the winner of a key
// tie is always the newest copy — which is what makes newest-wins dedup and
// tombstone suppression a single "same key as last emitted?" compare in the
// consumer.
#pragma once

#include <cstdint>
#include <vector>

namespace costream {

template <class K>
class LoserTree {
 public:
  /// Prepare for `n` sources, all initially dead. O(n) and allocation-free
  /// once the arrays have reached their high-water capacity.
  void reset(std::size_t n) {
    n_ = n;
    tsize_ = 1;
    while (tsize_ < n_) tsize_ <<= 1;
    wkey_.assign(2 * tsize_, K{});
    widx_.assign(2 * tsize_, 0);
    walive_.assign(2 * tsize_, 0);
    lkey_.assign(tsize_, K{});
    lidx_.assign(tsize_, 0);
    lalive_.assign(tsize_, 0);
  }

  /// Declare source `i` alive with current head `key` (call between reset
  /// and build; sources not declared stay dead).
  void declare(std::size_t i, const K& key) {
    wkey_[tsize_ + i] = key;
    widx_[tsize_ + i] = static_cast<std::uint32_t>(i);
    walive_[tsize_ + i] = 1;
  }

  /// Bottom-up O(n) build; afterwards top()/top_key() name the winner.
  void build() {
    for (std::size_t node = tsize_; node-- > 1;) {
      const std::size_t a = 2 * node, b = 2 * node + 1;
      const bool bwins = beats(walive_[b] != 0, wkey_[b], widx_[b],
                               walive_[a] != 0, wkey_[a], widx_[a]);
      const std::size_t win = bwins ? b : a, lose = bwins ? a : b;
      wkey_[node] = wkey_[win];
      widx_[node] = widx_[win];
      walive_[node] = walive_[win];
      lkey_[node] = wkey_[lose];
      lidx_[node] = widx_[lose];
      lalive_[node] = walive_[lose];
    }
    top_alive_ = walive_[1] != 0;
    top_key_ = wkey_[1];
    top_idx_ = widx_[1];
  }

  bool top_alive() const noexcept { return top_alive_; }
  std::size_t top() const noexcept { return top_idx_; }
  const K& top_key() const noexcept { return top_key_; }

  /// After the caller advanced source top(): replay its leaf-to-root path
  /// with the source's new head (`alive` false when it drained; `key` is
  /// ignored then). log2(n) cached compares.
  void replay(bool alive, const K& key) {
    bool ca = alive;
    K ck = alive ? key : K{};
    std::uint32_t ci = top_idx_;
    for (std::size_t node = (tsize_ + ci) >> 1; node >= 1; node >>= 1) {
      if (beats(lalive_[node] != 0, lkey_[node], lidx_[node], ca, ck, ci)) {
        std::swap(ck, lkey_[node]);
        std::swap(ci, lidx_[node]);
        const bool t = ca;
        ca = lalive_[node] != 0;
        lalive_[node] = t ? 1 : 0;
      }
    }
    top_alive_ = ca;
    top_key_ = ck;
    top_idx_ = ci;
  }

 private:
  /// x must pop before y: alive, and smaller key — or the same key from a
  /// smaller (newer) source index.
  static bool beats(bool xa, const K& xk, std::uint32_t xi, bool ya, const K& yk,
                    std::uint32_t yi) {
    if (!xa) return false;
    if (!ya) return true;
    if (xk < yk) return true;
    if (yk < xk) return false;
    return xi < yi;
  }

  std::size_t n_ = 0, tsize_ = 1;
  std::vector<K> wkey_, lkey_;
  std::vector<std::uint32_t> widx_, lidx_;
  std::vector<std::uint8_t> walive_, lalive_;
  bool top_alive_ = false;
  K top_key_{};
  std::uint32_t top_idx_ = 0;
};

}  // namespace costream
