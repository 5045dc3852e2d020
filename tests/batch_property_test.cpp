// Differential property test for the batch ingestion path: every structure
// is driven through the same interleaved trace of insert_batch / insert /
// erase / find / range_for_each operations and compared against a std::map
// model with the library's semantics. Batches deliberately contain internal
// duplicate keys (last occurrence must win) and keys that were previously
// erased (tombstoned), and structural invariants are checked after every
// batch — the batch contract of api/dictionary.hpp under adversarial input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/dictionary.hpp"
#include "brt/brt.hpp"
#include "btree/btree.hpp"
#include "cob/cob_tree.hpp"
#include "cola/cola.hpp"
#include "cola/deamortized_cola.hpp"
#include "cola/deamortized_fc_cola.hpp"
#include "common/entry.hpp"
#include "common/rng.hpp"
#include "dam/dam_mem_model.hpp"
#include "model_helpers.hpp"
#include "pma/pma.hpp"
#include "shuttle/shuttle_tree.hpp"
#include "shuttle/swbst.hpp"

namespace costream {
namespace {

using testing::RefDict;
using testing::collect_range;

/// A bounded key universe so duplicates, overwrites, re-inserts of erased
/// keys, and range hits all occur with high probability.
constexpr std::uint64_t kUniverse = 1024;

template <class D, class Checker>
void run_batch_trace(D& dict, Checker&& check, std::uint64_t seed,
                     std::size_t rounds = 600) {
  RefDict ref;
  Xoshiro256 rng(seed);
  std::vector<Key> erased_pool;  // recently tombstoned keys, fed back into batches
  std::uint64_t stamp = 1;       // unique values so newest-wins mismatches surface

  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 40) {
      // Batch insert: unsorted, with internal duplicates and (when
      // available) previously erased keys.
      const std::size_t len = 1 + rng.below(64);
      std::vector<Entry<>> batch;
      batch.reserve(len);
      for (std::size_t i = 0; i < len; ++i) {
        Key k;
        if (!erased_pool.empty() && rng.below(4) == 0) {
          k = erased_pool[rng.below(erased_pool.size())];  // tombstoned key
        } else if (i > 0 && rng.below(4) == 0) {
          k = batch[rng.below(i)].key;  // internal duplicate
        } else {
          k = rng.below(kUniverse);
        }
        batch.push_back(Entry<>{k, stamp++});
      }
      dict.insert_batch(batch);
      for (const Entry<>& e : batch) ref.insert(e.key, e.value);
      ASSERT_NO_THROW(check()) << "after batch, round " << r;
    } else if (roll < 60) {
      const Key k = rng.below(kUniverse);
      dict.insert(k, stamp);
      ref.insert(k, stamp);
      ++stamp;
    } else if (roll < 75) {
      const Key k = rng.below(kUniverse);
      dict.erase(k);
      ref.erase(k);
      erased_pool.push_back(k);
      if (erased_pool.size() > 64) erased_pool.erase(erased_pool.begin());
    } else if (roll < 90) {
      const Key k = rng.below(kUniverse);
      const auto got = dict.find(k);
      const auto want = ref.find(k);
      ASSERT_EQ(got.has_value(), want.has_value()) << "round " << r << " key " << k;
      if (want) {
        ASSERT_EQ(*got, *want) << "round " << r << " key " << k;
      }
    } else {
      const Key lo = rng.below(kUniverse);
      const Key hi = lo + rng.below(kUniverse / 4);
      const auto got = collect_range(dict, lo, hi);
      const auto want = ref.range(lo, hi);
      ASSERT_EQ(got.size(), want.size()) << "round " << r;
      for (std::size_t j = 0; j < got.size(); ++j) {
        ASSERT_EQ(got[j].key, want[j].key) << "round " << r << " pos " << j;
        ASSERT_EQ(got[j].value, want[j].value) << "round " << r << " pos " << j;
      }
    }
  }

  // Final verification: invariants plus point lookups over the whole model.
  ASSERT_NO_THROW(check());
  for (const auto& [k, v] : ref.map()) {
    const auto got = dict.find(k);
    ASSERT_TRUE(got.has_value()) << "final key " << k;
    ASSERT_EQ(*got, v) << "final key " << k;
  }
}

TEST(BatchDifferential, Cola) {
  cola::Gcola<> d;
  run_batch_trace(d, [&] { d.check_invariants(); }, /*seed=*/1);
}

TEST(BatchDifferential, BasicColaGrowth4) {
  cola::Gcola<> d(cola::ColaConfig{4, 0.0});
  run_batch_trace(d, [&] { d.check_invariants(); }, /*seed=*/2);
}

TEST(BatchDifferential, LookaheadArrayGrowth8) {
  cola::Gcola<> d(cola::ColaConfig{8, 0.2});
  run_batch_trace(d, [&] { d.check_invariants(); }, /*seed=*/3);
}

TEST(BatchDifferential, DeamortizedCola) {
  cola::DeamortizedCola<> d;
  run_batch_trace(d, [&] { d.check_invariants(); }, /*seed=*/4);
}

TEST(BatchDifferential, DeamortizedFcCola) {
  cola::DeamortizedFcCola<> d;
  run_batch_trace(d, [&] { d.check_invariants(); }, /*seed=*/5);
}

TEST(BatchDifferential, BTree) {
  btree::BTree<> d(512);
  run_batch_trace(d, [&] { d.check_invariants(); }, /*seed=*/6);
}

TEST(BatchDifferential, Brt) {
  brt::Brt<> d(256);
  run_batch_trace(d, [&] { d.check_invariants(); }, /*seed=*/7);
}

TEST(BatchDifferential, CobTree) {
  cob::CobTree<> d;
  run_batch_trace(d, [&] { d.check_invariants(); }, /*seed=*/8);
}

TEST(BatchDifferential, ShuttleTree) {
  shuttle::ShuttleTree<> d;
  run_batch_trace(d, [&] { d.check_invariants(); }, /*seed=*/9);
}

TEST(BatchDifferential, ShuttleTreeSmallFanout) {
  shuttle::ShuttleTree<> d(shuttle::ShuttleConfig{2, 2, true, 1ULL << 22});
  run_batch_trace(d, [&] { d.check_invariants(); }, /*seed=*/10);
}

TEST(BatchDifferential, Swbst) {
  shuttle::Swbst<> d;
  run_batch_trace(d, [&] { d.check_invariants(); }, /*seed=*/11);
}

// Focused corner cases that random traces may not pin down precisely.

TEST(BatchContract, EmptyBatchIsNoop) {
  cola::Gcola<> d;
  d.insert(1, 10);
  d.insert_batch(costream::Span<costream::Entry<>>(nullptr, 0));
  d.check_invariants();
  EXPECT_EQ(d.find(1).value(), 10u);
}

TEST(BatchContract, LastDuplicateWinsWithinBatch) {
  std::vector<Entry<>> batch;
  for (std::uint64_t i = 0; i < 100; ++i) batch.push_back(Entry<>{7, i});
  cola::Gcola<> c;
  c.insert_batch(batch);
  EXPECT_EQ(c.find(7).value(), 99u);
  shuttle::ShuttleTree<> s;
  s.insert_batch(batch);
  EXPECT_EQ(s.find(7).value(), 99u);
  brt::Brt<> b;
  b.insert_batch(batch);
  EXPECT_EQ(b.find(7).value(), 99u);
}

TEST(BatchContract, BatchIsNewerThanExistingContents) {
  cola::Gcola<> d;
  for (std::uint64_t k = 0; k < 256; ++k) d.insert(k, 1);
  std::vector<Entry<>> batch;
  for (std::uint64_t k = 0; k < 256; k += 2) batch.push_back(Entry<>{k, 2});
  d.insert_batch(batch);
  d.check_invariants();
  for (std::uint64_t k = 0; k < 256; ++k) {
    EXPECT_EQ(d.find(k).value(), k % 2 == 0 ? 2u : 1u) << k;
  }
}

TEST(BatchContract, BatchResurrectsTombstonedKeys) {
  cola::Gcola<> d;
  for (std::uint64_t k = 0; k < 64; ++k) d.insert(k, 1);
  for (std::uint64_t k = 0; k < 64; ++k) d.erase(k);
  std::vector<Entry<>> batch;
  for (std::uint64_t k = 0; k < 64; ++k) batch.push_back(Entry<>{k, 9});
  d.insert_batch(batch);
  d.check_invariants();
  for (std::uint64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(d.find(k).has_value()) << k;
    EXPECT_EQ(d.find(k).value(), 9u) << k;
  }
}

TEST(BatchContract, LargeBatchIntoEmptyCola) {
  // A batch far larger than the shallow levels lands in one deep level via a
  // single cascade (one batch merge, not n of them).
  cola::Gcola<> d;
  std::vector<Entry<>> batch;
  for (std::uint64_t i = 0; i < 10'000; ++i) batch.push_back(Entry<>{mix64(i), i});
  d.insert_batch(batch);
  d.check_invariants();
  EXPECT_EQ(d.stats().batch_merges, 1u);
  EXPECT_EQ(d.stats().merges, 1u);
  for (std::uint64_t i = 0; i < 10'000; i += 97) {
    EXPECT_EQ(d.find(mix64(i)).value(), i);
  }
}

TEST(BatchContract, MixedBatchAndSingleOpsKeepColaGeometry) {
  // Alternating batch and single-op cascades must preserve the level
  // occupancy invariants (the occupancy-aware fills accounting).
  cola::Gcola<> d;
  std::uint64_t s = 42;
  for (std::uint64_t round = 0; round < 200; ++round) {
    std::vector<Entry<>> batch;
    const std::size_t len = 1 + (splitmix64(s) % 50);
    for (std::size_t i = 0; i < len; ++i) batch.push_back(Entry<>{splitmix64(s) % 4096, round});
    d.insert_batch(batch);
    for (int j = 0; j < 5; ++j) d.insert(splitmix64(s) % 4096, round);
    d.check_invariants();
  }
}

TEST(BatchContract, AnyDictionaryForwardsBatches) {
  std::vector<api::AnyDictionary> dicts;
  dicts.emplace_back("cola", cola::Gcola<>{});
  dicts.emplace_back("btree", btree::BTree<>{});
  dicts.emplace_back("brt", brt::Brt<>{});
  dicts.emplace_back("cob", cob::CobTree<>{});
  dicts.emplace_back("shuttle", shuttle::ShuttleTree<>{});
  dicts.emplace_back("deam", cola::DeamortizedCola<>{});
  dicts.emplace_back("fc-deam", cola::DeamortizedFcCola<>{});
  std::vector<Entry<>> batch;
  for (std::uint64_t i = 0; i < 500; ++i) batch.push_back(Entry<>{i % 100, i});
  for (auto& d : dicts) {
    d.insert_batch(batch);
    for (std::uint64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE(d.find(k).has_value()) << d.name() << " key " << k;
      EXPECT_EQ(d.find(k).value(), 400 + k) << d.name();
    }
  }
}

TEST(BatchContract, PmaSortedRunBatch) {
  pma::Pma<Entry<>> p;
  std::vector<Entry<>> run;
  for (std::uint64_t i = 0; i < 500; ++i) run.push_back(Entry<>{i * 2, i});
  p.insert_batch_after(pma::Pma<Entry<>>::npos, run.data(), run.size());
  p.check_invariants();
  EXPECT_EQ(p.size(), 500u);
  // Order preserved: walk the slots and compare.
  std::uint64_t expect = 0;
  for (auto s = p.first(); s != pma::Pma<Entry<>>::npos; s = p.next(s)) {
    EXPECT_EQ(p.at(s).key, expect * 2);
    ++expect;
  }
}

// ------------------------------------------------------- arrival routes --

// Every Gcola mutator enters through one arrival routine, so the route an
// op stream takes must leave no trace: singles, 1-entry insert_batch /
// erase_batch, and 1-entry apply_batch give identical modeled transfers,
// per-level geometry and contents, and so do a multi-entry insert_batch and
// an apply_batch of the same puts — on all four geometries.
using DamCola = cola::Gcola<Key, Value, dam::dam_mem_model>;

struct RouteFootprint {
  std::uint64_t transfers = 0;
  std::vector<std::uint64_t> level_reals;
  std::vector<std::size_t> level_segs;
  std::vector<std::pair<Key, Value>> contents;
};

DamCola make_route_cola(unsigned g, bool tiered, bool staged) {
  cola::ColaConfig cfg;
  if (tiered) {
    cfg = cola::ingest_tuned(g, 16);
  } else {
    cfg.growth = g;
  }
  cfg.staging_capacity = staged ? std::size_t{16} * g : 0;
  // A cache far smaller than the data, so touch order shows in transfers.
  return DamCola(cfg, dam::dam_mem_model(1024, 32u << 10));
}

RouteFootprint footprint(DamCola& d) {
  d.check_invariants();
  RouteFootprint f;
  f.transfers = d.mm().stats().transfers;  // before the scan adds reads
  for (std::size_t l = 0; l < d.level_count(); ++l) {
    f.level_reals.push_back(d.level_real_count(l));
    f.level_segs.push_back(d.level_segment_count(l));
  }
  d.for_each([&](Key k, Value v) { f.contents.emplace_back(k, v); });
  return f;
}

void expect_same_footprint(const RouteFootprint& want, const RouteFootprint& got,
                           const std::string& what) {
  EXPECT_EQ(want.transfers, got.transfers) << what;
  EXPECT_EQ(want.level_reals, got.level_reals) << what;
  EXPECT_EQ(want.level_segs, got.level_segs) << what;
  EXPECT_TRUE(want.contents == got.contents) << what;
}

TEST(ArrivalRoutes, EveryRouteLeavesTheSameStructure) {
  // Mixed stream over a small universe: overwrites, erases of present and
  // absent keys, and re-inserts of erased keys.
  std::vector<Op<>> stream;
  std::uint64_t s = 2024;
  for (std::size_t i = 0; i < 6000; ++i) {
    const Key k = splitmix64(s) % 2048;
    stream.push_back(splitmix64(s) % 4 == 0 ? Op<>::del(k) : Op<>::put(k, i));
  }
  std::map<Key, Value> ref;
  for (const Op<>& op : stream) {
    if (op.erase) {
      ref.erase(op.key);
    } else {
      ref[op.key] = op.value;
    }
  }
  const std::vector<std::pair<Key, Value>> want_contents(ref.begin(), ref.end());

  for (const bool tiered : {false, true}) {
    for (const bool staged : {false, true}) {
      for (const unsigned g : {2u, 4u, 8u}) {
        const std::string shape = std::string(tiered ? "tiered" : "classic") +
                                  (staged ? " staged" : " unstaged") +
                                  " g=" + std::to_string(g);
        DamCola singles = make_route_cola(g, tiered, staged);
        DamCola batches = make_route_cola(g, tiered, staged);
        DamCola applied = make_route_cola(g, tiered, staged);
        for (const Op<>& op : stream) {
          if (op.erase) {
            singles.erase(op.key);
            batches.erase_batch({&op.key, 1});
          } else {
            singles.insert(op.key, op.value);
            const Entry<> e{op.key, op.value};
            batches.insert_batch({&e, 1});
          }
          applied.apply_batch({&op, 1});
        }
        const RouteFootprint want = footprint(singles);
        EXPECT_TRUE(want.contents == want_contents) << shape;
        expect_same_footprint(want, footprint(batches), shape + " 1-entry batches");
        expect_same_footprint(want, footprint(applied), shape + " 1-entry apply");

        // Multi-entry runs (duplicate keys inside a run included): an
        // insert_batch and an apply_batch of the same puts.
        for (const std::size_t len : {std::size_t{7}, std::size_t{64}}) {
          DamCola inserted = make_route_cola(g, tiered, staged);
          DamCola put_ops = make_route_cola(g, tiered, staged);
          std::vector<Entry<>> entries;
          std::vector<Op<>> ops;
          for (std::size_t i = 0; i < stream.size(); i += len) {
            entries.clear();
            ops.clear();
            for (std::size_t j = i; j < std::min(i + len, stream.size()); ++j) {
              entries.push_back(Entry<>{stream[j].key, j});
              ops.push_back(Op<>::put(stream[j].key, j));
            }
            inserted.insert_batch(entries);
            put_ops.apply_batch(ops);
          }
          expect_same_footprint(footprint(inserted), footprint(put_ops),
                                shape + " batch " + std::to_string(len));
        }
      }
    }
  }
}

}  // namespace
}  // namespace costream
