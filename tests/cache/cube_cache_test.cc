#include "cache/cube_cache.h"

#include <gtest/gtest.h>

#include <limits>

#include "cube/cube_codec.h"
#include "io/env.h"
#include "obs/heap_stats.h"
#include "util/random.h"

namespace rased {
namespace {

CubeSchema TinySchema() { return CubeSchema{3, 8, 4, 4}; }

/// Exact budget charge of one cube held in its adaptive stored form.
uint64_t EncodedBytes(const DataCube& cube) {
  return EncodedCube::Encode(cube).SerializedBytes();
}

/// Size of a cube held dense (widened): header + dense image.
uint64_t DenseBytes() {
  return TinySchema().cube_bytes() + CubeBlobHeader::kBytes;
}

/// Day `i`'s cube in a mixed index: every third day sparse (one cell),
/// delta-varint (half the cells, small counts) or incompressible dense
/// (every cell a large random count).
DataCube MixedCube(int i, Rng* rng) {
  const CubeSchema schema = TinySchema();
  DataCube cube(schema);
  switch (i % 3) {
    case 0:
      cube.Add(0, 0, 0, 0, static_cast<uint64_t>(i + 1));
      break;
    case 1:
      for (uint32_t c = 0; c < schema.num_cells(); c += 2) {
        cube.Add((c / 128) % 3, (c / 16) % 8, (c / 4) % 4, c % 4,
                 1 + rng->Uniform(3));
      }
      break;
    default:
      for (uint32_t c = 0; c < schema.num_cells(); ++c) {
        cube.Add((c / 128) % 3, (c / 16) % 8, (c / 4) % 4, c % 4,
                 rng->Uniform(uint64_t{1} << 62));
      }
      break;
  }
  return cube;
}

class CubeCacheTest : public ::testing::Test {
 protected:
  // Builds an index covering `days` days from 2021-01-01. By default each
  // daily cube holds a single cell, so every cube stores sparse and tiny —
  // the encoded sizes the byte budget meters are a few dozen bytes, not
  // the multi-KB dense image. `mixed` builds MixedCube days instead.
  std::unique_ptr<TemporalIndex> BuildIndex(int days, bool mixed = false) {
    TemporalIndexOptions options;
    options.schema = TinySchema();
    options.num_levels = 4;
    options.dir =
        env::JoinPath(dir_.path(), "index-" + std::to_string(counter_++));
    options.device = DeviceModel::None();
    auto index = TemporalIndex::Create(options);
    EXPECT_TRUE(index.ok());
    Rng rng(5);
    Date d = Date::FromYmd(2021, 1, 1);
    for (int i = 0; i < days; ++i) {
      DataCube cube(TinySchema());
      if (mixed) {
        cube = MixedCube(i, &rng);
      } else {
        cube.Add(0, 0, 0, 0, static_cast<uint64_t>(i + 1));
      }
      EXPECT_TRUE(index.value()->AppendDay(d, cube).ok());
      d = d.next();
    }
    return std::move(index).value();
  }

  // Sum of the catalog-recorded encoded sizes of the `n` newest cubes of
  // `level` — the budget that admits exactly those cubes on preload.
  static uint64_t BytesForLatest(const CatalogSnapshot& snapshot, Level level,
                                 size_t n) {
    uint64_t total = 0;
    for (const CubeKey& key : snapshot.LatestKeys(level, n)) {
      total += snapshot.LocOf(key)->blob_bytes;
    }
    return total;
  }

  static bool Holds(const CubeCache& cache, const TemporalIndex& index,
                    const CubeKey& key) {
    std::optional<PageId> page = index.Snapshot().PageOf(key);
    return page.has_value() && cache.Contains(key, *page);
  }

  /// What `cache` holds for each key of `snapshot`, in key order: the
  /// entry's encoding and charge, or (-1, 0) when it holds nothing for the
  /// key's current page.
  static std::vector<std::pair<int, uint64_t>> HeldForms(
      CubeCache* cache, const CatalogSnapshot& snapshot) {
    std::vector<std::pair<int, uint64_t>> forms;
    for (Level level :
         {Level::kDaily, Level::kWeekly, Level::kMonthly, Level::kYearly}) {
      for (const CubeKey& key :
           snapshot.LatestKeys(level, std::numeric_limits<size_t>::max())) {
        auto held = cache->Find(key, *snapshot.PageOf(key));
        forms.emplace_back(
            held == nullptr ? -1 : static_cast<int>(held->encoding()),
            held == nullptr ? 0 : held->SerializedBytes());
      }
    }
    return forms;
  }

  TempDir dir_{"cache-test"};
  int counter_ = 0;
};

TEST_F(CubeCacheTest, RecencyPreloadSplitsByLevel) {
  auto index = BuildIndex(90);  // 90 daily, 12 weekly, 2 monthly (Jan, Feb)
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(40, TinySchema());
  options.policy = CachePolicy::kRasedRecency;
  // alpha .4 beta .35 gamma .2 theta .05
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());

  // The most recent daily/weekly/monthly cubes must be resident.
  EXPECT_TRUE(
      Holds(cache, *index, CubeKey::Daily(Date::FromYmd(2021, 3, 31))));
  EXPECT_TRUE(
      Holds(cache, *index, CubeKey::Weekly(Date::FromYmd(2021, 3, 22))));
  EXPECT_TRUE(
      Holds(cache, *index, CubeKey::Monthly(Date::FromYmd(2021, 2, 1))));
  EXPECT_LE(cache.bytes_used(), options.byte_budget);
}

TEST_F(CubeCacheTest, GenerousBudgetChargesCatalogEncodedBytes) {
  auto index = BuildIndex(45);
  IndexStorageStats stats = index->StorageStats();
  CacheOptions options;
  options.byte_budget = stats.encoded_bytes * 4;  // room for everything
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  // Every cube fits, and each entry (all sparse here, so none widens) is
  // charged its exact catalog-recorded encoded length — residency totals
  // mirror StorageStats.
  EXPECT_EQ(cache.size(), stats.total_cubes);
  EXPECT_EQ(cache.bytes_used(), stats.encoded_bytes);
}

TEST_F(CubeCacheTest, LeftoverBytesFallToDaily) {
  auto index = BuildIndex(60);
  IndexStorageStats stats = index->StorageStats();
  CacheOptions options;
  // Budget covers the whole index, but theta hands half of it to yearly
  // cubes — and none exist. Only if the unused yearly (and surplus
  // weekly/monthly) bytes fall through to daily can everything load.
  options.byte_budget = stats.encoded_bytes;
  options.theta = 0.5;
  options.alpha = 0.2;
  options.beta = 0.2;
  options.gamma = 0.1;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  EXPECT_EQ(cache.size(), stats.total_cubes);
}

TEST_F(CubeCacheTest, FindCountsHitsAndMisses) {
  auto index = BuildIndex(30);
  CatalogSnapshot snapshot = index->Snapshot();
  CacheOptions options;
  // Exactly the 10 newest dailies fit (every daily here encodes to the
  // same size: one 1-byte-varint cell).
  options.byte_budget = BytesForLatest(snapshot, Level::kDaily, 10);
  options.policy = CachePolicy::kAllDaily;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());

  CubeKey newest = CubeKey::Daily(Date::FromYmd(2021, 1, 30));
  CubeKey oldest = CubeKey::Daily(Date::FromYmd(2021, 1, 1));
  EXPECT_NE(cache.Find(newest, *snapshot.PageOf(newest)), nullptr);
  EXPECT_EQ(cache.Find(oldest, *snapshot.PageOf(oldest)), nullptr);
  // A different page is a different version of the cube: a miss.
  EXPECT_EQ(cache.Find(newest, *snapshot.PageOf(oldest)), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST_F(CubeCacheTest, CachedCubesHaveCorrectContents) {
  auto index = BuildIndex(30);
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(5, TinySchema());
  options.policy = CachePolicy::kAllDaily;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  CubeKey key = CubeKey::Daily(Date::FromYmd(2021, 1, 30));
  std::shared_ptr<const EncodedCube> cube =
      cache.Find(key, *index->Snapshot().PageOf(key));
  ASSERT_NE(cube, nullptr);
  EXPECT_EQ(cube->Decode().value().Total(), 30u);  // day 30's cube value
}

TEST_F(CubeCacheTest, StaticPolicyIgnoresInsert) {
  auto index = BuildIndex(10);
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(2, TinySchema());
  options.policy = CachePolicy::kRasedRecency;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  size_t before = cache.size();
  DataCube cube(TinySchema());
  cache.Insert(CubeKey::Daily(Date::FromYmd(2021, 1, 1)), 0,
               EncodedCube::Encode(cube));
  EXPECT_EQ(cache.size(), before);
}

TEST_F(CubeCacheTest, LruAdmitsAndEvictsByBytes) {
  DataCube cube(TinySchema());
  CacheOptions options;
  // Room for exactly two of this cube's encoded images.
  options.byte_budget = 2 * EncodedBytes(cube);
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);

  CubeKey k1 = CubeKey::Daily(Date::FromYmd(2021, 1, 1));
  CubeKey k2 = CubeKey::Daily(Date::FromYmd(2021, 1, 2));
  CubeKey k3 = CubeKey::Daily(Date::FromYmd(2021, 1, 3));
  cache.Insert(k1, 1, EncodedCube::Encode(cube));
  cache.Insert(k2, 2, EncodedCube::Encode(cube));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes_used(), options.byte_budget);
  // Touch k1 so k2 is the LRU victim.
  EXPECT_NE(cache.Find(k1, 1), nullptr);
  cache.Insert(k3, 3, EncodedCube::Encode(cube));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Contains(k1, 1));
  EXPECT_FALSE(cache.Contains(k2, 2));
  EXPECT_TRUE(cache.Contains(k3, 3));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes_used(), options.byte_budget);
}

TEST_F(CubeCacheTest, LruEvictsMultipleSmallEntriesForOneLarge) {
  DataCube sparse(TinySchema());
  sparse.Add(0, 0, 0, 0, 1);
  DataCube dense(TinySchema());
  for (uint32_t c = 0; c < TinySchema().num_cells(); ++c) {
    dense.Add((c / 128) % 3, (c / 16) % 8, (c / 4) % 4, c % 4, 1000000 + c);
  }
  const uint64_t sparse_bytes = EncodedBytes(sparse);
  const uint64_t dense_bytes = EncodedBytes(dense);
  ASSERT_GT(dense_bytes, 3 * sparse_bytes);

  CacheOptions options;
  options.byte_budget = dense_bytes + sparse_bytes;
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);
  for (int i = 0; i < 4; ++i) {
    cache.Insert(CubeKey::Daily(Date::FromYmd(2021, 1, 1 + i)), 0,
                 EncodedCube::Encode(sparse));
  }
  ASSERT_EQ(cache.size(), 4u);
  // One large admission must displace as many small victims as its size
  // requires, never overshooting the budget.
  CubeKey large = CubeKey::Daily(Date::FromYmd(2021, 2, 1));
  cache.Insert(large, 0, EncodedCube::Encode(dense));
  EXPECT_TRUE(cache.Contains(large, 0));
  EXPECT_LE(cache.bytes_used(), options.byte_budget);
  EXPECT_LT(cache.size(), 5u);
}

TEST_F(CubeCacheTest, LruNeverAdmitsCubeLargerThanBudget) {
  DataCube cube(TinySchema());
  cube.Add(0, 0, 0, 0, 5);
  CacheOptions options;
  options.byte_budget = EncodedBytes(cube) - 1;
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);
  cache.Insert(CubeKey::Daily(Date::FromYmd(2021, 1, 1)), 0,
               EncodedCube::Encode(cube));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST_F(CubeCacheTest, InsertChargesHeldForm) {
  DataCube cube(TinySchema());
  cube.Add(2, 7, 3, 3, 9);
  EncodedCube stored = EncodedCube::Encode(cube);
  ASSERT_EQ(stored.encoding(), CubeEncoding::kSparseCoo);
  CacheOptions options;
  options.byte_budget = DenseBytes() + stored.SerializedBytes();
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);
  // Each entry is charged exactly the form it holds: the sparse blob's few
  // bytes, or the whole dense image once widened.
  cache.Insert(CubeKey::Daily(Date::FromYmd(2021, 1, 1)), 0, stored);
  EXPECT_EQ(cache.bytes_used(), stored.SerializedBytes());
  cache.Insert(CubeKey::Daily(Date::FromYmd(2021, 1, 2)), 0,
               EncodedCube::Encode(cube, CubeEncodingPolicy::kForceDense));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes_used(), options.byte_budget);
}

TEST_F(CubeCacheTest, MoveInsertAdmitsWithoutCopy) {
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(4, TinySchema());
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);

  DataCube cube(TinySchema());
  cube.Add(1, 1, 1, 1, 7);
  EncodedCube encoded = EncodedCube::Encode(cube);
  const unsigned char* body_before = encoded.body();
  CubeKey key = CubeKey::Daily(Date::FromYmd(2021, 1, 1));
  cache.Insert(key, 4, std::move(encoded));

  // The cached entry adopted the original body storage (no deep copy).
  auto found = cache.Find(key, 4);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->body(), body_before);
  EXPECT_EQ(found->Decode().value().Get(1, 1, 1, 1), 7u);
}

TEST_F(CubeCacheTest, MoveInsertIgnoredUnderStaticPolicies) {
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(4, TinySchema());
  options.policy = CachePolicy::kRasedRecency;
  CubeCache cache(options);
  EXPECT_FALSE(cache.AdmitsOnQuery());

  DataCube cube(TinySchema());
  CubeKey key = CubeKey::Daily(Date::FromYmd(2021, 1, 1));
  cache.Insert(key, 0, EncodedCube::Encode(cube));
  EXPECT_EQ(cache.size(), 0u);

  CacheOptions lru = options;
  lru.policy = CachePolicy::kLru;
  EXPECT_TRUE(CubeCache(lru).AdmitsOnQuery());
}

TEST_F(CubeCacheTest, MoveInsertRefreshesExistingEntry) {
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(2, TinySchema());
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);
  CubeKey key = CubeKey::Daily(Date::FromYmd(2021, 1, 1));

  DataCube v1(TinySchema());
  v1.Add(0, 0, 0, 0, 1);
  cache.Insert(key, 1, EncodedCube::Encode(v1));
  DataCube v2(TinySchema());
  v2.Add(0, 0, 0, 0, 2);
  const uint64_t v2_bytes = EncodedBytes(v2);
  cache.Insert(key, 2, EncodedCube::Encode(v2));

  EXPECT_EQ(cache.size(), 1u);
  // A refresh replaces the old charge rather than stacking on top of it,
  // and the entry now validates against the new page only.
  EXPECT_EQ(cache.bytes_used(), v2_bytes);
  EXPECT_EQ(cache.Find(key, 1), nullptr);
  auto found = cache.Find(key, 2);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->Decode().value().Get(0, 0, 0, 0), 2u);
}

TEST_F(CubeCacheTest, LruWarmIsNoOp) {
  auto index = BuildIndex(10);
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(5, TinySchema());
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CubeCacheTest, BytesForCubes) {
  CubeSchema schema = TinySchema();
  // Per-cube allotment is the dense image plus the blob header — the
  // adaptive encoder's worst case — so N inserts always fit.
  EXPECT_EQ(CacheOptions::BytesForCubes(10, schema),
            10 * (schema.cube_bytes() + CubeBlobHeader::kBytes));
  EXPECT_EQ(CacheOptions::BytesForCubes(0, schema), 0u);
}

TEST_F(CubeCacheTest, ClearEmptiesEverything) {
  auto index = BuildIndex(10);
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(5, TinySchema());
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  EXPECT_GT(cache.size(), 0u);
  EXPECT_GT(cache.bytes_used(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST_F(CubeCacheTest, InvalidateRangeReleasesBytes) {
  auto index = BuildIndex(20);
  IndexStorageStats stats = index->StorageStats();
  CacheOptions options;
  options.byte_budget = stats.encoded_bytes * 2;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  uint64_t before = cache.bytes_used();
  ASSERT_GT(before, 0u);
  cache.InvalidateRange(
      DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 10)));
  EXPECT_LT(cache.bytes_used(), before);
  EXPECT_FALSE(
      Holds(cache, *index, CubeKey::Daily(Date::FromYmd(2021, 1, 5))));
}

TEST_F(CubeCacheTest, WarmWidensDeltaCubesNewestFirstWhileTheyFit) {
  auto index = BuildIndex(30, /*mixed=*/true);
  CatalogSnapshot snapshot = index->Snapshot();
  // Every daily is selected; the slack above their stored sizes pays for
  // widening exactly the two newest delta dailies.
  std::vector<CubeKey> dailies = snapshot.LatestKeys(Level::kDaily, 30);
  uint64_t stored = 0;
  std::vector<CubeKey> deltas;  // newest first
  for (auto it = dailies.rbegin(); it != dailies.rend(); ++it) {
    CubeLoc loc = *snapshot.LocOf(*it);
    stored += loc.blob_bytes;
    if (loc.encoding == CubeEncoding::kDeltaVarint) deltas.push_back(*it);
  }
  ASSERT_GE(deltas.size(), 3u);
  auto growth = [&](const CubeKey& key) {
    return DenseBytes() - snapshot.LocOf(key)->blob_bytes;
  };
  CacheOptions options;
  options.policy = CachePolicy::kAllDaily;
  options.byte_budget =
      stored + growth(deltas[0]) + growth(deltas[1]) + growth(deltas[2]) - 1;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());

  EXPECT_EQ(cache.size(), dailies.size());
  EXPECT_EQ(cache.bytes_used(),
            stored + growth(deltas[0]) + growth(deltas[1]));
  for (size_t i = 0; i < deltas.size(); ++i) {
    auto held = cache.Find(deltas[i], *snapshot.PageOf(deltas[i]));
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(held->encoding(), i < 2 ? CubeEncoding::kDenseRaw
                                      : CubeEncoding::kDeltaVarint)
        << deltas[i].ToString();
  }
}

// The budget is real memory: what Warm leaves live on the heap is the
// held cube bodies plus a bounded per-entry bookkeeping cost, and the
// bodies are exactly what bytes_used() charges.
TEST_F(CubeCacheTest, BudgetBoundsHeldMemory) {
  auto index = BuildIndex(90, /*mixed=*/true);
  CatalogSnapshot snapshot = index->Snapshot();
  CacheOptions options;
  // The stored index plus room to widen a few delta cubes.
  options.byte_budget =
      index->StorageStats().encoded_bytes + 3 * TinySchema().cube_bytes();
  CubeCache cache(options);

  ResourceUsage usage;
  {
    ResourceScope scope;
    ASSERT_TRUE(cache.Warm(index.get()).ok());
    usage = scope.Usage();
  }

  uint64_t held_bytes = 0;
  size_t held = 0;
  int per_encoding[3] = {0, 0, 0};
  for (const auto& [encoding, bytes] : HeldForms(&cache, snapshot)) {
    if (encoding < 0) continue;
    held_bytes += bytes;
    ++held;
    ++per_encoding[encoding];
  }
  ASSERT_EQ(held, cache.size());
  // Sparse, delta and dense entries are all represented.
  EXPECT_GT(per_encoding[static_cast<int>(CubeEncoding::kSparseCoo)], 0);
  EXPECT_GT(per_encoding[static_cast<int>(CubeEncoding::kDeltaVarint)], 0);
  EXPECT_GT(per_encoding[static_cast<int>(CubeEncoding::kDenseRaw)], 0);

  EXPECT_EQ(cache.bytes_used(), held_bytes);
  EXPECT_LE(cache.bytes_used(), options.byte_budget);
  // Per-entry slack: the map node, the shared_ptr control block with the
  // EncodedCube object, the body's round-up to whole words and allocator
  // rounding. The 16-byte blob header is charged but never held.
  constexpr int64_t kEntrySlack = 256;
  const int64_t live = static_cast<int64_t>(usage.allocated_bytes) -
                       static_cast<int64_t>(usage.freed_bytes);
  EXPECT_LE(live, static_cast<int64_t>(options.byte_budget) +
                      kEntrySlack * static_cast<int64_t>(cache.size()));
}

TEST_F(CubeCacheTest, ReconcileAfterRebuildMatchesFreshWarm) {
  auto index = BuildIndex(90, /*mixed=*/true);
  CacheOptions options;
  options.byte_budget =
      index->StorageStats().encoded_bytes + 8 * TinySchema().cube_bytes();
  CubeCache reconciled(options);
  ASSERT_TRUE(reconciled.Warm(index.get()).ok());

  // Rebuild February with different contents: its days, the weeks over
  // it and the month move to fresh pages.
  Date february = Date::FromYmd(2021, 2, 1);
  Rng rng(9);
  std::vector<DataCube> cubes;
  for (int i = 0; i < february.month_end().day(); ++i) {
    cubes.push_back(MixedCube(i + 1, &rng));
  }
  ASSERT_TRUE(index->RebuildMonth(february, cubes).ok());

  index->pager()->ResetStats();
  ASSERT_TRUE(reconciled.Warm(index.get()).ok());
  const uint64_t reconcile_reads = index->pager()->stats().page_reads;

  CubeCache fresh(options);
  index->pager()->ResetStats();
  ASSERT_TRUE(fresh.Warm(index.get()).ok());
  const uint64_t fresh_reads = index->pager()->stats().page_reads;

  CatalogSnapshot snapshot = index->Snapshot();
  EXPECT_EQ(reconciled.size(), fresh.size());
  EXPECT_EQ(reconciled.bytes_used(), fresh.bytes_used());
  EXPECT_EQ(HeldForms(&reconciled, snapshot), HeldForms(&fresh, snapshot));
  // Only what the rebuild replaced was read again.
  EXPECT_GT(reconcile_reads, 0u);
  EXPECT_LT(reconcile_reads, fresh_reads);
}

}  // namespace
}  // namespace rased
