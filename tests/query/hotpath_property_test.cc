#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cube_cache.h"
#include "cube/agg_kernels.h"
#include "geo/world_map.h"
#include "index/temporal_index.h"
#include "io/env.h"
#include "query/query_executor.h"
#include "util/random.h"

namespace rased {
namespace {

// Property tests for the query hot path: the dense aggregation kernels and
// the batched cube reads must be indistinguishable from the naive
// reference (per-cell ForEachCell folds + serial ReadCube) in every
// observable way — answers, row order, and transfer accounting — across
// randomized schemas, slices, group-bys, and covers. The suites are named
// "Hotpath*" so CI's TSan pass picks them up (the concurrency test below
// exercises the §7 contract under the race detector).

DataCube RandomCube(const CubeSchema& schema, Rng* rng, int adds = 200) {
  DataCube cube(schema);
  for (int i = 0; i < adds; ++i) {
    cube.Add(static_cast<uint32_t>(rng->Uniform(schema.num_element_types)),
             static_cast<uint32_t>(rng->Uniform(schema.num_countries)),
             static_cast<uint32_t>(rng->Uniform(schema.num_road_types)),
             static_cast<uint32_t>(rng->Uniform(schema.num_update_types)),
             rng->Uniform(25));
  }
  return cube;
}

// Random selection over a dimension: unconstrained half the time,
// otherwise 1..3 values that may include one out-of-range id (which the
// kernels must skip exactly like ForEachCell does).
std::vector<uint32_t> RandomSelection(uint32_t dim, Rng* rng) {
  std::vector<uint32_t> values;
  if (rng->Bernoulli(0.5)) return values;
  size_t n = 1 + rng->Uniform(3);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(static_cast<uint32_t>(rng->Uniform(dim + 1)));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

CubeSlice RandomSlice(const CubeSchema& schema, Rng* rng) {
  CubeSlice slice;
  slice.element_types = RandomSelection(schema.num_element_types, rng);
  slice.countries = RandomSelection(schema.num_countries, rng);
  slice.road_types = RandomSelection(schema.num_road_types, rng);
  slice.update_types = RandomSelection(schema.num_update_types, rng);
  return slice;
}

TEST(HotpathKernelTest, SumSliceIntoMatchesForEachCellAcrossSchemas) {
  Rng rng(31);
  const CubeSchema schemas[] = {
      CubeSchema{2, 3, 2, 2},   // everything tiny
      CubeSchema{3, 7, 5, 4},   // odd sizes
      CubeSchema{3, 16, 8, 4},  // bench-like shape
  };
  for (const CubeSchema& schema : schemas) {
    DataCube cube = RandomCube(schema, &rng);
    for (int trial = 0; trial < 100; ++trial) {
      CubeSlice slice = RandomSlice(schema, &rng);
      GroupBySpec spec{rng.Bernoulli(0.5), rng.Bernoulli(0.5),
                       rng.Bernoulli(0.5), rng.Bernoulli(0.5)};

      // Naive reference: per-cell visit, packed row-major fold.
      std::vector<uint64_t> expected(GroupAccumulatorSize(schema, spec), 0);
      cube.ForEachCell(slice, [&](uint32_t et, uint32_t co, uint32_t rt,
                                  uint32_t ut, uint64_t count) {
        size_t slot = 0;
        if (spec.element_type) slot = slot * schema.num_element_types + et;
        if (spec.country) slot = slot * schema.num_countries + co;
        if (spec.road_type) slot = slot * schema.num_road_types + rt;
        if (spec.update_type) slot = slot * schema.num_update_types + ut;
        expected[slot] += count;
      });

      std::vector<uint64_t> actual(expected.size(), 0);
      cube.SumSliceInto(slice, spec, actual.data());
      ASSERT_EQ(actual, expected)
          << schema.ToString() << " trial " << trial;

      // The zero-copy view must agree with the owning cube.
      std::vector<uint64_t> via_view(expected.size(), 0);
      cube.View().SumSliceInto(slice, spec, via_view.data());
      ASSERT_EQ(via_view, expected);
    }
  }
}

class HotpathIndexTest : public ::testing::Test {
 protected:
  static constexpr int kDays = 45;

  void SetUp() override {
    TemporalIndexOptions options;
    options.schema = schema_;
    options.num_levels = 4;
    options.dir = env::JoinPath(dir_.path(), "idx");
    options.device = DeviceModel{500, 0, 0.25};
    auto index = TemporalIndex::Create(options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(index).value();
    Rng rng(77);
    for (int i = 0; i < kDays; ++i) {
      // Every fourth day is quiet enough to store sparse; the rest store
      // delta-varint, as do the rollups.
      ASSERT_TRUE(index_
                      ->AppendDay(first_.AddDays(i),
                                  RandomCube(schema_, &rng,
                                             i % 4 == 0 ? 20 : 200))
                      .ok());
    }
  }

  // A twin of index_ over the same days, stored under `encoding`.
  std::unique_ptr<TemporalIndex> BuildTwin(CubeEncodingPolicy encoding) {
    TemporalIndexOptions options = index_->options();
    options.dir = env::JoinPath(dir_.path(), "twin");
    options.encoding = encoding;
    auto twin = TemporalIndex::Create(options);
    EXPECT_TRUE(twin.ok()) << twin.status().ToString();
    for (int i = 0; i < kDays; ++i) {
      auto cube = index_->ReadCube(CubeKey::Daily(first_.AddDays(i)));
      EXPECT_TRUE(cube.ok());
      EXPECT_TRUE(
          twin.value()->AppendDay(first_.AddDays(i), cube.value()).ok());
    }
    return std::move(twin).value();
  }

  // A random dashboard query over the fixture's days: random window,
  // filters (duplicates included) and group-bys.
  AnalysisQuery RandomQuery(const WorldMap& world, Rng* rng) const {
    AnalysisQuery q;
    int start = static_cast<int>(rng->Uniform(kDays));
    int len = 1 + static_cast<int>(
                      rng->Uniform(static_cast<uint64_t>(kDays - start)));
    q.range = DateRange(first_.AddDays(start), first_.AddDays(start + len - 1));
    if (rng->Bernoulli(0.4)) {
      q.element_types = {static_cast<ElementType>(rng->Uniform(3))};
    }
    if (rng->Bernoulli(0.4)) {
      const auto& countries = world.country_ids();
      q.countries = {countries[rng->Uniform(countries.size())]};
      if (rng->Bernoulli(0.4)) {
        q.countries.push_back(countries[rng->Uniform(countries.size())]);
      }
      if (rng->Bernoulli(0.3)) q.countries.push_back(q.countries[0]);  // dup
    }
    if (rng->Bernoulli(0.3)) {
      q.road_types = {
          static_cast<RoadTypeId>(rng->Uniform(schema_.num_road_types))};
    }
    if (rng->Bernoulli(0.4)) {
      q.update_types = {static_cast<UpdateType>(rng->Uniform(4))};
    }
    q.group_element_type = rng->Bernoulli(0.4);
    q.group_date = rng->Bernoulli(0.25);
    q.group_country = rng->Bernoulli(0.4);
    q.group_road_type = rng->Bernoulli(0.3);
    q.group_update_type = rng->Bernoulli(0.4);
    return q;
  }

  CubeSchema schema_{3, 16, 8, 4};
  Date first_ = Date::FromYmd(2021, 1, 1);
  TempDir dir_{"hotpath-test"};
  std::unique_ptr<TemporalIndex> index_;
};

TEST_F(HotpathIndexTest, BatchedReadCubesMatchesSerialBitForBit) {
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    // A random cover: a contiguous daily stretch plus random weekly /
    // monthly cubes, shuffled — the shape LevelOptimizer plans produce.
    std::vector<CubeKey> keys;
    int start = static_cast<int>(rng.Uniform(kDays - 1));
    int len = 1 + static_cast<int>(rng.Uniform(
                      static_cast<uint64_t>(kDays - start)));
    for (int i = 0; i < len; ++i) {
      keys.push_back(CubeKey::Daily(first_.AddDays(start + i)));
    }
    for (const CubeKey& key :
         index_->ExistingKeys(Level::kWeekly, index_->coverage())) {
      if (rng.Bernoulli(0.5)) keys.push_back(key);
    }
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.Uniform(i)]);
    }

    IoStats batched_io;
    auto batch = index_->ReadCubes(keys, &batched_io);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();

    IoStats serial_io;
    for (size_t i = 0; i < keys.size(); ++i) {
      auto serial = index_->ReadCube(keys[i], &serial_io);
      ASSERT_TRUE(serial.ok());
      // Identical cube content after decoding the batch slot.
      auto decoded = batch.value().Extract(i).Decode();
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_EQ(decoded.value(), serial.value())
          << "trial " << trial << " cube " << i;
    }

    // Transfer accounting identical; device ops and time never worse.
    EXPECT_EQ(batched_io.page_reads, serial_io.page_reads);
    EXPECT_EQ(batched_io.bytes_read, serial_io.bytes_read);
    EXPECT_LE(batched_io.read_ops, serial_io.read_ops);
    EXPECT_LE(batched_io.simulated_device_micros,
              serial_io.simulated_device_micros);
  }
}

// Naive reference executor: the pre-batching hot path — serial ReadCube
// per planned cube, per-cell ForEachCell fold into a tuple-keyed map.
using GroupKey = std::tuple<int32_t, int32_t, int32_t, int32_t, int32_t>;

std::map<GroupKey, uint64_t> NaiveExecute(const TemporalIndex& index,
                                          const QueryExecutor& executor,
                                          const AnalysisQuery& q,
                                          const WorldMap& world,
                                          QueryStats* stats) {
  QueryPlan plan = executor.PlanFor(q);
  stats->cubes_total = plan.cubes.size();
  CubeSlice slice;
  for (ElementType t : q.element_types) {
    slice.element_types.push_back(static_cast<uint32_t>(t));
  }
  if (q.countries.empty()) {
    slice.countries.push_back(kZoneUnknown);
    for (ZoneId id : world.country_ids()) slice.countries.push_back(id);
  } else {
    for (ZoneId z : q.countries) slice.countries.push_back(z);
  }
  for (RoadTypeId r : q.road_types) slice.road_types.push_back(r);
  for (UpdateType u : q.update_types) {
    slice.update_types.push_back(static_cast<uint32_t>(u));
  }
  slice.Normalize();

  std::map<GroupKey, uint64_t> groups;
  for (const CubeKey& key : plan.cubes) {
    auto cube = index.ReadCube(key, &stats->io);
    EXPECT_TRUE(cube.ok());
    ++stats->cubes_from_disk;
    int32_t date_key = q.group_date ? key.range().first.days_since_epoch()
                                    : ResultRow::kNoGroup;
    cube.value().ForEachCell(
        slice, [&](uint32_t et, uint32_t co, uint32_t rt, uint32_t ut,
                   uint64_t count) {
          groups[GroupKey{
              q.group_element_type ? static_cast<int32_t>(et)
                                   : ResultRow::kNoGroup,
              date_key,
              q.group_country ? static_cast<int32_t>(co)
                              : ResultRow::kNoGroup,
              q.group_road_type ? static_cast<int32_t>(rt)
                                : ResultRow::kNoGroup,
              q.group_update_type ? static_cast<int32_t>(ut)
                                  : ResultRow::kNoGroup}] += count;
        });
  }
  return groups;
}

TEST_F(HotpathIndexTest, ExecutorMatchesNaiveReferenceOnRandomQueries) {
  WorldMap world(schema_.num_countries);
  QueryExecutor executor(index_.get(), nullptr, &world);
  Rng rng(47);
  for (int trial = 0; trial < 40; ++trial) {
    AnalysisQuery q = RandomQuery(world, &rng);

    auto result = executor.Execute(q);
    ASSERT_TRUE(result.ok()) << q.ToString();

    QueryStats naive_stats;
    std::map<GroupKey, uint64_t> expected =
        NaiveExecute(*index_, executor, q, world, &naive_stats);

    // Rows must match the reference in content AND order (the map's
    // sorted tuple order is the dashboard's contract).
    ASSERT_EQ(result.value().rows.size(), expected.size()) << q.ToString();
    size_t i = 0;
    for (const auto& [gk, count] : expected) {
      const ResultRow& row = result.value().rows[i++];
      EXPECT_EQ(row.element_type, std::get<0>(gk)) << q.ToString();
      EXPECT_EQ(row.has_date ? row.date.days_since_epoch()
                             : ResultRow::kNoGroup,
                std::get<1>(gk));
      EXPECT_EQ(row.country, std::get<2>(gk));
      EXPECT_EQ(row.road_type, std::get<3>(gk));
      EXPECT_EQ(row.update_type, std::get<4>(gk));
      EXPECT_EQ(row.count, count) << q.ToString();
    }

    // Accounting: same plan, same transfers; batching may only reduce the
    // op count and simulated device time.
    const QueryStats& stats = result.value().stats;
    EXPECT_EQ(stats.cubes_total, naive_stats.cubes_total);
    EXPECT_EQ(stats.cubes_from_disk, naive_stats.cubes_from_disk);
    EXPECT_EQ(stats.io.page_reads, naive_stats.io.page_reads);
    EXPECT_EQ(stats.io.bytes_read, naive_stats.io.bytes_read);
    EXPECT_LE(stats.io.read_ops, naive_stats.io.read_ops);
    EXPECT_LE(stats.io.simulated_device_micros,
              naive_stats.io.simulated_device_micros);
  }
}

TEST_F(HotpathIndexTest, ConcurrentQueriesReproduceSerialAccounting) {
  // The §7 contract: per-query IoStats must be bit-identical between a
  // serial run and an 8-way concurrent run of the same queries, batched
  // reads included. Run under TSan in CI.
  WorldMap world(schema_.num_countries);
  CacheOptions cache_options;
  cache_options.byte_budget = CacheOptions::BytesForCubes(8, schema_);
  cache_options.policy = CachePolicy::kRasedRecency;
  CubeCache cache(cache_options);
  ASSERT_TRUE(cache.Warm(index_.get()).ok());
  QueryExecutor executor(index_.get(), &cache, &world);

  std::vector<AnalysisQuery> queries;
  for (int i = 0; i < 8; ++i) {
    AnalysisQuery q;
    q.range = DateRange(first_.AddDays(i), first_.AddDays(i + 30));
    q.group_country = (i % 2) == 0;
    q.group_date = (i % 3) == 0;
    q.group_update_type = (i % 4) == 0;
    queries.push_back(q);
  }

  std::vector<QueryResult> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = executor.Execute(queries[i]);
    ASSERT_TRUE(result.ok());
    serial[i] = std::move(result).value();
  }

  std::vector<QueryResult> concurrent(queries.size());
  std::vector<std::thread> threads;
  threads.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    threads.emplace_back([&, i] {
      auto result = executor.Execute(queries[i]);
      ASSERT_TRUE(result.ok());
      concurrent[i] = std::move(result).value();
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(concurrent[i].rows.size(), serial[i].rows.size()) << i;
    for (size_t r = 0; r < serial[i].rows.size(); ++r) {
      EXPECT_EQ(concurrent[i].rows[r].count, serial[i].rows[r].count);
      EXPECT_EQ(concurrent[i].rows[r].country, serial[i].rows[r].country);
    }
    EXPECT_TRUE(concurrent[i].stats.io == serial[i].stats.io) << i;
    EXPECT_EQ(concurrent[i].stats.cubes_from_cache,
              serial[i].stats.cubes_from_cache);
    EXPECT_EQ(concurrent[i].stats.cubes_from_disk,
              serial[i].stats.cubes_from_disk);
  }
}

bool RowsIdentical(const std::vector<ResultRow>& a,
                   const std::vector<ResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].element_type != b[i].element_type ||
        a[i].has_date != b[i].has_date ||
        (a[i].has_date && !(a[i].date == b[i].date)) ||
        a[i].country != b[i].country || a[i].road_type != b[i].road_type ||
        a[i].update_type != b[i].update_type || a[i].count != b[i].count) {
      return false;
    }
  }
  return true;
}

// What the cache holds must never show in an answer. Rows are compared
// across four cache states — all hits from widened (dense) entries, all
// hits from entries in stored form, no cache, and LRU-admitted entries —
// on adaptive and forced-dense indexes of the same days, through the
// scalar and the default (AVX2 where available) kernels.
TEST_F(HotpathIndexTest, CacheStatesAnswerBitForBit) {
  WorldMap world(schema_.num_countries);
  std::unique_ptr<TemporalIndex> dense =
      BuildTwin(CubeEncodingPolicy::kForceDense);
  Rng rng(91);
  std::vector<AnalysisQuery> queries;
  for (int i = 0; i < 30; ++i) queries.push_back(RandomQuery(world, &rng));

  std::vector<std::vector<ResultRow>> reference;
  for (bool scalar : {false, true}) {
    kernels::ForceScalarKernelsForTesting(scalar);
    for (TemporalIndex* index : {index_.get(), dense.get()}) {
      const IndexStorageStats storage = index->StorageStats();
      CacheOptions widened;  // room for everything, every delta widened
      widened.byte_budget = uint64_t{1} << 40;
      // Exactly the stored index: every level's share covers the whole
      // budget, so the selection is every cube and nothing can widen.
      CacheOptions stored;
      stored.byte_budget = storage.encoded_bytes;
      stored.alpha = stored.beta = stored.gamma = stored.theta = 1.0;
      CacheOptions lru;
      lru.policy = CachePolicy::kLru;
      lru.byte_budget = uint64_t{1} << 40;
      CubeCache widened_cache(widened);
      CubeCache stored_cache(stored);
      CubeCache lru_cache(lru);
      ASSERT_TRUE(widened_cache.Warm(index).ok());
      ASSERT_TRUE(stored_cache.Warm(index).ok());
      ASSERT_EQ(widened_cache.size(), storage.total_cubes);
      ASSERT_EQ(stored_cache.size(), storage.total_cubes);
      EXPECT_EQ(stored_cache.bytes_used(), storage.encoded_bytes);
      if (index == index_.get()) {
        // The adaptive index really does hold sparse and delta forms.
        CatalogSnapshot snapshot = index->Snapshot();
        int sparse = 0, delta = 0;
        for (const CubeKey& key : snapshot.LatestKeys(Level::kDaily, kDays)) {
          CubeEncoding encoding = snapshot.LocOf(key)->encoding;
          sparse += encoding == CubeEncoding::kSparseCoo ? 1 : 0;
          delta += encoding == CubeEncoding::kDeltaVarint ? 1 : 0;
        }
        EXPECT_GT(sparse, 0);
        EXPECT_GT(delta, 0);
        EXPECT_LT(stored_cache.bytes_used(), widened_cache.bytes_used());
      }

      QueryExecutor no_cache(index, nullptr, &world);
      QueryExecutor on_widened(index, &widened_cache, &world);
      QueryExecutor on_stored(index, &stored_cache, &world);
      QueryExecutor on_lru(index, &lru_cache, &world);
      for (const AnalysisQuery& q : queries) {
        ASSERT_TRUE(on_lru.Execute(q).ok());  // admits every planned cube
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        for (const QueryExecutor* executor :
             {&no_cache, &on_widened, &on_stored, &on_lru}) {
          auto result = executor->Execute(queries[i]);
          ASSERT_TRUE(result.ok()) << queries[i].ToString();
          const QueryStats& stats = result.value().stats;
          if (executor != &no_cache) {
            EXPECT_EQ(stats.cubes_from_cache, stats.cubes_total);
          }
          if (reference.size() <= i) {
            reference.push_back(result.value().rows);
          } else {
            EXPECT_TRUE(RowsIdentical(result.value().rows, reference[i]))
                << queries[i].ToString() << " scalar=" << scalar;
          }
        }
      }
    }
  }
  kernels::ForceScalarKernelsForTesting(false);
}

}  // namespace
}  // namespace rased
