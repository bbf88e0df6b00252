// Mixed ingest/query workload — MVCC non-blocking publication.
//
// The catalog is published as immutable epoch-versioned snapshots: every
// query pins the version it started on, ingest stages new cube pages off
// to the side and swaps in a new version atomically, and retired versions
// are reclaimed once their last reader drains. This bench measures the
// headline claim of that design on the device model:
//
//   * the *reader latency* claim — a query workload running while ingest
//     actively publishes new days has the same device-model makespan as
//     the same workload with no ingest at all (gate: < 10% degradation;
//     the expected number is exactly 0% because per-query accounting is
//     bit-identical, which is also checked row for row), and
//   * the *ingest throughput* claim — MVCC staging costs ingest no more
//     than the old exclusive-lock write path (gate: < 25% extra device
//     time against an ingest-only baseline over a structure-matched
//     window of days), and
//   * the *publication* claim — readers observe at least two distinct
//     epochs across the mixed phase, i.e. publications really do land
//     while the query load runs.
//
// Times are the deterministic device-model makespan (the repo's standard
// methodology, see io/pager.h): a reader worker's cost is the sum of its
// queries' simulated device micros and the pool's makespan is the slowest
// worker; ingest cost is the pager's global device-micros delta minus the
// readers' share. Wall-clock is reported for reference only.
//
// The bench mutates its index (it appends days), so it always builds a
// fresh one instead of using the shared cached bench indexes.
//
// Usage: bench_ingest_vs_query [--quick] [key=value ...]
//   --quick: 1-year base index, fewer queries (CI smoke gate).

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "bench_common.h"
#include "io/env.h"
#include "synth/cube_synthesizer.h"
#include "util/clock.h"

using namespace rased;
using namespace rased::bench;

namespace {

struct QueryRecord {
  IoStats io;
  uint64_t cubes_total = 0;
  uint64_t cubes_from_cache = 0;
  std::vector<ResultRow> rows;
};

bool RowsMatch(const std::vector<ResultRow>& a,
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

/// Runs the fixed workload with `threads` reader workers (round-robin
/// partition, so each worker's device cost is deterministic) and returns
/// the device-model makespan. Fills `got` (indexed by query) and folds
/// each observed QueryStats::epoch into min/max.
int64_t RunReaders(const QueryExecutor& executor,
                   const std::vector<AnalysisQuery>& queries, int threads,
                   std::vector<QueryRecord>* got,
                   std::atomic<uint64_t>* min_epoch,
                   std::atomic<uint64_t>* max_epoch) {
  std::vector<int64_t> worker_micros(static_cast<size_t>(threads), 0);
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < queries.size();
           i += static_cast<size_t>(threads)) {
        auto result = executor.Execute(queries[i]);
        if (!result.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const QueryStats& s = result.value().stats;
        (*got)[i] = QueryRecord{s.io, s.cubes_total, s.cubes_from_cache,
                                std::move(result.value().rows)};
        worker_micros[static_cast<size_t>(t)] += s.io.simulated_device_micros;
        uint64_t seen = s.epoch;
        uint64_t lo = min_epoch->load(std::memory_order_relaxed);
        while (seen < lo &&
               !min_epoch->compare_exchange_weak(lo, seen)) {
        }
        uint64_t hi = max_epoch->load(std::memory_order_relaxed);
        while (seen > hi &&
               !max_epoch->compare_exchange_weak(hi, seen)) {
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  RASED_CHECK(failures.load() == 0) << failures.load() << " queries failed";
  int64_t makespan = 0;
  for (int64_t m : worker_micros) makespan = std::max(makespan, m);
  return makespan;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      quick = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  BenchEnv env = BenchEnv::FromArgs(static_cast<int>(args.size()),
                                    args.data());
  if (quick) {
    env.period = DateRange(Date::FromYmd(2021, 1, 1),
                           Date::FromYmd(2021, 12, 31));
    env.synth.period = env.period;
  }
  // This bench appends days, so it never reuses a cached index: fresh
  // build in its own subdirectory every run.
  env.data_dir = env::JoinPath(env.data_dir,
                               quick ? "mvcc_quick" : "mvcc");
  // NOLINT-RASED(status-discard): a first run has nothing to remove
  (void)env::RemoveAll(env.data_dir);

  auto index = OpenOrBuildIndex(env, /*num_levels=*/4);
  auto world = MakeWorld(env);

  // Static recency cache: warmed once against the base version, never
  // admits or evicts at query time. Appended days never replace a
  // historical page (published pages are immutable and appends only add
  // keys), so cache hits — and per-query I/O — are a pure function of the
  // query across every epoch this bench publishes.
  CacheOptions cache_options;
  const size_t cache_cubes =
      static_cast<size_t>(env.config.GetInt("cache_slots", 128));
  // Sized by the index's average stored cube, not the dense worst case, so
  // the workload stays partially resident (the makespan baseline below
  // requires real device I/O) however well the encodings compress.
  cache_options.byte_budget = BudgetForAverageCubes(*index, cache_cubes);
  cache_options.policy = CachePolicy::kRasedRecency;
  CubeCache cache(cache_options);
  Status warm = cache.Warm(index.get());
  RASED_CHECK(warm.ok()) << warm.ToString();

  QueryExecutor executor(index.get(), &cache, world.get());

  const int threads = env.config.GetInt("threads", 4);
  const int total_queries = quick ? 64 : env.queries_per_point * 16;
  const int span_days = 60;
  // Two structure-matched 35-day ingest windows right after the base
  // period: each holds exactly 5 week boundaries and 1 month boundary, so
  // their maintenance I/O (rollup reads + writes) is comparable within a
  // few percent.
  const int ingest_days = 35;

  Rng rng(env.seed);
  std::vector<AnalysisQuery> queries;
  queries.reserve(static_cast<size_t>(total_queries));
  for (int i = 0; i < total_queries; ++i) {
    queries.push_back(RandomCellQuery(env, *world, rng, span_days));
  }

  CubeSynthesizer synth(env.synth, world.get(), env.schema);
  std::atomic<uint64_t> min_epoch{~0ull};
  std::atomic<uint64_t> max_epoch{0};

  // ---- phase 1: readers-only baseline (device-model makespan and the
  // reference accounting/rows every later query must reproduce).
  index->pager()->ResetStats();
  std::vector<QueryRecord> reference(queries.size());
  int64_t makespan_baseline = RunReaders(executor, queries, threads,
                                         &reference, &min_epoch, &max_epoch);
  RASED_CHECK(makespan_baseline > 0)
      << "workload is fully cache-resident; shrink cache_slots";

  // ---- phase 2: exclusive-ingest baseline (no readers). The pager's
  // global delta is pure ingest cost: the old exclusive-lock design paid
  // exactly this, with every reader parked behind the writer meanwhile.
  index->pager()->ResetStats();
  Date day = env.period.last.next();
  StopWatch exclusive_watch;
  for (int i = 0; i < ingest_days; ++i, day = day.next()) {
    Status s = index->AppendDay(day, synth.DayCube(day));
    RASED_CHECK(s.ok()) << s.ToString();
  }
  double exclusive_wall_ms = exclusive_watch.ElapsedMillis();
  const int64_t ingest_exclusive_micros =
      index->pager()->stats().simulated_device_micros;
  RASED_CHECK(ingest_exclusive_micros > 0);

  // ---- phase 3: mixed. The ingest thread publishes the next 35 days
  // while the reader pool re-runs the identical workload. Epoch-bracket
  // queries (one before the first publication, one after the last) prove
  // at least two distinct epochs are observable in this phase even if the
  // scheduler serializes the threads.
  index->pager()->ResetStats();
  min_epoch.store(~0ull);
  max_epoch.store(0);
  {
    auto bracket = executor.Execute(queries[0]);
    RASED_CHECK(bracket.ok());
    min_epoch.store(bracket.value().stats.epoch);
    max_epoch.store(bracket.value().stats.epoch);
  }

  std::atomic<int> ingest_failures{0};
  StopWatch mixed_watch;
  std::thread ingestor([&] {
    Date d = day;
    for (int i = 0; i < ingest_days; ++i, d = d.next()) {
      Status s = index->AppendDay(d, synth.DayCube(d));
      if (!s.ok()) ingest_failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<QueryRecord> mixed(queries.size());
  int64_t makespan_mixed = RunReaders(executor, queries, threads, &mixed,
                                      &min_epoch, &max_epoch);
  ingestor.join();
  double mixed_wall_ms = mixed_watch.ElapsedMillis();
  RASED_CHECK(ingest_failures.load() == 0);
  {
    auto bracket = executor.Execute(queries[0]);
    RASED_CHECK(bracket.ok());
    uint64_t seen = bracket.value().stats.epoch;
    if (seen > max_epoch.load()) max_epoch.store(seen);
  }

  // Readers' device micros are charged to their own IoStats as well as the
  // pager's global counters, so the global delta minus the readers' share
  // is the ingest thread's cost.
  int64_t mixed_total_micros =
      index->pager()->stats().simulated_device_micros;
  int64_t readers_micros = 0;
  for (const QueryRecord& r : mixed) {
    readers_micros += r.io.simulated_device_micros;
  }
  // The two bracket queries also charged the global counters.
  readers_micros += 2 * reference[0].io.simulated_device_micros;
  const int64_t ingest_mixed_micros = mixed_total_micros - readers_micros;

  // ---- verification gates (all deterministic under the device model) --
  for (size_t i = 0; i < queries.size(); ++i) {
    RASED_CHECK(mixed[i].io == reference[i].io &&
                mixed[i].cubes_total == reference[i].cubes_total &&
                mixed[i].cubes_from_cache == reference[i].cubes_from_cache)
        << "query " << i << " accounting diverged during ingest";
    RASED_CHECK(RowsMatch(mixed[i].rows, reference[i].rows))
        << "query " << i << " rows diverged during ingest";
  }
  double reader_degradation = static_cast<double>(makespan_mixed) /
                              static_cast<double>(makespan_baseline);
  double ingest_overhead = static_cast<double>(ingest_mixed_micros) /
                           static_cast<double>(ingest_exclusive_micros);
  uint64_t epochs_lo = min_epoch.load();
  uint64_t epochs_hi = max_epoch.load();

  PrintHeader(
      "Ingest vs query: MVCC non-blocking publication",
      StrFormat("%d single-cell queries x %d readers vs %d appended days, "
                "%zu-cube-budget warm cache, device model %lld us/page;",
                total_queries, threads, ingest_days, cache_cubes,
                static_cast<long long>(env.device.read_latency_us)) +
          " makespan = slowest reader's summed device micros");
  PrintRow({"phase", "reader makespan", "ingest device", "wall"});
  PrintRow({"readers only",
            FmtMillis(static_cast<double>(makespan_baseline) / 1000.0), "-",
            "-"});
  PrintRow({"ingest only", "-",
            FmtMillis(static_cast<double>(ingest_exclusive_micros) / 1000.0),
            FmtMillis(exclusive_wall_ms)});
  PrintRow({"mixed",
            FmtMillis(static_cast<double>(makespan_mixed) / 1000.0),
            FmtMillis(static_cast<double>(ingest_mixed_micros) / 1000.0),
            FmtMillis(mixed_wall_ms)});
  std::printf("\nreader degradation %.3fx (gate < 1.10), ingest overhead "
              "%.3fx (gate < 1.25), epochs observed %llu..%llu\n",
              reader_degradation, ingest_overhead,
              static_cast<unsigned long long>(epochs_lo),
              static_cast<unsigned long long>(epochs_hi));
  PrintJsonLine(
      "mvcc_ingest",
      {{"threads", static_cast<double>(threads)},
       {"queries", static_cast<double>(total_queries)},
       {"ingest_days", static_cast<double>(ingest_days)},
       {"reader_makespan_ms",
        static_cast<double>(makespan_baseline) / 1000.0},
       {"reader_makespan_mixed_ms",
        static_cast<double>(makespan_mixed) / 1000.0},
       {"reader_degradation", reader_degradation},
       {"ingest_exclusive_ms",
        static_cast<double>(ingest_exclusive_micros) / 1000.0},
       {"ingest_mixed_ms",
        static_cast<double>(ingest_mixed_micros) / 1000.0},
       {"ingest_overhead", ingest_overhead},
       {"epochs_observed",
        static_cast<double>(epochs_hi - epochs_lo + 1)}});

  // The acceptance bars for the MVCC refactor.
  RASED_CHECK(reader_degradation < 1.10)
      << "reader makespan degraded " << reader_degradation
      << "x while ingest was active";
  RASED_CHECK(ingest_overhead < 1.25)
      << "MVCC staging cost ingest " << ingest_overhead
      << "x the exclusive-lock baseline";
  RASED_CHECK(epochs_hi > epochs_lo)
      << "readers never observed a publication";

  std::printf(
      "\nExpected shape: reader degradation is exactly 1.000x — queries pin\n"
      "immutable snapshots, so concurrent publications cannot add a single\n"
      "device microsecond or change a row; ingest pays the same staging\n"
      "I/O it paid under the exclusive lock (within rollup-window noise).\n");
  return 0;
}
