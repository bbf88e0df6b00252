// Shared definitions of the end-to-end benchmark: workload parameters, the
// on-disk input formats written by the generator process, the query lists
// and the expected answers the checker compares against.
#ifndef RASED_PERFBENCH_BENCH_IO_H_
#define RASED_PERFBENCH_BENCH_IO_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cube/cube_schema.h"
#include "io/pager.h"
#include "synth/synth_options.h"
#include "util/date.h"
#include "util/result.h"

namespace perfbench {

using rased::Date;
using rased::DateRange;
using rased::Result;
using rased::Status;

enum class Workload { kPanelsResident, kHistorySpill, kFeedIngest };

Result<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload w);

/// Everything a run's inputs and settings derive from. Two processes with
/// the same (workload, seed, seconds) build the same config.
struct BenchConfig {
  Workload workload = Workload::kPanelsResident;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;

  /// Cube shape: 3 element types x 32 zones x 16 road types x 4 update
  /// types (48 KiB dense cubes).
  rased::CubeSchema schema{3, 32, 16, 4};
  /// Ten years of bulk-loaded history.
  DateRange history{Date::FromYmd(2012, 1, 1), Date::FromYmd(2021, 12, 31)};
  /// The newest history months (from here to the history's end) are
  /// reclassified by monthly crawls during set-up.
  Date setup_from = Date::FromYmd(2021, 7, 1);
  /// World mean updates per day at the history start (grows 22%/year).
  double base_updates_per_day = 400.0;
  /// Simulated device: 2 ms per read/write op plus ~500 MiB/s transfer.
  rased::DeviceModel device{2000, 2000, 1.0 / 500.0 / 1.048576};

  /// history_spill cache budget as a share of the index's encoded bytes.
  double spill_budget_fraction = 0.05;
  /// Closed-loop clients for the query workloads (capped at nproc).
  int clients = 2;
  /// feed_ingest: open-loop reader rate (about 100 requests per month of
  /// feed, which takes about two seconds, so a month's p90 has about ten
  /// samples beyond it) and feed length in months.
  double reader_qps = 50.0;
  int feed_months() const;
  DateRange feed_range() const;

  rased::SynthOptions synth() const;

  std::string Path(const std::string& name) const;
};

// ---- query lists -------------------------------------------------------

/// One dashboard request of a workload's list, with the parameters needed
/// to render it both as an /api/query URL and as the paper's SQL.
struct QuerySpec {
  std::string panel;  // panel/kind name, e.g. "series90"
  Date first, last;
  int country = -1;  // zone id filter, -1 = all
  bool g_country = false, g_date = false, g_element = false,
       g_road = false, g_update = false;
  bool percentage = false;
  bool sql = false;  // send through /api/sql

  /// Path plus query string, URL-encoded; `names` maps zone ids to names.
  std::string Url(const std::vector<std::string>& names) const;
  /// The SQL text (for sql queries).
  std::string Sql(const std::vector<std::string>& names) const;
  /// /api/query form of the same query with the date grouping dropped.
  QuerySpec Ungrouped() const;
};

/// Expected answer: canonical row key -> count (and percentage when asked).
struct ExpectedRow {
  uint64_t count = 0;
  double percentage = 0.0;
};
using RowMap = std::map<std::string, ExpectedRow>;

struct ListedQuery {
  QuerySpec spec;
  RowMap expected;
};

/// Canonical key of one result row: "c=<country>;d=<date>;e=..;r=..;u=..",
/// with only the grouped dimensions present, in that order.
std::string RowKey(const std::string& country, const std::string& date,
                   const std::string& element, const std::string& road,
                   const std::string& update);

// ---- files ---------------------------------------------------------------

/// Zone names and road-network sizes (world map of the schema's zone count).
struct WorldInfo {
  std::vector<std::string> zone_names;
  std::vector<uint64_t> network_size;  // 0 for non-countries
  std::vector<int> country_ids;        // country-kind zones
};

Status WriteWorld(const std::string& path, const WorldInfo& world);
Result<WorldInfo> ReadWorld(const std::string& path);

Status WriteQueries(const std::string& path,
                    const std::vector<ListedQuery>& queries);
Result<std::vector<ListedQuery>> ReadQueries(const std::string& path);

/// Expected figures for feed_ingest: day totals (all countries and one
/// country), per-month per-update-type totals after the monthly rebuild,
/// and the records of sampled changesets.
struct FeedExpect {
  int reader_country = 1;
  std::map<int32_t, uint64_t> day_total;          // days since epoch
  std::map<int32_t, uint64_t> day_country_total;  // for reader_country
  std::map<std::string, uint64_t> month_update;   // "2022-01|new" -> n
  std::map<uint64_t, std::vector<std::string>> changesets;  // id -> rows
  uint64_t feed_updates = 0;
  uint64_t history_updates = 0;  // updates in the set-up index
};

Status WriteFeedExpect(const std::string& path, const FeedExpect& e);
Result<FeedExpect> ReadFeedExpect(const std::string& path);

/// Streams day cubes: one varint per cell, in cell order.
class CubeStreamWriter {
 public:
  Status Open(const std::string& path, uint32_t num_cells);
  Status Append(const std::vector<uint64_t>& cells);
  Status Close();

 private:
  std::FILE* f_ = nullptr;
  std::string buf_;
};

class CubeStreamReader {
 public:
  Status Open(const std::string& path, uint32_t num_cells);
  /// Reads the next day's cells; false at end of stream.
  Result<bool> Next(std::vector<uint64_t>* cells);
  ~CubeStreamReader();

 private:
  int GetByte();

  std::FILE* f_ = nullptr;
  uint32_t num_cells_ = 0;
  std::vector<char> buf_;
  size_t pos_ = 0, len_ = 0;
};

}  // namespace perfbench

#endif  // RASED_PERFBENCH_BENCH_IO_H_
