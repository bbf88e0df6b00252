// Input generator: writes every input of one run (bulk history cubes, the
// monthly full-history files, the replication feed) plus the expected
// answers, computed by brute force over the synthesizer's day cubes and
// the generator's records. Runs in its own process before the measured
// one, so the measured process never holds the inputs in memory.
#include "gen.h"

#include <algorithm>

#include "collect/replication.h"
#include "collect/update_record.h"
#include "geo/world_map.h"
#include "io/env.h"
#include "osm/element.h"
#include "osm/road_types.h"
#include "synth/cube_synthesizer.h"
#include "synth/update_generator.h"
#include "util/random.h"

namespace perfbench {

using rased::ZoneId;

namespace {

/// Brute-force answers: every listed query sums the truth cells of every
/// day in its window, with no index, rollup, optimizer, cache or codec.
class Oracle {
 public:
  Oracle(const rased::CubeSchema& schema, const WorldInfo& world,
         const rased::RoadTypeTable& roads, std::vector<ListedQuery>* queries)
      : schema_(schema), world_(world), queries_(queries) {
    for (uint32_t r = 0; r < schema.num_road_types; ++r) {
      road_names_.push_back(roads.Name(static_cast<rased::RoadTypeId>(r)));
    }
    acc_.resize(queries->size());
    for (size_t i = 0; i < queries->size(); ++i) {
      const QuerySpec& q = (*queries)[i].spec;
      std::vector<int> countries;
      if (q.country >= 0) {
        countries.push_back(q.country);
      } else {
        countries.push_back(static_cast<int>(rased::kZoneUnknown));
        for (int c : world.country_ids) countries.push_back(c);
      }
      countries_.push_back(countries);
    }
  }

  void AddDay(Date day, const std::vector<uint64_t>& cells) {
    for (size_t i = 0; i < queries_->size(); ++i) {
      const QuerySpec& q = (*queries_)[i].spec;
      if (day < q.first || q.last < day) continue;
      std::vector<uint64_t>& acc = acc_[i];
      if (acc.empty()) acc.assign(schema_.num_cells(), 0);
      for (uint32_t e = 0; e < schema_.num_element_types; ++e) {
        for (int c : countries_[i]) {
          const uint32_t uc = static_cast<uint32_t>(c);
          for (uint32_t r = 0; r < schema_.num_road_types; ++r) {
            for (uint32_t u = 0; u < schema_.num_update_types; ++u) {
              uint64_t v = cells[schema_.CellIndex(e, uc, r, u)];
              if (v == 0) continue;
              acc[schema_.CellIndex(q.g_element ? e : 0, q.g_country ? uc : 0,
                                    q.g_road ? r : 0, q.g_update ? u : 0)] +=
                  v;
            }
          }
        }
      }
      if (q.g_date) Flush(i, day.ToString());
    }
  }

  void Finish() {
    for (size_t i = 0; i < queries_->size(); ++i) {
      if (!(*queries_)[i].spec.g_date) Flush(i, "");
    }
  }

 private:
  /// Moves the accumulated slots of query `i` into its expected rows.
  void Flush(size_t i, const std::string& date) {
    ListedQuery& lq = (*queries_)[i];
    const QuerySpec& q = lq.spec;
    std::vector<uint64_t>& acc = acc_[i];
    if (acc.empty()) return;
    for (uint32_t e = 0; e < schema_.num_element_types; ++e) {
      for (uint32_t c = 0; c < schema_.num_countries; ++c) {
        for (uint32_t r = 0; r < schema_.num_road_types; ++r) {
          for (uint32_t u = 0; u < schema_.num_update_types; ++u) {
            uint64_t& v = acc[schema_.CellIndex(e, c, r, u)];
            if (v == 0) continue;
            std::string key = RowKey(
                q.g_country ? world_.zone_names[c] : "", date,
                q.g_element ? std::string(rased::ElementTypeName(
                                  static_cast<rased::ElementType>(e)))
                            : "",
                q.g_road ? road_names_[r] : "",
                q.g_update ? std::string(rased::UpdateTypeName(
                                 static_cast<rased::UpdateType>(u)))
                           : "");
            ExpectedRow& row = lq.expected[key];
            row.count += v;
            if (q.percentage) {
              uint64_t net = world_.network_size[c];
              row.percentage =
                  net > 0 ? 100.0 * static_cast<double>(row.count) /
                                static_cast<double>(net)
                          : 0.0;
            }
            v = 0;
          }
        }
      }
    }
  }

  const rased::CubeSchema& schema_;
  const WorldInfo& world_;
  std::vector<ListedQuery>* queries_;
  std::vector<std::string> road_names_;
  std::vector<std::vector<int>> countries_;
  std::vector<std::vector<uint64_t>> acc_;
};

/// Countries ordered by activity weight, most active first.
std::vector<int> CountriesByActivity(const rased::ActivityModel& model,
                                     const WorldInfo& world) {
  std::vector<int> ids = world.country_ids;
  std::stable_sort(ids.begin(), ids.end(), [&model](int a, int b) {
    return model.CountryWeight(static_cast<ZoneId>(a)) >
           model.CountryWeight(static_cast<ZoneId>(b));
  });
  return ids;
}

Date RandomDay(rased::Rng& rng, Date first, Date last) {
  return first.AddDays(
      static_cast<int>(rng.Uniform(static_cast<uint64_t>(last - first + 1))));
}

/// The Fig 2-5 dashboard refresh: four panels per round, anchored in the
/// last history year.
std::vector<ListedQuery> PanelQueries(const BenchConfig& cfg,
                                      const std::vector<int>& active,
                                      rased::Rng& rng) {
  const int kRounds = 256;
  const Date year_first = cfg.history.last.year_start();
  std::vector<ListedQuery> out;
  auto country = [&]() {
    return active[rng.Uniform(std::min<size_t>(10, active.size()))];
  };
  for (int round = 0; round < kRounds; ++round) {
    ListedQuery series;  // 90-day one-country time series
    series.spec.panel = "series90";
    series.spec.last = RandomDay(rng, year_first, cfg.history.last);
    series.spec.first = series.spec.last.AddDays(-89);
    series.spec.country = country();
    series.spec.g_date = true;
    out.push_back(series);

    ListedQuery choropleth;  // one-year Percentage(*) country choropleth
    choropleth.spec.panel = "choropleth365";
    choropleth.spec.last = RandomDay(rng, year_first, cfg.history.last);
    choropleth.spec.first = choropleth.spec.last.AddDays(-364);
    choropleth.spec.g_country = true;
    choropleth.spec.percentage = true;
    out.push_back(choropleth);

    ListedQuery histogram;  // one-year road type x update type
    histogram.spec.panel = "roadxupdate365";
    histogram.spec.last = RandomDay(rng, year_first, cfg.history.last);
    histogram.spec.first = histogram.spec.last.AddDays(-364);
    histogram.spec.country = country();
    histogram.spec.g_road = true;
    histogram.spec.g_update = true;
    out.push_back(histogram);

    ListedQuery detail;  // 7-day daily detail by update type
    detail.spec.panel = "detail7";
    detail.spec.last = RandomDay(rng, year_first, cfg.history.last);
    detail.spec.first = detail.spec.last.AddDays(-6);
    detail.spec.g_date = true;
    detail.spec.g_update = true;
    out.push_back(detail);
  }
  return out;
}

/// Random-window analysis queries anywhere in the history; every other one
/// goes through /api/sql.
std::vector<ListedQuery> SpillQueries(const BenchConfig& cfg,
                                      const std::vector<int>& active,
                                      rased::Rng& rng) {
  const int kQueries = 1024;
  std::vector<ListedQuery> out;
  for (int i = 0; i < kQueries; ++i) {
    ListedQuery q;
    q.spec.panel = i % 2 == 0 ? "window_api" : "window_sql";
    q.spec.sql = i % 2 == 1;
    int span = static_cast<int>(rng.UniformInt(30, 730));
    q.spec.first = RandomDay(rng, cfg.history.first,
                             cfg.history.last.AddDays(-(span - 1)));
    q.spec.last = q.spec.first.AddDays(span - 1);
    if (rng.Bernoulli(0.5)) {
      q.spec.country = active[rng.Uniform(active.size())];
    }
    switch (rng.Uniform(4)) {
      case 0:
        q.spec.g_country = q.spec.country < 0;
        break;
      case 1:
        q.spec.g_road = true;
        break;
      case 2:
        q.spec.g_update = true;
        break;
      default:
        q.spec.g_element = true;
    }
    out.push_back(q);
  }
  return out;
}

/// Truth cube of a day built from generator records (the monthly crawl's
/// final classification), binned by the record's own fields.
std::vector<uint64_t> BinRecords(const rased::CubeSchema& schema,
                                 const std::vector<rased::UpdateRecord>& rs) {
  std::vector<uint64_t> cells(schema.num_cells(), 0);
  for (const rased::UpdateRecord& r : rs) {
    cells[schema.CellIndex(static_cast<uint32_t>(r.element_type), r.country,
                           r.road_type, static_cast<uint32_t>(r.update_type))]
        += 1;
  }
  return cells;
}

uint64_t PartitionTotal(const rased::CubeSchema& schema,
                        const WorldInfo& world,
                        const std::vector<uint64_t>& cells, int country) {
  std::vector<int> countries;
  if (country >= 0) {
    countries.push_back(country);
  } else {
    countries.push_back(static_cast<int>(rased::kZoneUnknown));
    countries.insert(countries.end(), world.country_ids.begin(),
                     world.country_ids.end());
  }
  uint64_t total = 0;
  for (uint32_t e = 0; e < schema.num_element_types; ++e) {
    for (int c : countries) {
      for (uint32_t r = 0; r < schema.num_road_types; ++r) {
        for (uint32_t u = 0; u < schema.num_update_types; ++u) {
          total += cells[schema.CellIndex(e, static_cast<uint32_t>(c), r, u)];
        }
      }
    }
  }
  return total;
}

std::string MonthTag(Date month) { return month.ToString().substr(0, 7); }

}  // namespace

std::string MonthHistoryPath(const BenchConfig& cfg, Date month) {
  return cfg.Path("month-" + MonthTag(month) + ".history.xml");
}
std::string MonthChangesetsPath(const BenchConfig& cfg, Date month) {
  return cfg.Path("month-" + MonthTag(month) + ".changesets.xml");
}

Status Generate(const BenchConfig& cfg) {
  RASED_RETURN_IF_ERROR(rased::env::CreateDirs(cfg.work_dir));
  const rased::SynthOptions synth = cfg.synth();
  rased::WorldMap world_map(cfg.schema.num_countries);
  rased::ActivityModel model(synth, &world_map, cfg.schema.num_road_types);
  model.InitRoadNetworkSizes(&world_map);

  WorldInfo world;
  for (const rased::Zone& z : world_map.zones()) {
    world.zone_names.push_back(z.name);
    world.network_size.push_back(
        z.kind == rased::ZoneKind::kCountry ? z.road_network_size : 0);
  }
  for (ZoneId id : world_map.country_ids()) {
    world.country_ids.push_back(static_cast<int>(id));
  }
  RASED_RETURN_IF_ERROR(WriteWorld(cfg.Path("world.txt"), world));

  rased::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 17);
  const std::vector<int> active = CountriesByActivity(model, world);
  std::vector<ListedQuery> queries;
  if (cfg.workload == Workload::kPanelsResident) {
    queries = PanelQueries(cfg, active, rng);
  } else if (cfg.workload == Workload::kHistorySpill) {
    queries = SpillQueries(cfg, active, rng);
  }

  rased::RoadTypeTable roads(cfg.schema.num_road_types);
  rased::UpdateGenerator gen(synth, &world_map, &roads);
  rased::CubeSynthesizer cubes(synth, &world_map, cfg.schema);
  Oracle oracle(cfg.schema, world, roads, &queries);

  FeedExpect feed;
  feed.reader_country = active[0];
  const Date totals_from = cfg.history.last.AddDays(-61);

  // Bulk history (synthesizer cubes). The set-up months are loaded from
  // these cubes too and then rebuilt from the monthly crawl, so their truth
  // is the generator's records.
  CubeStreamWriter stream;
  RASED_RETURN_IF_ERROR(stream.Open(cfg.Path("history.cubes"),
                                    static_cast<uint32_t>(
                                        cfg.schema.num_cells())));
  for (Date d = cfg.history.first; d <= cfg.history.last; d = d.next()) {
    rased::DataCube cube = cubes.DayCube(d);
    RASED_RETURN_IF_ERROR(stream.Append(cube.cells()));
    std::vector<uint64_t> truth =
        d < cfg.setup_from ? cube.cells()
                            : BinRecords(cfg.schema, gen.GenerateDayRecords(d));
    oracle.AddDay(d, truth);
    feed.history_updates += PartitionTotal(cfg.schema, world, truth, -1);
    if (!(d < totals_from)) {
      feed.day_total[d.days_since_epoch()] =
          PartitionTotal(cfg.schema, world, truth, -1);
      feed.day_country_total[d.days_since_epoch()] =
          PartitionTotal(cfg.schema, world, truth, feed.reader_country);
    }
  }
  RASED_RETURN_IF_ERROR(stream.Close());

  std::vector<Date> months;
  for (Date m = cfg.setup_from; m <= cfg.history.last; m = m.month_end().next()) {
    months.push_back(m);
  }
  if (cfg.workload == Workload::kFeedIngest) {
    // Daily replication feed: one sequence per day, real OSC + changeset
    // XML. The top-level state.txt is removed at the end; the benchmark
    // publishes the feed month by month by restoring it.
    const DateRange range = cfg.feed_range();
    rased::ReplicationDirectory dir(cfg.Path("feed"));
    uint64_t seq = 0;
    for (Date d = range.first; d <= range.last; d = d.next()) {
      if (d.is_month_start()) months.push_back(d);
      rased::DayArtifacts art = gen.GenerateDayArtifacts(d);
      rased::OsmTimestamp ts{d, 0};
      RASED_RETURN_IF_ERROR(
          dir.Publish(++seq, art.osc_xml, ts, art.changesets_xml));
      std::vector<rased::UpdateRecord> records = gen.GenerateDayRecords(d);
      std::vector<uint64_t> truth = BinRecords(cfg.schema, records);
      feed.day_total[d.days_since_epoch()] = records.size();
      feed.day_country_total[d.days_since_epoch()] =
          PartitionTotal(cfg.schema, world, truth, feed.reader_country);
      feed.feed_updates += records.size();
      for (const rased::UpdateRecord& r : records) {
        feed.month_update[MonthTag(d) + "|" +
                          std::string(rased::UpdateTypeName(r.update_type))]++;
      }
      // Two sampled changesets per week of feed.
      if (d.days_since_epoch() % 7 == 0 && !records.empty()) {
        for (int k = 0; k < 2; ++k) {
          uint64_t id = records[rng.Uniform(records.size())].changeset_id;
          std::vector<std::string>& rows = feed.changesets[id];
          rows.clear();
          for (const rased::UpdateRecord& r : records) {
            if (r.changeset_id != id) continue;
            rased::UpdateType provisional =
                r.update_type == rased::UpdateType::kNew
                    ? rased::UpdateType::kNew
                    : rased::kProvisionalUpdate;
            rows.push_back(RowKey(
                world.zone_names[r.country], d.ToString(),
                std::string(rased::ElementTypeName(r.element_type)),
                roads.Name(r.road_type),
                std::string(rased::UpdateTypeName(provisional))));
          }
          std::sort(rows.begin(), rows.end());
        }
      }
    }
    RASED_RETURN_IF_ERROR(
        rased::env::RemoveFile(rased::env::JoinPath(dir.dir(), "state.txt")));
  }
  RASED_RETURN_IF_ERROR(WriteFeedExpect(cfg.Path("feed_expect.txt"), feed));

  for (Date month : months) {
    rased::MonthArtifacts art = gen.GenerateMonthArtifacts(month);
    RASED_RETURN_IF_ERROR(
        rased::env::WriteFile(MonthHistoryPath(cfg, month), art.history_xml));
    RASED_RETURN_IF_ERROR(rased::env::WriteFile(
        MonthChangesetsPath(cfg, month), art.changesets_xml));
  }

  oracle.Finish();
  return WriteQueries(cfg.Path("queries.txt"), queries);
}

}  // namespace perfbench
