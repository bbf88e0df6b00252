// The measured process: brings a RASED dashboard up from the generated
// inputs, drives one workload against it over loopback HTTP, checks every
// answer, and prints one JSON result line.
#include "run.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "checker.h"
#include "collect/changeset_store.h"
#include "collect/daily_crawler.h"
#include "collect/monthly_crawler.h"
#include "collect/replication.h"
#include "core/rased.h"
#include "core/replication_ingestor.h"
#include "dashboard/dashboard_service.h"
#include "dashboard/http_server.h"
#include "dashboard/render.h"
#include "gen.h"
#include "http_json.h"
#include "io/env.h"
#include "query/sql_parser.h"
#include "spans.h"
#include "util/str_util.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double RssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmRSS:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Peak resident set of the process during the measured window, sampled
/// every 20 ms. (VmHWM would also count the set-up's transient buffers,
/// whose size follows the seed's monthly volumes rather than serving.)
class RssSampler {
 public:
  RssSampler() : peak_(RssMiB()), thread_([this]() { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return std::max(peak_, RssMiB());
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(20),
                         [this]() { return stop_; })) {
      peak_ = std::max(peak_, RssMiB());
    }
  }

  double peak_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank quantile of an unsorted sample (q in [0,1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

/// Window figures taken per slice of the window and then over the best
/// quarter of the slices: the served rate of a slice, and the median and
/// p90 latency of the requests that completed in it. A slice is one second
/// of the closed-loop workloads, or one month of feed_ingest (its CatchUp
/// and its monthly rebuild, so every slice holds every phase of the
/// program's work). Interference from the shared host only ever slows a
/// slice, and it comes and goes over seconds; the best quarter of the
/// slices tracks the program's own speed through it.
struct SlicedFigures {
  double qps = 0, p50_ms = 0, p90_ms = 0;
  size_t slices = 0;
};

/// `ends` holds each slice's end, in seconds since the window started.
SlicedFigures SliceFigures(const std::vector<double>& ends,
                           const std::vector<double>& done_s,
                           const std::vector<double>& latency_ms) {
  SlicedFigures f;
  f.slices = ends.size();
  std::vector<std::vector<double>> by_slice(ends.size());
  for (size_t i = 0; i < done_s.size(); ++i) {
    const size_t k = static_cast<size_t>(
        std::upper_bound(ends.begin(), ends.end(), done_s[i]) - ends.begin());
    if (k < ends.size()) by_slice[k].push_back(latency_ms[i]);
  }
  std::vector<double> rate, p50, p90;
  for (size_t k = 0; k < ends.size(); ++k) {
    const double begin = k == 0 ? 0.0 : ends[k - 1];
    rate.push_back(static_cast<double>(by_slice[k].size()) /
                   std::max(ends[k] - begin, 1e-9));
    if (by_slice[k].empty()) continue;
    p50.push_back(Quantile(by_slice[k], 0.50));
    p90.push_back(Quantile(by_slice[k], 0.90));
  }
  f.qps = Quantile(rate, 0.75);
  f.p50_ms = Quantile(p50, 0.25);
  f.p90_ms = Quantile(p90, 0.25);
  return f;
}

/// Registry totals the cross-checks and per-layer metrics difference.
struct RegistrySnapshot {
  uint64_t page_reads = 0, page_writes = 0, bytes_written = 0;
  uint64_t device_micros = 0;
  uint64_t cache_hits = 0;
  uint64_t http_requests = 0;
  uint64_t http_count = 0;
  int64_t http_micros = 0;
  uint64_t profiler_nanos = 0;
};

RegistrySnapshot TakeSnapshot(rased::MetricsRegistry* m) {
  RegistrySnapshot s;
  const rased::MetricLabels index{{"file", "index"}};
  s.page_reads = m->GetCounter("rased_pager_page_reads_total", "", index)
                     ->value();
  s.page_writes = m->GetCounter("rased_pager_page_writes_total", "", index)
                      ->value();
  s.bytes_written =
      m->GetCounter("rased_pager_bytes_written_total", "", index)->value();
  s.device_micros =
      m->GetCounter("rased_pager_device_micros_total", "", index)->value();
  s.cache_hits = m->GetCounter("rased_cache_hits_total", "")->value();
  for (const char* endpoint : {"/api/query", "/api/sql"}) {
    const rased::MetricLabels l{{"endpoint", endpoint}};
    s.http_requests += m->GetCounter("rased_http_requests_total", "", l)
                           ->value();
    rased::Histogram* h = m->GetHistogram("rased_http_request_micros", "",
                                          rased::HistogramOptions{}, l);
    s.http_count += h->count();
    s.http_micros += h->sum();
  }
  s.profiler_nanos =
      m->GetCounter("rased_profiler_handler_nanos_total", "")->value();
  return s;
}

/// Per-thread accumulation of one run's query outcomes.
struct QueryTally {
  std::vector<double> latency_ms;
  /// When each answered request completed, in seconds since the window
  /// started (parallel to latency_ms).
  std::vector<double> done_s;
  uint64_t attempted = 0, failed = 0, ok = 0;
  uint64_t cubes_total = 0, cubes_from_cache = 0, page_reads = 0;
  int64_t device_micros = 0;
  double round_trip_us = 0;
  // Traced in-process replays of the same queries.
  uint64_t replays = 0, sql_replays = 0;
  double parse_us = 0, sql_parse_us = 0, plan_us = 0, execute_us = 0,
         render_us = 0, aggregate_us = 0, probe_us = 0, fetch_us = 0;
  uint64_t response_bytes = 0, alloc_bytes = 0;
  uint64_t r_cubes = 0, r_cubes_from_cache = 0, r_level[4] = {0, 0, 0, 0};
  rased::IoStats r_io;

  void Merge(const QueryTally& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
    attempted += o.attempted;
    failed += o.failed;
    ok += o.ok;
    cubes_total += o.cubes_total;
    cubes_from_cache += o.cubes_from_cache;
    page_reads += o.page_reads;
    device_micros += o.device_micros;
    round_trip_us += o.round_trip_us;
    replays += o.replays;
    sql_replays += o.sql_replays;
    parse_us += o.parse_us;
    sql_parse_us += o.sql_parse_us;
    plan_us += o.plan_us;
    execute_us += o.execute_us;
    render_us += o.render_us;
    aggregate_us += o.aggregate_us;
    probe_us += o.probe_us;
    fetch_us += o.fetch_us;
    response_bytes += o.response_bytes;
    alloc_bytes += o.alloc_bytes;
    r_cubes += o.r_cubes;
    r_cubes_from_cache += o.r_cubes_from_cache;
    for (int i = 0; i < 4; ++i) r_level[i] += o.r_level[i];
    r_io += o.r_io;
  }
};

class Harness {
 public:
  Harness(const BenchConfig& cfg, Clock::time_point process_start)
      : cfg_(cfg), process_start_(process_start), spans_(cfg.trace) {}

  Status Setup();
  Status RunQueries();
  Status RunFeed();
  Status PostChecks();
  /// Traced run: totals reached by two different paths must agree.
  void CrossChecks();
  /// Diagnostics on stderr (the result line goes to stdout).
  void Report() const;
  void Teardown();
  std::string ResultLine();

 private:
  /// One HTTP request of the list (or a reader window); checks the answer
  /// and, when tracing, replays it in-process through the module calls.
  void IssueQuery(const QuerySpec& spec, const RowMap* expected,
                  size_t list_index, QueryTally* tally,
                  uint64_t* request_span,
                  Clock::time_point timed_from);
  void ReplayTraced(const QuerySpec& spec, QueryTally* tally,
                    uint64_t request_span);
  Status IngestMonthTraced(uint64_t first_seq, uint64_t last_seq,
                           uint64_t* records);
  Status ApplyMonth(Date month, bool in_window);
  Result<RowMap> FetchRows(const QuerySpec& spec);
  void SelfTest(const RowMap& answer, bool percentage);

  const BenchConfig cfg_;
  const Clock::time_point process_start_;
  SpanRecorder spans_;
  CheckLog checks_;

  WorldInfo world_;
  std::vector<ListedQuery> queries_;
  FeedExpect feed_;
  std::unique_ptr<rased::Rased> rased_;
  std::unique_ptr<rased::DashboardService> service_;
  rased::RenderContext ctx_;

  // Set-up figures.
  double setup_s_ = 0, bulk_s_ = 0, sync_ms_ = 0, warm_ms_ = 0;
  uint64_t bulk_updates_ = 0, bulk_days_ = 0;
  uint64_t bulk_page_writes_ = 0, bulk_bytes_written_ = 0;
  std::vector<double> setup_month_s_;
  std::vector<double> monthly_crawl_ms_;
  uint64_t cache_budget_ = 0;

  // Window figures.
  QueryTally tally_;
  Clock::time_point window_start_;
  /// Ends of the window's slices (see SliceFigures), in seconds since
  /// window_start_.
  std::vector<double> slice_ends_;
  double window_s_ = 0, window_cpu_s_ = 0, peak_rss_mb_ = 0;
  RegistrySnapshot before_, after_;
  std::vector<std::atomic<int64_t>> device_by_query_;
  uint64_t ingest_ops_ = 0;
  double generator_late_ms_max_ = 0, generator_late_ms_mean_ = 0;

  // Feed figures.
  uint64_t feed_records_ = 0, feed_days_ = 0;
  double catchup_s_ = 0;
  uint64_t catchup_records_ = 0;
  std::vector<double> month_rebuild_s_;
  uint64_t feed_page_writes_ = 0, feed_bytes_written_ = 0;
  // Traced manual months: per-layer sums.
  uint64_t traced_days_ = 0, traced_records_ = 0, osc_bytes_ = 0;
  double feed_read_ms_ = 0, crawl_ms_ = 0, ingest_records_ms_ = 0,
         cursor_ms_ = 0;
  std::string pager_stats_note_;
  std::string ingest_cross_check_;
};

Status Harness::Setup() {
  RASED_ASSIGN_OR_RETURN(world_, ReadWorld(cfg_.Path("world.txt")));
  RASED_ASSIGN_OR_RETURN(queries_, ReadQueries(cfg_.Path("queries.txt")));
  RASED_ASSIGN_OR_RETURN(feed_, ReadFeedExpect(cfg_.Path("feed_expect.txt")));
  device_by_query_ = std::vector<std::atomic<int64_t>>(queries_.size());
  for (auto& d : device_by_query_) d.store(-1);

  const uint64_t setup_span = spans_.Begin("setup", 0, 0);
  rased::RasedOptions options;
  options.dir = cfg_.Path("rased");
  RASED_RETURN_IF_ERROR(rased::env::RemoveAll(options.dir));
  options.schema = cfg_.schema;
  options.device = cfg_.device;
  options.enable_warehouse = cfg_.workload == Workload::kFeedIngest;
  {
    RASED_ASSIGN_OR_RETURN(std::unique_ptr<rased::Rased> loader,
                           rased::Rased::Create(options));
    for (int c : world_.country_ids) {
      loader->mutable_world()->SetRoadNetworkSize(
          static_cast<rased::ZoneId>(c), world_.network_size[c]);
    }
    // Bulk history: stream the day cubes; only IngestDayCube is timed
    // into the bulk-ingest rate.
    const uint64_t bulk_span = spans_.Begin("core.bulk_append", setup_span, 0);
    RegistrySnapshot w0 = TakeSnapshot(loader->metrics());
    CubeStreamReader stream;
    RASED_RETURN_IF_ERROR(stream.Open(
        cfg_.Path("history.cubes"),
        static_cast<uint32_t>(cfg_.schema.num_cells())));
    std::vector<uint64_t> cells;
    rased::DataCube cube(cfg_.schema);
    std::vector<int> partition = {static_cast<int>(rased::kZoneUnknown)};
    partition.insert(partition.end(), world_.country_ids.begin(),
                     world_.country_ids.end());
    for (Date d = cfg_.history.first; d <= cfg_.history.last; d = d.next()) {
      RASED_ASSIGN_OR_RETURN(bool more, stream.Next(&cells));
      if (!more) return Status::Corruption("history stream ends early");
      cube.Clear();
      for (uint32_t e = 0; e < cfg_.schema.num_element_types; ++e) {
        for (uint32_t c = 0; c < cfg_.schema.num_countries; ++c) {
          for (uint32_t r = 0; r < cfg_.schema.num_road_types; ++r) {
            for (uint32_t u = 0; u < cfg_.schema.num_update_types; ++u) {
              uint64_t v = cells[cfg_.schema.CellIndex(e, c, r, u)];
              if (v != 0) cube.Add(e, c, r, u, v);
            }
          }
        }
      }
      for (uint32_t e = 0; e < cfg_.schema.num_element_types; ++e) {
        for (int c : partition) {
          for (uint32_t r = 0; r < cfg_.schema.num_road_types; ++r) {
            for (uint32_t u = 0; u < cfg_.schema.num_update_types; ++u) {
              bulk_updates_ += cells[cfg_.schema.CellIndex(
                  e, static_cast<uint32_t>(c), r, u)];
            }
          }
        }
      }
      Clock::time_point t = Clock::now();
      RASED_RETURN_IF_ERROR(loader->IngestDayCube(d, cube));
      bulk_s_ += SecondsSince(t);
      ++bulk_days_;
    }
    RegistrySnapshot w1 = TakeSnapshot(loader->metrics());
    bulk_page_writes_ = w1.page_writes - w0.page_writes;
    bulk_bytes_written_ = w1.bytes_written - w0.bytes_written;
    spans_.End(bulk_span);

    // The newest months' full-history crawls reclassify them.
    rased_ = std::move(loader);
    for (Date m = cfg_.setup_from; m <= cfg_.history.last;
         m = m.month_end().next()) {
      RASED_RETURN_IF_ERROR(ApplyMonth(m, /*in_window=*/false));
    }
    const uint64_t sync_span = spans_.Begin("core.sync", setup_span, 0);
    Clock::time_point t = Clock::now();
    RASED_RETURN_IF_ERROR(rased_->Sync());
    sync_ms_ = SecondsSince(t) * 1e3;
    spans_.End(sync_span);
    const uint64_t encoded = rased_->index()->StorageStats().encoded_bytes;
    if (cfg_.workload == Workload::kHistorySpill) {
      options.cache.byte_budget = static_cast<uint64_t>(
          cfg_.spill_budget_fraction * static_cast<double>(encoded));
    }
    rased_.reset();
  }

  const uint64_t open_span = spans_.Begin("core.open", setup_span, 0);
  RASED_ASSIGN_OR_RETURN(rased_, rased::Rased::Open(options));
  spans_.End(open_span);
  cache_budget_ = options.cache.byte_budget;
  const uint64_t warm_span = spans_.Begin("core.warm_cache", setup_span, 0);
  Clock::time_point t = Clock::now();
  RASED_RETURN_IF_ERROR(rased_->WarmCache());
  warm_ms_ = SecondsSince(t) * 1e3;
  spans_.End(warm_span);

  const uint64_t start_span = spans_.Begin("dashboard.start", setup_span, 0);
  service_ = std::make_unique<rased::DashboardService>(rased_.get());
  RASED_RETURN_IF_ERROR(service_->Start(0));
  spans_.End(start_span);
  spans_.End(setup_span);
  setup_s_ = SecondsSince(process_start_);
  // Hand the set-up's freed heap (monthly XML, staging buffers) back to
  // the kernel, so the window's resident set is the serving process's live
  // memory rather than whatever glibc happened to retain.
  malloc_trim(0);
  ctx_.world = &rased_->world();
  ctx_.road_types = rased_->road_types();
  return Status::OK();
}

Status Harness::ApplyMonth(Date month, bool in_window) {
  RASED_ASSIGN_OR_RETURN(std::string history,
                         rased::env::ReadFile(MonthHistoryPath(cfg_, month)));
  RASED_ASSIGN_OR_RETURN(
      std::string changesets,
      rased::env::ReadFile(MonthChangesetsPath(cfg_, month)));
  const uint64_t month_span =
      spans_.Begin("ingest.month", 0, static_cast<uint64_t>(
                                          month.days_since_epoch()));
  if (cfg_.trace) {
    // Side crawl of the same files, timed on its own: the monthly crawler's
    // share of the rebuild.
    const uint64_t s = spans_.Begin("collect.monthly_crawl", month_span, 0);
    Clock::time_point t = Clock::now();
    rased::ChangesetStore store;
    RASED_RETURN_IF_ERROR(store.AddFromXml(changesets));
    rased::MonthlyCrawler crawler(&rased_->world(), rased_->road_types());
    std::vector<rased::UpdateRecord> records;
    RASED_RETURN_IF_ERROR(crawler.CrawlHistory(
        history, store, rased::DateRange(month, month.month_end()), &records));
    monthly_crawl_ms_.push_back(SecondsSince(t) * 1e3);
    spans_.End(s);
  }
  const uint64_t s = spans_.Begin("core.apply_monthly", month_span, 0);
  Clock::time_point t = Clock::now();
  RASED_RETURN_IF_ERROR(
      rased_->ApplyMonthlyArtifacts(month, history, changesets));
  const double secs = SecondsSince(t);
  spans_.End(s);
  spans_.End(month_span);
  (in_window ? month_rebuild_s_ : setup_month_s_).push_back(secs);
  return Status::OK();
}

void Harness::IssueQuery(const QuerySpec& spec, const RowMap* expected,
                         size_t list_index, QueryTally* tally,
                         uint64_t* request_span,
                         Clock::time_point timed_from) {
  ++tally->attempted;
  *request_span = spans_.Begin("request", 0, 0);
  const uint64_t rt_span = spans_.Begin("http.round_trip", *request_span, 0);
  Clock::time_point sent = Clock::now();
  auto reply = HttpGet(service_->port(), spec.Url(world_.zone_names));
  Clock::time_point done = Clock::now();
  spans_.End(rt_span);
  if (!reply.ok() || reply.value().status != 200) {
    ++tally->failed;
    checks_.Fail(spec.Url(world_.zone_names) + ": " +
                 (reply.ok() ? "HTTP " + std::to_string(reply.value().status)
                             : reply.status().ToString()));
    return;
  }
  ++tally->ok;
  tally->latency_ms.push_back(
      std::chrono::duration<double, std::milli>(done - timed_from).count());
  tally->done_s.push_back(
      std::chrono::duration<double>(done - window_start_).count());
  tally->round_trip_us +=
      std::chrono::duration<double, std::micro>(done - sent).count();
  auto answer = ParseAnswer(reply.value().body);
  if (!answer.ok()) {
    checks_.Fail(answer.status().ToString());
    return;
  }
  const ParsedAnswer& a = answer.value();
  tally->cubes_total += a.cubes_total;
  tally->cubes_from_cache += a.cubes_from_cache;
  tally->page_reads += a.page_reads;
  tally->device_micros += a.device_micros;
  if (expected != nullptr) {
    std::string diff = CompareRows(*expected, a.rows, spec.percentage);
    if (!diff.empty()) checks_.Fail(spec.Url(world_.zone_names) + ": " + diff);
  }
  if (list_index < device_by_query_.size() &&
      cfg_.workload != Workload::kFeedIngest) {
    // With the static recency cache and no ingest, a query's device time
    // is a function of the query alone.
    int64_t seen = -1;
    if (!device_by_query_[list_index].compare_exchange_strong(
            seen, a.device_micros) &&
        seen != a.device_micros) {
      checks_.Fail(rased::StrFormat(
          "query %zu device time %" PRId64 " us, earlier %" PRId64 " us",
          list_index, a.device_micros, seen));
    }
  }
}

void Harness::ReplayTraced(const QuerySpec& spec, QueryTally* tally,
                           uint64_t request_span) {
  using Micro = std::chrono::duration<double, std::micro>;
  rased::AnalysisQuery query;
  Clock::time_point t0 = Clock::now();
  if (spec.sql) {
    const uint64_t s = spans_.Begin("query.sql_parse", request_span, 0);
    rased::SqlParser parser(&rased_->world(), rased_->road_types());
    auto parsed = parser.Parse(spec.Sql(world_.zone_names));
    spans_.End(s);
    if (!parsed.ok()) {
      checks_.Fail("SqlParser: " + parsed.status().ToString());
      return;
    }
    query = std::move(parsed).value();
    tally->sql_parse_us += Micro(Clock::now() - t0).count();
    ++tally->sql_replays;
  } else {
    const std::string url = spec.Url(world_.zone_names);
    rased::HttpRequest request;
    request.method = "GET";
    request.path = "/api/query";
    request.params =
        rased::HttpServer::ParseQuery(url.substr(url.find('?') + 1));
    t0 = Clock::now();
    const uint64_t s = spans_.Begin("dashboard.parse_params", request_span, 0);
    auto parsed = service_->ParseQueryParams(request);
    spans_.End(s);
    if (!parsed.ok()) {
      checks_.Fail("ParseQueryParams: " + parsed.status().ToString());
      return;
    }
    query = std::move(parsed).value();
    tally->parse_us += Micro(Clock::now() - t0).count();
  }
  Clock::time_point t1 = Clock::now();
  uint64_t s = spans_.Begin("query.plan", request_span, 0);
  // Planning is timed on its own here; Rased::Query plans again.
  (void)rased_->executor()->PlanFor(query);
  spans_.End(s);
  Clock::time_point t2 = Clock::now();
  s = spans_.Begin("query.execute", request_span, 0);
  auto result = rased_->Query(query);
  spans_.End(s);
  Clock::time_point t3 = Clock::now();
  if (!result.ok()) {
    checks_.Fail("Rased::Query: " + result.status().ToString());
    return;
  }
  s = spans_.Begin("dashboard.render_json", request_span, 0);
  std::string body = rased::RenderJson(result.value(), query, ctx_);
  spans_.End(s);
  Clock::time_point t4 = Clock::now();
  tally->plan_us += Micro(t2 - t1).count();
  tally->execute_us += Micro(t3 - t2).count();
  tally->render_us += Micro(t4 - t3).count();
  tally->response_bytes += body.size();
  const rased::QueryStats& st = result.value().stats;
  for (const rased::TraceSpan& span : result.value().spans) {
    if (span.name == "aggregate") tally->aggregate_us += static_cast<double>(span.wall_micros);
    if (span.name == "cache_probe") tally->probe_us += static_cast<double>(span.wall_micros);
    if (span.name == "fetch") tally->fetch_us += static_cast<double>(span.wall_micros);
  }
  tally->alloc_bytes += st.alloc_bytes;
  tally->r_cubes += st.cubes_total;
  tally->r_cubes_from_cache += st.cubes_from_cache;
  for (int i = 0; i < 4; ++i) tally->r_level[i] += st.cubes_per_level[i];
  tally->r_io += st.io;
  ++tally->replays;
}

Status Harness::RunQueries() {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int clients = std::max(1, std::min(cfg_.clients, nproc));
  // A round is the whole panel refresh (4 requests) on panels_resident and
  // one request on history_spill; clients stop only between rounds.
  const size_t round = cfg_.workload == Workload::kPanelsResident ? 4 : 1;
  const size_t rounds_in_list = queries_.size() / round;
  std::atomic<size_t> next_round{0};
  std::vector<QueryTally> tallies(static_cast<size_t>(clients));
  before_ = TakeSnapshot(rased_->metrics());
  RssSampler rss;
  const double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now();
  window_start_ = start;
  const Clock::time_point end = start + std::chrono::seconds(cfg_.seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      QueryTally& tally = tallies[static_cast<size_t>(c)];
      while (Clock::now() < end) {
        const size_t r = next_round.fetch_add(1) % rounds_in_list;
        for (size_t i = r * round; i < (r + 1) * round; ++i) {
          uint64_t request_span = 0;
          Clock::time_point t = Clock::now();
          IssueQuery(queries_[i].spec, &queries_[i].expected, i, &tally,
                     &request_span, t);
          if (cfg_.trace) ReplayTraced(queries_[i].spec, &tally, request_span);
          spans_.End(request_span);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  window_s_ = SecondsSince(start);
  window_cpu_s_ = CpuSeconds() - cpu0;
  peak_rss_mb_ = rss.Stop();
  after_ = TakeSnapshot(rased_->metrics());
  for (const QueryTally& t : tallies) tally_.Merge(t);
  for (int k = 1; k <= cfg_.seconds; ++k) slice_ends_.push_back(k);
  if (next_round.load() < rounds_in_list) {
    checks_.Fail("run too short to issue every listed query once");
  }
  return Status::OK();
}

Status Harness::IngestMonthTraced(uint64_t first_seq, uint64_t last_seq,
                                  uint64_t* records) {
  using Milli = std::chrono::duration<double, std::milli>;
  rased::ReplicationDirectory feed(cfg_.Path("feed"));
  // The ingestor's cursor, advanced after each day as CatchUp does.
  rased::ReplicationCursor cursor(
      rased::env::JoinPath(cfg_.Path("rased"), "replication.cursor"));
  for (uint64_t seq = first_seq; seq <= last_seq; ++seq) {
    RASED_ASSIGN_OR_RETURN(rased::ReplicationState state, feed.StateOf(seq));
    const Date day = state.timestamp.date;
    const uint64_t day_span = spans_.Begin(
        "ingest.day", 0, static_cast<uint64_t>(day.days_since_epoch()));
    Clock::time_point t0 = Clock::now();
    uint64_t s = spans_.Begin("collect.feed_read", day_span, 0);
    RASED_ASSIGN_OR_RETURN(std::string osc, feed.ReadDiff(seq));
    RASED_ASSIGN_OR_RETURN(std::string cs_xml, feed.ReadChangesets(seq));
    spans_.End(s);
    Clock::time_point t1 = Clock::now();
    s = spans_.Begin("collect.crawl", day_span, 0);
    rased::ChangesetStore store;
    RASED_RETURN_IF_ERROR(store.AddFromXml(cs_xml));
    rased::DailyCrawler crawler(&rased_->world(), rased_->road_types(),
                                rased_->metrics());
    std::vector<rased::UpdateRecord> day_records;
    RASED_RETURN_IF_ERROR(crawler.CrawlDiff(osc, store, &day_records));
    spans_.End(s);
    Clock::time_point t2 = Clock::now();
    s = spans_.Begin("core.ingest_records", day_span, 0);
    RASED_RETURN_IF_ERROR(rased_->IngestDayRecords(day, day_records));
    spans_.End(s);
    Clock::time_point t3 = Clock::now();
    s = spans_.Begin("collect.cursor_advance", day_span, 0);
    RASED_RETURN_IF_ERROR(cursor.Advance(seq));
    spans_.End(s);
    Clock::time_point t4 = Clock::now();
    spans_.End(day_span);
    feed_read_ms_ += Milli(t1 - t0).count();
    crawl_ms_ += Milli(t2 - t1).count();
    ingest_records_ms_ += Milli(t3 - t2).count();
    cursor_ms_ += Milli(t4 - t3).count();
    osc_bytes_ += osc.size();
    ++traced_days_;
    traced_records_ += day_records.size();
    *records += day_records.size();
  }
  return Status::OK();
}

Status Harness::RunFeed() {
  rased::ReplicationIngestor ingestor(rased_.get(), cfg_.Path("feed"));
  const DateRange range = cfg_.feed_range();
  std::atomic<bool> stop{false};
  QueryTally reader_tally;
  std::vector<double> late_ms;
  before_ = TakeSnapshot(rased_->metrics());
  RssSampler rss;
  const double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now();
  window_start_ = start;

  // One open-loop reader at a fixed rate; each request is timed from when
  // it was due.
  std::thread reader([&]() {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / cfg_.reader_qps));
    for (uint64_t k = 0;; ++k) {
      const Clock::time_point due = start + period * static_cast<int64_t>(k);
      std::this_thread::sleep_until(due);
      if (stop.load()) break;
      late_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
      const Date newest = rased_->index()->coverage().last;
      QuerySpec spec;
      const bool week = k % 2 == 0;
      spec.panel = week ? "newest7" : "newest30";
      spec.last = newest;
      spec.first = newest.AddDays(week ? -6 : -29);
      spec.country = week ? -1 : feed_.reader_country;
      spec.g_date = true;
      RowMap expected;
      for (Date d = spec.first; d <= spec.last; d = d.next()) {
        const auto& totals = week ? feed_.day_total : feed_.day_country_total;
        auto it = totals.find(d.days_since_epoch());
        if (it != totals.end() && it->second > 0) {
          expected[RowKey("", d.ToString(), "", "", "")].count = it->second;
        }
      }
      uint64_t request_span = 0;
      IssueQuery(spec, &expected, SIZE_MAX, &reader_tally, &request_span,
                 due);
      if (cfg_.trace) ReplayTraced(spec, &reader_tally, request_span);
      spans_.End(request_span);
    }
  });

  Status status;
  uint64_t seq = 0;
  int month_index = 0;
  for (Date month = range.first; month <= range.last;
       month = month.month_end().next(), ++month_index) {
    const uint64_t first_seq = seq + 1;
    seq += static_cast<uint64_t>(month.month_end() - month + 1);
    // Publish the month: restore the feed's top-level state to its last
    // sequence.
    rased::ReplicationDirectory feed(cfg_.Path("feed"));
    auto state = feed.StateOf(seq);
    if (!state.ok()) {
      status = state.status();
      break;
    }
    status = rased::env::WriteFileAtomic(
        rased::env::JoinPath(feed.dir(), "state.txt"), state.value().Format());
    if (!status.ok()) break;

    RegistrySnapshot w0 = TakeSnapshot(rased_->metrics());
    Clock::time_point t = Clock::now();
    uint64_t records = 0;
    const bool manual = cfg_.trace && month_index % 2 == 1;
    if (manual) {
      status = IngestMonthTraced(first_seq, seq, &records);
    } else {
      auto stats = ingestor.CatchUp(/*finalize_all=*/true);
      if (stats.ok()) {
        records = stats.value().records_ingested;
        catchup_s_ += SecondsSince(t);
        catchup_records_ += records;
      } else {
        status = stats.status();
      }
    }
    if (!status.ok()) break;
    RegistrySnapshot w1 = TakeSnapshot(rased_->metrics());
    feed_page_writes_ += w1.page_writes - w0.page_writes;
    feed_bytes_written_ += w1.bytes_written - w0.bytes_written;
    feed_records_ += records;
    feed_days_ += first_seq <= seq ? seq - first_seq + 1 : 0;
    ingest_ops_ += 1;
    status = ApplyMonth(month, /*in_window=*/true);
    if (!status.ok()) break;
    slice_ends_.push_back(SecondsSince(start));
    ingest_ops_ += 1;
  }
  stop.store(true);
  reader.join();
  window_s_ = SecondsSince(start);
  window_cpu_s_ = CpuSeconds() - cpu0;
  peak_rss_mb_ = rss.Stop();
  after_ = TakeSnapshot(rased_->metrics());
  tally_.Merge(reader_tally);
  if (!late_ms.empty()) {
    generator_late_ms_max_ = *std::max_element(late_ms.begin(), late_ms.end());
    double sum = 0;
    for (double v : late_ms) sum += v;
    generator_late_ms_mean_ = sum / static_cast<double>(late_ms.size());
  }
  // Rased::WarmCache resets the index pager's totals, so Pager::stats()
  // stops adding up to the per-query I/O once a monthly rebuild re-warms;
  // reported for comparison with the registry counters.
  const rased::IoStats pager = rased_->index()->pager()->stats();
  pager_stats_note_ = rased::StrFormat(
      "Pager::stats().page_reads=%" PRIu64 " vs summed per-query %" PRIu64,
      pager.page_reads, tally_.page_reads + tally_.r_io.page_reads);
  return status;
}

Result<RowMap> Harness::FetchRows(const QuerySpec& spec) {
  RASED_ASSIGN_OR_RETURN(HttpReply reply,
                         HttpGet(service_->port(), spec.Url(world_.zone_names)));
  if (reply.status != 200) {
    return Status::IOError("HTTP " + std::to_string(reply.status) + " for " +
                           spec.Url(world_.zone_names));
  }
  RASED_ASSIGN_OR_RETURN(ParsedAnswer answer, ParseAnswer(reply.body));
  return answer.rows;
}

void Harness::SelfTest(const RowMap& answer, bool percentage) {
  std::string failure = CheckerSelfTest(answer, percentage);
  if (!failure.empty()) checks_.Fail("checker self-test: " + failure);
}

Status Harness::PostChecks() {
  // Every date-grouped series must sum to the ungrouped total of its
  // window (the series plans daily cubes, the total plans rollups).
  size_t series_checked = 0;
  for (const ListedQuery& q : queries_) {
    if (!q.spec.g_date) continue;
    RASED_ASSIGN_OR_RETURN(RowMap series, FetchRows(q.spec));
    RASED_ASSIGN_OR_RETURN(RowMap total, FetchRows(q.spec.Ungrouped()));
    std::string diff = CompareRows(SumOverDates(series), total, false);
    if (!diff.empty()) checks_.Fail("series vs total: " + diff);
    ++series_checked;
  }
  if (!queries_.empty()) {
    const ListedQuery& q = queries_.front();
    RASED_ASSIGN_OR_RETURN(RowMap answer, FetchRows(q.spec));
    SelfTest(answer, q.spec.percentage);
  }
  if (cfg_.workload != Workload::kFeedIngest) return Status::OK();

  const DateRange range = cfg_.feed_range();
  if (feed_records_ != feed_.feed_updates) {
    checks_.Fail(rased::StrFormat("ingested %" PRIu64 " updates, feed has %"
                                  PRIu64, feed_records_, feed_.feed_updates));
  }
  // Per-day totals over the whole feed, from one date-grouped query.
  QuerySpec days;
  days.first = range.first;
  days.last = range.last;
  days.g_date = true;
  RASED_ASSIGN_OR_RETURN(RowMap got_days, FetchRows(days));
  std::map<std::string, uint64_t> want, got;
  for (Date d = range.first; d <= range.last; d = d.next()) {
    want[RowKey("", d.ToString(), "", "", "")] =
        feed_.day_total.at(d.days_since_epoch());
  }
  for (const auto& [k, r] : got_days) got[k] = r.count;
  std::string diff = CompareCounts(want, got);
  if (!diff.empty()) checks_.Fail("feed day totals: " + diff);
  // The series must also sum to the window total (rollup plan).
  RASED_ASSIGN_OR_RETURN(RowMap feed_total, FetchRows(days.Ungrouped()));
  diff = CompareRows(SumOverDates(got_days), feed_total, false);
  if (!diff.empty()) checks_.Fail("feed series vs total: " + diff);
  {
    // Self-test on real figures: one update dropped from the day totals.
    std::map<std::string, uint64_t> dropped = got;
    if (!dropped.empty()) dropped.begin()->second -= 1;
    if (CompareCounts(want, dropped).empty()) {
      checks_.Fail("checker self-test: a dropped update went unnoticed");
    }
  }
  // Per-month final update-type totals after each monthly rebuild.
  for (Date m = range.first; m <= range.last; m = m.month_end().next()) {
    QuerySpec month;
    month.first = m;
    month.last = m.month_end();
    month.g_update = true;
    RASED_ASSIGN_OR_RETURN(RowMap rows, FetchRows(month));
    std::map<std::string, uint64_t> want_m, got_m;
    const std::string tag = m.ToString().substr(0, 7);
    for (const auto& [k, n] : feed_.month_update) {
      if (k.compare(0, 7, tag) == 0) want_m["u=" + k.substr(8)] = n;
    }
    for (const auto& [k, r] : rows) got_m[k] = r.count;
    diff = CompareCounts(want_m, got_m);
    if (!diff.empty()) checks_.Fail("month " + tag + " update types: " + diff);
  }
  // SampleByChangeset returns exactly each sampled changeset's records.
  for (const auto& [id, want_rows] : feed_.changesets) {
    RASED_ASSIGN_OR_RETURN(
        HttpReply reply,
        HttpGet(service_->port(),
                "/api/sample?changeset=" + std::to_string(id)));
    RASED_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(reply.body));
    const JsonValue* samples = doc.Get("samples");
    std::vector<std::string> rows;
    if (samples != nullptr) {
      for (const JsonValue& s : samples->items) {
        auto f = [&s](const char* k) {
          const JsonValue* v = s.Get(k);
          return v != nullptr ? v->text : std::string();
        };
        rows.push_back(RowKey(f("country"), f("date"), f("element_type"),
                              f("road_type"), f("update_type")));
      }
    }
    std::sort(rows.begin(), rows.end());
    if (reply.status != 200 || rows != want_rows) {
      checks_.Fail(rased::StrFormat(
          "changeset %" PRIu64 ": %zu records, expected %zu", id, rows.size(),
          want_rows.size()));
    }
  }
  return Status::OK();
}

void Harness::CrossChecks() {
  // Summed per-query I/O against the pager's registry counters. Only the
  // query workloads: on feed_ingest the same counters also carry ingest
  // writes and the monthly re-warm's reads.
  if (cfg_.workload != Workload::kFeedIngest) {
    const uint64_t reads = tally_.page_reads + tally_.r_io.page_reads;
    const uint64_t device =
        static_cast<uint64_t>(tally_.device_micros) +
        static_cast<uint64_t>(tally_.r_io.simulated_device_micros);
    if (after_.page_reads - before_.page_reads != reads) {
      checks_.Fail(rased::StrFormat(
          "rased_pager_page_reads_total moved %" PRIu64
          ", summed QueryStats.io %" PRIu64,
          after_.page_reads - before_.page_reads, reads));
    }
    if (after_.device_micros - before_.device_micros != device) {
      checks_.Fail(rased::StrFormat(
          "rased_pager_device_micros_total moved %" PRIu64
          ", summed QueryStats.io %" PRIu64,
          after_.device_micros - before_.device_micros, device));
    }
  }
  const uint64_t hits = tally_.cubes_from_cache + tally_.r_cubes_from_cache;
  if (after_.cache_hits - before_.cache_hits != hits) {
    checks_.Fail(rased::StrFormat(
        "rased_cache_hits_total moved %" PRIu64 ", summed cubes_from_cache %"
        PRIu64, after_.cache_hits - before_.cache_hits, hits));
  }
  if (after_.http_requests - before_.http_requests != tally_.ok) {
    checks_.Fail(rased::StrFormat(
        "rased_http_requests_total moved %" PRIu64 ", client saw %" PRIu64
        " responses with 200", after_.http_requests - before_.http_requests,
        tally_.ok));
  }
  if (cfg_.workload == Workload::kFeedIngest && traced_records_ > 0 &&
      catchup_records_ > 0) {
    // Per-update cost of the traced layer calls against untraced CatchUp
    // months of the same run. Timing, so reported rather than gated.
    const double layers =
        (feed_read_ms_ + crawl_ms_ + ingest_records_ms_ + cursor_ms_) /
        static_cast<double>(traced_records_);
    const double catchup =
        catchup_s_ * 1e3 / static_cast<double>(catchup_records_);
    const double ratio = layers / catchup;
    ingest_cross_check_ = rased::StrFormat(
        "traced layer sum %.4f us/update vs CatchUp %.4f us/update "
        "(ratio %.3f, tolerance 0.75-1.25: %s); cursor fsyncs %.1f%% of it",
        layers * 1e3, catchup * 1e3, ratio,
        ratio >= 0.75 && ratio <= 1.25 ? "within" : "OUTSIDE",
        100.0 * cursor_ms_ /
            (feed_read_ms_ + crawl_ms_ + ingest_records_ms_ + cursor_ms_));
  }
}

void Harness::Report() const {
  std::fprintf(stderr,
               "perfbench %s seed=%" PRIu64 " trace=%d: setup %.3f s, window "
               "%.3f s, %" PRIu64 " queries ok, %" PRIu64 " failed\n",
               WorkloadName(cfg_.workload), cfg_.seed, cfg_.trace ? 1 : 0,
               setup_s_, window_s_, tally_.ok, tally_.failed);
  const SlicedFigures f =
      SliceFigures(slice_ends_, tally_.done_s, tally_.latency_ms);
  std::fprintf(stderr,
               "  whole window: %.1f q/s, p50 %.4f ms, p90 %.4f ms; best "
               "quarter of %zu slices: %.1f q/s, p50 %.4f ms, p90 %.4f ms\n",
               static_cast<double>(tally_.ok) / window_s_,
               Quantile(tally_.latency_ms, 0.50),
               Quantile(tally_.latency_ms, 0.90), f.slices, f.qps, f.p50_ms,
               f.p90_ms);
  if (cfg_.workload == Workload::kFeedIngest) {
    std::fprintf(stderr,
                 "  feed: %" PRIu64 " updates over %" PRIu64 " days, CatchUp "
                 "%.3f s, generator late mean %.3f ms max %.3f ms\n",
                 feed_records_, feed_days_, catchup_s_,
                 generator_late_ms_mean_, generator_late_ms_max_);
    std::fprintf(stderr, "  %s\n", pager_stats_note_.c_str());
  }
  if (!ingest_cross_check_.empty()) {
    std::fprintf(stderr, "  ingest cross-check: %s\n",
                 ingest_cross_check_.c_str());
  }
  std::fprintf(stderr, "  checks: %" PRIu64 " failed\n", checks_.failures());
  for (const std::string& m : checks_.messages()) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", m.c_str());
  }
  if (cfg_.trace && !cfg_.trace_out.empty()) {
    Status s = spans_.WriteJsonLines(cfg_.trace_out);
    if (!s.ok()) std::fprintf(stderr, "  %s\n", s.ToString().c_str());
  }
}

void Harness::Teardown() {
  if (service_ != nullptr) service_->Stop();
  service_.reset();
  rased_.reset();
}

std::string Harness::ResultLine() {
  const bool feed = cfg_.workload == Workload::kFeedIngest;
  const double ops = static_cast<double>(std::max<uint64_t>(
      1, tally_.attempted + ingest_ops_));
  const uint64_t stored =
      DirBytes(rased::env::JoinPath(cfg_.Path("rased"), "index")) +
      DirBytes(rased::env::JoinPath(cfg_.Path("rased"), "warehouse"));
  const uint64_t updates = feed_.history_updates + feed_records_;

  std::vector<std::pair<std::string, std::pair<double, const char*>>> m;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, {value, unit}});
  };
  const SlicedFigures f =
      SliceFigures(slice_ends_, tally_.done_s, tally_.latency_ms);
  if (!cfg_.trace) {
    // The served rate and p90 are printed on stderr (Report) and, from the
    // traced run, per layer: on a VM shared with other tenants they spread
    // beyond any bound a gate may use (README, "Choices behind the metric
    // definitions").
    add("setup_s", setup_s_, "s");
    add("query_p50_ms", f.p50_ms, "ms");
    add("peak_rss_mb", peak_rss_mb_, "MiB");
    add("stored_bytes_per_update",
        static_cast<double>(stored) / static_cast<double>(updates), "bytes");
  } else {
    const double replays = static_cast<double>(std::max<uint64_t>(
        1, tally_.replays));
    const double api_replays = static_cast<double>(std::max<uint64_t>(
        1, tally_.replays - tally_.sql_replays));
    const double sql_replays = static_cast<double>(std::max<uint64_t>(
        1, tally_.sql_replays));
    const double http_ok = static_cast<double>(std::max<uint64_t>(1, tally_.ok));
    const double server_us =
        after_.http_count > before_.http_count
            ? static_cast<double>(after_.http_micros - before_.http_micros) /
                  static_cast<double>(after_.http_count - before_.http_count)
            : 0.0;
    const double cubes = static_cast<double>(std::max<uint64_t>(
        1, tally_.cubes_total + tally_.r_cubes));
    const double days = static_cast<double>(std::max<uint64_t>(
        1, feed ? feed_days_ : bulk_days_));
    const double daily_updates = static_cast<double>(std::max<uint64_t>(
        1, feed ? feed_records_ : bulk_updates_));
    const double traced_days = static_cast<double>(std::max<uint64_t>(
        1, traced_days_));
    rased::MetricsRegistry* reg = rased_->metrics();
    const double resident =
        static_cast<double>(reg->GetGauge("rased_cache_resident_bytes", "")
                                ->value());
    const rased::IndexStorageStats storage = rased_->index()->StorageStats();
    double monthly_crawl = 0;
    for (double v : monthly_crawl_ms_) monthly_crawl += v;
    if (!monthly_crawl_ms_.empty()) {
      monthly_crawl /= static_cast<double>(monthly_crawl_ms_.size());
    }
    add("dashboard.parse_params_us", tally_.parse_us / api_replays, "us");
    add("dashboard.render_json_us", tally_.render_us / replays, "us");
    add("dashboard.response_bytes",
        static_cast<double>(tally_.response_bytes) / replays, "bytes");
    add("dashboard.server_us", server_us, "us");
    add("dashboard.requests_per_s", f.qps, "requests/s");
    add("dashboard.request_p90_ms", f.p90_ms, "ms");
    add("dashboard.connection_us", tally_.round_trip_us / http_ok - server_us,
        "us");
    add("query.sql_parse_us", tally_.sql_parse_us / sql_replays, "us");
    add("query.plan_us", tally_.plan_us / replays, "us");
    add("query.execute_us", tally_.execute_us / replays, "us");
    add("query.aggregate_us", tally_.aggregate_us / replays, "us");
    add("query.cubes_per_query", static_cast<double>(tally_.r_cubes) / replays,
        "count");
    add("query.cubes_daily", static_cast<double>(tally_.r_level[0]) / replays,
        "count");
    add("query.cubes_weekly", static_cast<double>(tally_.r_level[1]) / replays,
        "count");
    add("query.cubes_monthly",
        static_cast<double>(tally_.r_level[2]) / replays, "count");
    add("query.cubes_yearly", static_cast<double>(tally_.r_level[3]) / replays,
        "count");
    add("query.alloc_bytes", static_cast<double>(tally_.alloc_bytes) / replays,
        "bytes");
    add("cache.hit_ratio",
        static_cast<double>(tally_.cubes_from_cache +
                            tally_.r_cubes_from_cache) / cubes,
        "ratio");
    add("cache.probe_us", tally_.probe_us / replays, "us");
    add("cache.resident_mb", resident / 1048576.0, "MiB");
    add("cache.budget_mb", static_cast<double>(cache_budget_) / 1048576.0,
        "MiB");
    add("index.fetch_us", tally_.fetch_us / replays, "us");
    add("io.device_ms_per_query",
        static_cast<double>(tally_.device_micros) / http_ok / 1e3, "ms");
    add("io.page_reads_per_query",
        static_cast<double>(tally_.r_io.page_reads) / replays, "count");
    add("io.read_ops_per_query",
        static_cast<double>(tally_.r_io.read_ops) / replays, "count");
    add("io.bytes_read_per_query",
        static_cast<double>(tally_.r_io.bytes_read) / replays, "bytes");
    add("io.seek_ms_per_query",
        static_cast<double>(tally_.r_io.read_ops) / replays *
            static_cast<double>(cfg_.device.read_latency_us) / 1e3,
        "ms");
    add("io.transfer_ms_per_query",
        static_cast<double>(tally_.r_io.bytes_read) / replays *
            cfg_.device.per_byte_us / 1e3,
        "ms");
    add("cube.encoded_bytes_per_cube",
        static_cast<double>(storage.encoded_bytes) /
            static_cast<double>(std::max<uint64_t>(1, storage.total_cubes)),
        "bytes");
    add("io.page_writes_per_day",
        static_cast<double>(feed ? feed_page_writes_ : bulk_page_writes_) /
            days,
        "count");
    add("io.bytes_written_per_update",
        static_cast<double>(feed ? feed_bytes_written_ : bulk_bytes_written_) /
            daily_updates,
        "bytes");
    add("collect.feed_read_ms_per_day", feed_read_ms_ / traced_days, "ms");
    add("collect.crawl_ms_per_day", crawl_ms_ / traced_days, "ms");
    add("collect.osc_mb_per_s",
        crawl_ms_ > 0 ? static_cast<double>(osc_bytes_) / 1048576.0 /
                            (crawl_ms_ / 1e3)
                      : 0.0,
        "MiB/s");
    add("core.ingest_records_ms_per_day", ingest_records_ms_ / traced_days,
        "ms");
    add("core.sync_ms", sync_ms_, "ms");
    add("collect.monthly_crawl_ms", monthly_crawl, "ms");
    add("core.warm_cache_ms", warm_ms_, "ms");
    add("warehouse.bytes_per_update",
        feed ? static_cast<double>(DirBytes(rased::env::JoinPath(
                   cfg_.Path("rased"), "warehouse"))) /
                   static_cast<double>(std::max<uint64_t>(1, feed_records_))
             : 0.0,
        "bytes");
    // Ingest throughput and rebuild time: reported here rather than as
    // end-to-end metrics because on a shared VM they drift by about ±25%
    // between runs (allocation-heavy phases), beyond any usable bound.
    add("core.ingest_updates_per_s",
        feed ? static_cast<double>(catchup_records_) / catchup_s_
             : static_cast<double>(bulk_updates_) / bulk_s_,
        "updates/s");
    add("core.month_rebuild_s", Mean(feed ? month_rebuild_s_ : setup_month_s_),
        "s/month");
    add("obs.profiler_cpu_share",
        static_cast<double>(after_.profiler_nanos - before_.profiler_nanos) /
            1e9 / std::max(1e-9, window_cpu_s_),
        "ratio");
    add("process.cpu_s_per_op", window_cpu_s_ / ops, "s");
  }

  std::string out = rased::StrFormat(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {",
      checks_.failures() == 0 ? "true" : "false",
      tally_.attempted + ingest_ops_, tally_.failed);
  for (size_t i = 0; i < m.size(); ++i) {
    out += rased::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            i == 0 ? "" : ", ", m[i].first.c_str(),
                            m[i].second.first, m[i].second.second);
  }
  out += "}}";
  return out;
}

}  // namespace

int RunMeasured(const BenchConfig& cfg,
                std::chrono::steady_clock::time_point process_start) {
  Harness harness(cfg, process_start);
  Status s = harness.Setup();
  if (s.ok()) {
    s = cfg.workload == Workload::kFeedIngest ? harness.RunFeed()
                                              : harness.RunQueries();
  }
  if (s.ok()) s = harness.PostChecks();
  if (s.ok() && cfg.trace) harness.CrossChecks();
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    harness.Teardown();
    return 1;
  }
  std::string line = harness.ResultLine();
  harness.Report();
  harness.Teardown();
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace perfbench
