#include "bench_io.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "io/env.h"
#include "util/str_util.h"

namespace perfbench {

namespace {

std::string UrlEncode(const std::string& text) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : text) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  for (;;) {
    size_t tab = line.find('\t', start);
    out.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) break;
    start = tab + 1;
  }
  return out;
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  RASED_ASSIGN_OR_RETURN(std::string contents, rased::env::ReadFile(path));
  std::vector<std::string> lines;
  std::istringstream in(contents);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

uint64_t ToU64(const std::string& s) { return std::stoull(s); }

}  // namespace

Result<Workload> ParseWorkload(const std::string& name) {
  if (name == "panels_resident") return Workload::kPanelsResident;
  if (name == "history_spill") return Workload::kHistorySpill;
  if (name == "feed_ingest") return Workload::kFeedIngest;
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPanelsResident:
      return "panels_resident";
    case Workload::kHistorySpill:
      return "history_spill";
    case Workload::kFeedIngest:
      return "feed_ingest";
  }
  return "?";
}

int BenchConfig::feed_months() const {
  // About one month of feed (CatchUp plus its monthly rebuild) per two
  // seconds of run time: on a 4-core x86 VM the window takes about the run
  // time (ten months at 20 s), longer on the seeds with the heaviest feeds.
  int months = static_cast<int>(std::lround(seconds / 2.0));
  return months < 1 ? 1 : (months > 12 ? 12 : months);
}

DateRange BenchConfig::feed_range() const {
  Date first = history.last.next();
  Date last = first;
  for (int m = 0; m < feed_months(); ++m) last = last.month_end().next();
  return DateRange(first, last.prev());
}

rased::SynthOptions BenchConfig::synth() const {
  rased::SynthOptions s;
  s.seed = seed;
  // Only period.first shapes the activity model (growth is measured from
  // it); the end is informational.
  s.period = DateRange(history.first, feed_range().last);
  s.base_updates_per_day = base_updates_per_day;
  return s;
}

std::string BenchConfig::Path(const std::string& name) const {
  return rased::env::JoinPath(work_dir, name);
}

std::string QuerySpec::Url(const std::vector<std::string>& names) const {
  if (sql) return "/api/sql?q=" + UrlEncode(Sql(names));
  std::string url = "/api/query?from=" + first.ToString() +
                    "&to=" + last.ToString();
  if (country >= 0) url += "&countries=" + UrlEncode(names[country]);
  std::vector<std::string> groups;
  if (g_country && !percentage) groups.push_back("country");
  if (g_date) groups.push_back("date");
  if (g_element) groups.push_back("element_type");
  if (g_road) groups.push_back("road_type");
  if (g_update) groups.push_back("update_type");
  if (!groups.empty()) url += "&group=" + UrlEncode(rased::Join(groups, ","));
  if (percentage) url += "&percentage=1";
  return url;
}

std::string QuerySpec::Sql(const std::vector<std::string>& names) const {
  std::vector<std::string> cols;
  if (g_country) cols.push_back("U.Country");
  if (g_date) cols.push_back("U.Date");
  if (g_element) cols.push_back("U.ElementType");
  if (g_road) cols.push_back("U.RoadType");
  if (g_update) cols.push_back("U.UpdateType");
  std::string select = cols.empty() ? "" : rased::Join(cols, ", ") + ", ";
  select += percentage ? "Percentage(*)" : "COUNT(*)";
  std::string sql = "SELECT " + select + " FROM UpdateList U WHERE U.Date "
                    "BETWEEN '" + first.ToString() + "' AND '" +
                    last.ToString() + "'";
  if (country >= 0) sql += " AND U.Country = '" + names[country] + "'";
  if (!cols.empty()) sql += " GROUP BY " + rased::Join(cols, ", ");
  return sql;
}

QuerySpec QuerySpec::Ungrouped() const {
  QuerySpec q = *this;
  q.g_date = false;
  q.sql = false;
  return q;
}

std::string RowKey(const std::string& country, const std::string& date,
                   const std::string& element, const std::string& road,
                   const std::string& update) {
  std::string key;
  auto add = [&key](const char* tag, const std::string& v) {
    if (v.empty()) return;
    if (!key.empty()) key += ';';
    key += tag;
    key += '=';
    key += v;
  };
  add("c", country);
  add("d", date);
  add("e", element);
  add("r", road);
  add("u", update);
  return key;
}

Status WriteWorld(const std::string& path, const WorldInfo& world) {
  std::string out;
  for (size_t i = 0; i < world.zone_names.size(); ++i) {
    out += rased::StrFormat("Z\t%zu\t%s\t%" PRIu64 "\n", i,
                            world.zone_names[i].c_str(),
                            world.network_size[i]);
  }
  for (int id : world.country_ids) out += rased::StrFormat("C\t%d\n", id);
  return rased::env::WriteFile(path, out);
}

Result<WorldInfo> ReadWorld(const std::string& path) {
  RASED_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
  WorldInfo world;
  for (const std::string& line : lines) {
    std::vector<std::string> f = SplitTabs(line);
    if (f[0] == "Z" && f.size() == 4) {
      world.zone_names.push_back(f[2]);
      world.network_size.push_back(ToU64(f[3]));
    } else if (f[0] == "C" && f.size() == 2) {
      world.country_ids.push_back(std::stoi(f[1]));
    } else {
      return Status::Corruption("bad world line: " + line);
    }
  }
  return world;
}

Status WriteQueries(const std::string& path,
                    const std::vector<ListedQuery>& queries) {
  std::string out;
  for (const ListedQuery& q : queries) {
    const QuerySpec& s = q.spec;
    out += rased::StrFormat(
        "Q\t%s\t%s\t%s\t%d\t%d%d%d%d%d%d%d\t%zu\n", s.panel.c_str(),
        s.first.ToString().c_str(), s.last.ToString().c_str(), s.country,
        s.g_country, s.g_date, s.g_element, s.g_road, s.g_update,
        s.percentage, s.sql, q.expected.size());
    for (const auto& [key, row] : q.expected) {
      out += rased::StrFormat("R\t%s\t%" PRIu64 "\t%.17g\n", key.c_str(),
                              row.count, row.percentage);
    }
  }
  return rased::env::WriteFile(path, out);
}

Result<std::vector<ListedQuery>> ReadQueries(const std::string& path) {
  RASED_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
  std::vector<ListedQuery> out;
  for (const std::string& line : lines) {
    std::vector<std::string> f = SplitTabs(line);
    if (f[0] == "Q" && f.size() == 7 && f[5].size() == 7) {
      ListedQuery q;
      q.spec.panel = f[1];
      RASED_ASSIGN_OR_RETURN(q.spec.first, Date::Parse(f[2]));
      RASED_ASSIGN_OR_RETURN(q.spec.last, Date::Parse(f[3]));
      q.spec.country = std::stoi(f[4]);
      const std::string& b = f[5];
      q.spec.g_country = b[0] == '1';
      q.spec.g_date = b[1] == '1';
      q.spec.g_element = b[2] == '1';
      q.spec.g_road = b[3] == '1';
      q.spec.g_update = b[4] == '1';
      q.spec.percentage = b[5] == '1';
      q.spec.sql = b[6] == '1';
      out.push_back(std::move(q));
    } else if (f[0] == "R" && f.size() == 4 && !out.empty()) {
      ExpectedRow row;
      row.count = ToU64(f[2]);
      row.percentage = std::stod(f[3]);
      out.back().expected[f[1]] = row;
    } else {
      return Status::Corruption("bad query line: " + line);
    }
  }
  return out;
}

Status WriteFeedExpect(const std::string& path, const FeedExpect& e) {
  std::string out = rased::StrFormat("RC\t%d\n", e.reader_country);
  for (const auto& [d, n] : e.day_total) {
    out += rased::StrFormat("DT\t%d\t%" PRIu64 "\n", d, n);
  }
  for (const auto& [d, n] : e.day_country_total) {
    out += rased::StrFormat("DC\t%d\t%" PRIu64 "\n", d, n);
  }
  for (const auto& [k, n] : e.month_update) {
    out += rased::StrFormat("MU\t%s\t%" PRIu64 "\n", k.c_str(), n);
  }
  for (const auto& [id, rows] : e.changesets) {
    out += rased::StrFormat("CS\t%" PRIu64 "\n", id);
    for (const std::string& r : rows) out += "CR\t" + r + "\n";
  }
  out += rased::StrFormat("FU\t%" PRIu64 "\nHU\t%" PRIu64 "\n",
                          e.feed_updates, e.history_updates);
  return rased::env::WriteFile(path, out);
}

Result<FeedExpect> ReadFeedExpect(const std::string& path) {
  RASED_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
  FeedExpect e;
  uint64_t current_cs = 0;
  for (const std::string& line : lines) {
    std::vector<std::string> f = SplitTabs(line);
    if (f[0] == "RC" && f.size() == 2) {
      e.reader_country = std::stoi(f[1]);
    } else if (f[0] == "DT" && f.size() == 3) {
      e.day_total[std::stoi(f[1])] = ToU64(f[2]);
    } else if (f[0] == "DC" && f.size() == 3) {
      e.day_country_total[std::stoi(f[1])] = ToU64(f[2]);
    } else if (f[0] == "MU" && f.size() == 3) {
      e.month_update[f[1]] = ToU64(f[2]);
    } else if (f[0] == "CS" && f.size() == 2) {
      current_cs = ToU64(f[1]);
      e.changesets[current_cs];
    } else if (f[0] == "CR" && f.size() == 2) {
      e.changesets[current_cs].push_back(f[1]);
    } else if (f[0] == "FU" && f.size() == 2) {
      e.feed_updates = ToU64(f[1]);
    } else if (f[0] == "HU" && f.size() == 2) {
      e.history_updates = ToU64(f[1]);
    } else {
      return Status::Corruption("bad feed expectation line: " + line);
    }
  }
  return e;
}

Status CubeStreamWriter::Open(const std::string& path, uint32_t num_cells) {
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) return Status::IOError("cannot create " + path);
  buf_.reserve(num_cells * 2);
  return Status::OK();
}

Status CubeStreamWriter::Append(const std::vector<uint64_t>& cells) {
  buf_.clear();
  for (uint64_t v : cells) {
    while (v >= 0x80) {
      buf_ += static_cast<char>((v & 0x7f) | 0x80);
      v >>= 7;
    }
    buf_ += static_cast<char>(v);
  }
  if (std::fwrite(buf_.data(), 1, buf_.size(), f_) != buf_.size()) {
    return Status::IOError("short write of cube stream");
  }
  return Status::OK();
}

Status CubeStreamWriter::Close() {
  if (f_ == nullptr) return Status::OK();
  int rc = std::fclose(f_);
  f_ = nullptr;
  return rc == 0 ? Status::OK() : Status::IOError("close of cube stream");
}

Status CubeStreamReader::Open(const std::string& path, uint32_t num_cells) {
  f_ = std::fopen(path.c_str(), "rb");
  if (f_ == nullptr) return Status::IOError("cannot open " + path);
  num_cells_ = num_cells;
  buf_.resize(1 << 20);
  return Status::OK();
}

int CubeStreamReader::GetByte() {
  if (pos_ == len_) {
    len_ = std::fread(buf_.data(), 1, buf_.size(), f_);
    pos_ = 0;
    if (len_ == 0) return EOF;
  }
  return static_cast<unsigned char>(buf_[pos_++]);
}

Result<bool> CubeStreamReader::Next(std::vector<uint64_t>* cells) {
  cells->assign(num_cells_, 0);
  for (uint32_t i = 0; i < num_cells_; ++i) {
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
      int c = GetByte();
      if (c == EOF) {
        if (i == 0 && shift == 0) return false;
        return Status::Corruption("truncated cube stream");
      }
      v |= static_cast<uint64_t>(c & 0x7f) << shift;
      if ((c & 0x80) == 0) break;
      shift += 7;
      if (shift > 63) return Status::Corruption("overlong varint");
    }
    (*cells)[i] = v;
  }
  return true;
}

CubeStreamReader::~CubeStreamReader() {
  if (f_ != nullptr) std::fclose(f_);
}

}  // namespace perfbench
